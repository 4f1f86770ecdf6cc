"""Exact per-modality decomposition of a fusion network's prediction.

The engine pushes a stack of components (one per modality plus a trailing
bias component) through the frozen linear surrogate of each layer in one
sweep. Where a layer first needs recorded values, the sweep records them from
the sum of its input stack, which is the layer's input activation: the chord
ratio (output over input) of every activation and softmax layer, and the
input statistics of every LayerNorm/InstanceNorm.

Every element-wise layer freezes into one rule (see _frozen_rule): a
homogeneous linear map applied to each component, a recorded constant, and
a routing that sends the constant to the bias component ('identity') or
spreads it over all components ('uniform'). Fusion and structural layers
(concatenation, residual add, bilinear matmul) act on the stack directly.
At every layer the components sum to the layer's activation; the activation
splitting rule (act_rule) may further re-route activation bias mass between
the two modalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LayerSpec,
    ModelGraph,
    channel_shape,
    eval_layer,
    forward,
    matmul_pair,
    norm_affine,
    norm_axes,
    norm_stats,
)
from .tensor import as_tensor, conv2d

__all__ = [
    "SplitConfig",
    "DecomposedTensor",
    "RecordedState",
    "DecompositionResult",
    "DecompositionError",
    "EQUALITY_TOL",
    "record",
    "split_input",
    "lin_affine",
    "lin_concat",
    "lin_residual_add",
    "lin_activation",
    "lin_batchnorm",
    "lin_layernorm",
    "lin_instancenorm",
    "lin_softmax",
    "lin_matmul",
    "apply_frozen",
    "propagate",
    "decompose",
    "equality_residuals",
    "component_labels",
]

EQUALITY_TOL = 1e-9

_BN_RULES = ("identity", "uniform")
_LN_RULES = ("ratio", "identity", "uniform")
_ACT_RULES = ("none", "sum", "ratio")

_ACTIVATION_KINDS = ("ReLU", "GELU", "Softmax")
_CACHED_KINDS = _ACTIVATION_KINDS + ("LayerNorm", "InstanceNorm")
_STRUCTURAL_KINDS = ("Input", "ConcatFusion", "ResidualAdd", "MatMul")


class DecompositionError(RuntimeError):
    """Numerical-contract failure: non-finite values or a broken equality."""


@dataclass(frozen=True)
class SplitConfig:
    """Splitting-rule selection per layer family.

    bn_rule decides who absorbs a BatchNorm's constant term: 'identity'
    sends it to the bias component, 'uniform' spreads it equally over all
    components. ln_rule 'ratio' keeps LayerNorm live (each component centered
    by its own mean, frozen variance); 'identity'/'uniform' treat LayerNorm
    like BatchNorm using the recorded input statistics. act_rule
    optionally re-routes activation-layer bias mass into the modality that
    triggered the neuron ('sum') or proportionally to component magnitudes
    ('ratio'); both are defined for exactly two modalities.
    """

    bn_rule: str = "identity"
    ln_rule: str = "ratio"
    act_rule: str = "none"
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.bn_rule not in _BN_RULES:
            raise ValueError(f"bn_rule must be one of {_BN_RULES}, got '{self.bn_rule}'")
        if self.ln_rule not in _LN_RULES:
            raise ValueError(f"ln_rule must be one of {_LN_RULES}, got '{self.ln_rule}'")
        if self.act_rule not in _ACT_RULES:
            raise ValueError(f"act_rule must be one of {_ACT_RULES}, got '{self.act_rule}'")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def label(self) -> str:
        s = f"{self.bn_rule}-{self.ln_rule}"
        if self.act_rule != "none":
            s += f"-{self.act_rule}"
        return s

    @classmethod
    def parse(cls, label: str, epsilon: float = 1e-6) -> "SplitConfig":
        """Build from a 'bn-ln' or 'bn-ln-act' label, e.g. 'identity-ratio'."""
        toks = label.split("-")
        if len(toks) == 2:
            return cls(toks[0], toks[1], "none", epsilon)
        if len(toks) == 3:
            return cls(toks[0], toks[1], toks[2], epsilon)
        raise ValueError(f"variant label '{label}' is not 'bn-ln[-act]'")


def component_labels(num_modalities: int) -> list[str]:
    return [f"m{i}" for i in range(num_modalities)] + ["bias"]


class DecomposedTensor:
    """num_modalities modality components plus a bias component.

    Components are stacked on axis 0 with the bias last; they all share the
    underlying layer's activation shape, and their sum reproduces it.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: np.ndarray):
        parts = as_tensor(parts)
        if parts.ndim < 2 or parts.shape[0] < 2:
            raise ValueError(f"decomposition needs >=2 stacked components, got {parts.shape}")
        self.parts = parts

    @property
    def num_modalities(self) -> int:
        return self.parts.shape[0] - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.parts.shape[1:]

    def modality(self, m: int) -> np.ndarray:
        if not 0 <= m < self.num_modalities:
            raise IndexError(f"modality {m} out of range")
        return self.parts[m]

    @property
    def bias(self) -> np.ndarray:
        return self.parts[-1]

    def total(self) -> np.ndarray:
        return self.parts.sum(axis=0)

    def to_dict(self) -> dict[str, list]:
        labels = component_labels(self.num_modalities)
        return {lab: self.parts[i].tolist() for i, lab in enumerate(labels)}


@dataclass
class RecordedState:
    """The recorded input and the linearization data of a decomposition.

    For activation/softmax layers the cache holds the chord ratio and the
    per-neuron residual that keeps the frozen layer exact at the recorded
    point; for LayerNorm/InstanceNorm it holds the recorded input mean and
    variance over the normalization axes (kept with broadcastable dims).
    """

    inputs: dict[int, np.ndarray]
    caches: dict[str, dict[str, np.ndarray]]
    epsilon: float


def _chord_ratio(pre: np.ndarray, out: np.ndarray, eps: float):
    """Per-neuron chord slope out/(pre+eps) with a degenerate-denominator guard.

    Where |pre| <= 10*eps the slope carries no usable direction (it can
    explode, or the denominator can vanish outright at pre == -eps), so the
    ratio is zeroed and the full output is carried by the residual instead.
    The residual out - ratio*pre is recorded everywhere so the frozen layer
    reproduces the recorded output exactly.
    """
    safe = np.abs(pre) > 10.0 * eps
    c = np.zeros_like(pre)
    np.divide(out, pre + eps, out=c, where=safe)
    r = out - c * pre
    return c, r


def _layer_cache(layer: LayerSpec, pre: np.ndarray, eps: float) -> dict[str, np.ndarray]:
    """What the frozen rule of an activation/softmax or norm layer needs at input pre."""
    if layer.kind in _ACTIVATION_KINDS:
        c, r = _chord_ratio(pre, eval_layer(layer, [pre]), eps)
        return {"ratio": c, "residual": r}
    mean, var = norm_stats(pre, norm_axes(layer, pre.ndim))
    return {"mean": mean, "var": var}


def record(model: ModelGraph, inputs: dict[int, np.ndarray], cfg: SplitConfig | None = None) -> RecordedState:
    """The linearization recorded under the full multimodal input (see decompose)."""
    return decompose(model, inputs, cfg).state


# --- frozen per-layer rules on component stacks ---------------------------


def split_input(x: np.ndarray, modality: int, num_modalities: int) -> DecomposedTensor:
    """Decompose an input layer: its own modality carries x, all else zero."""
    x = as_tensor(x)
    parts = np.zeros((num_modalities + 1,) + x.shape)
    parts[modality] = x
    return DecomposedTensor(parts)


def _frozen_rule(layer: LayerSpec, state: RecordedState | None, cfg: SplitConfig | None, nd: int):
    """The frozen surrogate of a single-input layer on rank-nd activations.

    Returns (map, const, routing). map is the homogeneous linear map on an
    (S, ...) component stack, const the recorded constant, and routing
    ('identity' or 'uniform') says whether const goes to the bias component
    or is spread equally over all of them.
    """
    kind, p = layer.kind, layer.params
    if kind == "Dense":
        w = p["weight"]

        def dense(s):
            out = np.matmul(w, s.reshape(s.shape[0], s.shape[1], -1))
            return out.reshape((s.shape[0], w.shape[0]) + s.shape[2:])

        return dense, channel_shape(p["bias"], nd), "identity"
    if kind == "Conv2d":
        zero = np.zeros_like(p["bias"])
        conv = lambda s: conv2d(s, p["weight"], zero, p["stride"], p["padding"])  # noqa: E731
        return conv, channel_shape(p["bias"], nd), "identity"
    if kind in _ACTIVATION_KINDS:
        cache = state.caches[layer.id]
        return (lambda s: s * cache["ratio"]), cache["residual"], "identity"
    if kind == "BatchNorm":
        scale = channel_shape(p["gamma"] / np.sqrt(p["var"] + p["eps"]), nd)
        const = channel_shape(p["beta"], nd) - channel_shape(p["mean"], nd) * scale
        return (lambda s: s * scale), const, cfg.bn_rule
    if kind in ("LayerNorm", "InstanceNorm"):
        cache = state.caches[layer.id]
        gamma, beta = norm_affine(layer, nd)
        scale = gamma / np.sqrt(cache["var"] + p["eps"])
        if cfg.ln_rule == "ratio":
            # live mean: every component is centered by its own mean
            axes = tuple(ax + 1 for ax in norm_axes(layer, nd))
            return (lambda s: (s - s.mean(axis=axes, keepdims=True)) * scale), beta, "identity"
        return (lambda s: s * scale), beta - cache["mean"] * scale, cfg.ln_rule
    raise ValueError(f"no frozen single-input rule for kind '{kind}'")


def _separable(model: ModelGraph, cfg: SplitConfig) -> set[str]:
    """Ids of the layers whose component rows depend on nothing but their own row.

    Every frozen rule computes component r of its output from component r of
    its inputs, except MatMul (cross terms go to bias) and ReLU/GELU under an
    act_rule that re-routes bias mass; a layer is separable when its rule is
    not one of these and all of its inputs are separable. Up to the first
    row-mixing layer, each row of a stack is therefore the same whatever the
    other rows hold.
    """
    separable: set[str] = set()
    for layer in model.layers:
        mixing = layer.kind == "MatMul" or (
            layer.kind in ("ReLU", "GELU") and cfg.act_rule != "none"
        )
        if not mixing and all(i in separable for i in layer.inputs):
            separable.add(layer.id)
    return separable


def _push(
    layer: LayerSpec,
    d: DecomposedTensor,
    state: RecordedState | None,
    cfg: SplitConfig | None,
) -> DecomposedTensor:
    """Apply the frozen map to every component and route the constant."""
    fmap, const, routing = _frozen_rule(layer, state, cfg, d.parts.ndim - 1)
    out = fmap(d.parts)
    if routing == "identity":
        out[-1] += const
    else:
        out += const / out.shape[0]
    return DecomposedTensor(out)


def lin_affine(layer: LayerSpec, d: DecomposedTensor) -> DecomposedTensor:
    """Dense/Conv2d: weights act on every component, the layer constant on bias."""
    return _push(layer, d, None, None)


def lin_batchnorm(layer: LayerSpec, d: DecomposedTensor, cfg: SplitConfig) -> DecomposedTensor:
    """BatchNorm: frozen scale on every component, constant routed by bn_rule."""
    return _push(layer, d, None, cfg)


def lin_layernorm(
    layer: LayerSpec,
    d: DecomposedTensor,
    state: RecordedState,
    cfg: SplitConfig,
) -> DecomposedTensor:
    """LayerNorm with frozen variance and the mean chosen by ln_rule."""
    return _push(layer, d, state, cfg)


def lin_instancenorm(
    layer: LayerSpec,
    d: DecomposedTensor,
    state: RecordedState,
    cfg: SplitConfig,
) -> DecomposedTensor:
    """InstanceNorm: the LayerNorm rule over spatial axes, per-channel affine."""
    return _push(layer, d, state, cfg)


def lin_softmax(layer: LayerSpec, d: DecomposedTensor, state: RecordedState) -> DecomposedTensor:
    """Softmax linearized like an activation (recorded chord ratios); no act_rule."""
    return _push(layer, d, state, None)


def lin_concat(ds: list[DecomposedTensor], axis: int) -> DecomposedTensor:
    parts = np.concatenate([d.parts for d in ds], axis=axis + 1)
    return DecomposedTensor(parts)


def lin_residual_add(a: DecomposedTensor, b: DecomposedTensor) -> DecomposedTensor:
    if a.parts.shape != b.parts.shape:
        raise ValueError(f"residual shape mismatch: {a.parts.shape} vs {b.parts.shape}")
    return DecomposedTensor(a.parts + b.parts)


def lin_activation(
    layer: LayerSpec,
    d: DecomposedTensor,
    state: RecordedState,
    cfg: SplitConfig,
) -> DecomposedTensor:
    """Frozen activation: each component scaled by the recorded chord ratio.

    The recorded residual keeps the component sum equal to the recorded
    output. Under the 'sum' rule the bias mass (component and residual) is
    re-routed to whichever modality triggered the neuron; under 'ratio' it is
    split between the two modalities in proportion to their magnitudes. Both
    leave the bias entry exactly zero where they fire.
    """
    if cfg.act_rule == "none":
        return _push(layer, d, state, cfg)
    if d.num_modalities != 2:
        raise ValueError(
            f"act_rule '{cfg.act_rule}' is defined for exactly two modalities, "
            f"got {d.num_modalities}"
        )
    fmap, r, _ = _frozen_rule(layer, state, cfg, d.parts.ndim - 1)
    h0, h1, hb = d.parts[0], d.parts[1], d.parts[2]
    if cfg.act_rule == "sum":
        to0 = ((h0 > 0) & (h1 < 0) & (hb > 0)) | ((h0 < 0) & (h1 > 0) & (hb < 0))
        to1 = ((h0 < 0) & (h1 > 0) & (hb > 0)) | ((h0 > 0) & (h1 < 0) & (hb < 0))
        fired = to0 | to1
        share0 = to0.astype(float)
        share1 = to1.astype(float)
    else:  # ratio
        same_sign = ((h0 > 0) & (h1 > 0) & (hb > 0)) | ((h0 < 0) & (h1 < 0) & (hb < 0))
        opp_sign = ((h0 > 0) & (h1 > 0) & (hb < 0)) | ((h0 < 0) & (h1 < 0) & (hb > 0))
        fired = same_sign | opp_sign
        alpha = np.abs(h1) / (np.abs(h0) + np.abs(h1) + cfg.epsilon)
        share0 = np.where(same_sign, 1.0 - alpha, np.where(opp_sign, alpha, 0.0))
        share1 = np.where(same_sign, alpha, np.where(opp_sign, 1.0 - alpha, 0.0))
    out0 = fmap(h0 + share0 * hb) + share0 * r
    out1 = fmap(h1 + share1 * hb) + share1 * r
    outb = np.where(fired, 0.0, fmap(hb) + r)
    return DecomposedTensor(np.stack([out0, out1, outb]))


def lin_matmul(
    a: DecomposedTensor,
    b: DecomposedTensor,
    transpose_b: bool = False,
) -> DecomposedTensor:
    """Bilinear product: same-modality terms stay modality, the rest is bias.

    Expanding (sum_m A_m)(sum_n B_n), component m keeps A_m @ B_m; every
    cross-modality term and every term touching a bias operand lands in the
    bias component, computed as the full product minus the kept terms.
    """
    if a.num_modalities != b.num_modalities:
        raise ValueError("matmul operands disagree on modality count")
    mods = [
        matmul_pair(a.parts[m], b.parts[m], transpose_b)
        for m in range(a.num_modalities)
    ]
    total = matmul_pair(a.total(), b.total(), transpose_b)
    bias = total - sum(mods)
    return DecomposedTensor(np.stack(mods + [bias]))


def apply_frozen(
    layer: LayerSpec,
    state: RecordedState,
    cfg: SplitConfig,
    xs: list[np.ndarray],
) -> np.ndarray:
    """Evaluate the frozen linearized layer on plain tensors.

    This is the layer the component stack actually flows through: the frozen
    map on a one-component stack plus the full constant. Structural layers
    (Input, ConcatFusion, ResidualAdd, MatMul) are already linear and are
    evaluated as they are. Summing rule outputs over components reproduces
    this map applied to the summed input.
    """
    if layer.kind in _STRUCTURAL_KINDS:
        return eval_layer(layer, xs)
    fmap, const, _ = _frozen_rule(layer, state, cfg, xs[0].ndim)
    return fmap(xs[0][None])[0] + const


# --- whole-network propagation --------------------------------------------


def _check_config(model: ModelGraph, cfg: SplitConfig) -> None:
    if cfg.act_rule != "none" and model.modalities != 2:
        raise ValueError(
            f"act_rule '{cfg.act_rule}' is defined for exactly two modalities, "
            f"model has {model.modalities}"
        )


def _propagate_layers(
    model: ModelGraph,
    layers: list[LayerSpec],
    state: RecordedState,
    inputs: dict[int, np.ndarray] | None,
    cfg: SplitConfig,
    comp: dict[str, DecomposedTensor],
) -> dict[str, DecomposedTensor]:
    """Fill comp with the component stack of each of layers, in order.

    comp must already hold the stacks of every upstream layer outside layers.
    A cache that state lacks is recorded from the sum of the input stack.
    """
    M = model.modalities
    for layer in layers:
        ups = [comp[i] for i in layer.inputs]
        kind = layer.kind
        if kind in _CACHED_KINDS and layer.id not in state.caches:
            state.caches[layer.id] = _layer_cache(layer, ups[0].total(), state.epsilon)
        if kind == "Input":
            out = split_input(eval_layer(layer, [], inputs), layer.params["modality"], M)
        elif kind == "ConcatFusion":
            out = lin_concat(ups, layer.params["axis"])
        elif kind == "ResidualAdd":
            out = lin_residual_add(ups[0], ups[1])
        elif kind == "MatMul":
            out = lin_matmul(ups[0], ups[1], layer.params.get("transpose_b", False))
        elif kind in ("ReLU", "GELU"):
            out = lin_activation(layer, ups[0], state, cfg)
        else:
            out = _push(layer, ups[0], state, cfg)
        comp[layer.id] = out
    return comp


def propagate(
    model: ModelGraph,
    state: RecordedState,
    inputs: dict[int, np.ndarray],
    cfg: SplitConfig | None = None,
) -> dict[str, DecomposedTensor]:
    """Push component stacks through a recorded linearization.

    The state is only read: this is how perturbed inputs are evaluated against
    a linearization recorded from clean inputs. Raises ValueError naming the
    first layer whose cache the state lacks, as a state of another model does.
    """
    cfg = cfg or SplitConfig()
    _check_config(model, cfg)
    if cfg.epsilon != state.epsilon:
        raise ValueError(
            f"state was recorded with epsilon {state.epsilon}, config has {cfg.epsilon}"
        )
    for layer in model.layers:
        if layer.kind in _CACHED_KINDS and layer.id not in state.caches:
            raise ValueError(f"state holds no cache for layer '{layer.id}' of this model")
    return _propagate_layers(model, model.layers, state, inputs, cfg, {})


@dataclass
class DecompositionResult:
    components: dict[str, DecomposedTensor]
    output: DecomposedTensor
    state: RecordedState


def decompose(
    model: ModelGraph,
    inputs: dict[int, np.ndarray],
    cfg: SplitConfig | None = None,
) -> DecompositionResult:
    """Record and propagate in one sweep; raises DecompositionError at a non-finite layer."""
    cfg = cfg or SplitConfig()
    _check_config(model, cfg)
    state = RecordedState(dict(inputs), {}, cfg.epsilon)
    comp = _propagate_layers(model, model.layers, state, inputs, cfg, {})
    for layer in model.layers:
        if not np.all(np.isfinite(comp[layer.id].total())):
            raise DecompositionError(f"non-finite activation in layer '{layer.id}'")
    return DecompositionResult(comp, comp[model.output], state)


def equality_residuals(
    model: ModelGraph,
    components: dict[str, DecomposedTensor],
    state: RecordedState,
) -> dict[str, float]:
    """Per-layer relative residual between component sums and forward at state.inputs."""
    acts = forward(model, state.inputs)
    out = {}
    for layer in model.layers:
        total = components[layer.id].total()
        ref = acts[layer.id]
        num = float(np.max(np.abs(total - ref))) if total.size else 0.0
        out[layer.id] = num / (1.0 + float(np.max(np.abs(ref))))
    return out
