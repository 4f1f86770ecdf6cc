"""Exact per-modality decomposition of a fusion network's prediction.

The engine pushes a stack of components (one per modality plus a trailing
bias component) through the frozen linear surrogate of each layer in one
sweep. Where a layer first needs recorded values, the sweep records them from
the sum of its input stack, which is the layer's input activation: the chord
ratio (output over input) of every activation and softmax layer, and the
input statistics of every LayerNorm/InstanceNorm.

Every single-input layer freezes into one rule (see _frozen_rule): a
homogeneous linear map applied to the whole stack, a recorded constant, and
a routing that sends the constant to the bias component ('identity'),
spreads it over all components ('uniform'), or, for ReLU/GELU under an
act_rule ('sum' or 'ratio'), sends it to the bias component and then moves
the bias component's output mass to the two modalities. One plan per call
(_Plan) binds the Dense, Conv2d and BatchNorm rules and the splice frontier;
its per-layer step, the one place a stack is formed, binds activation and
norm rules from the state's cache. Fusion and structural layers
(concatenation, residual add, bilinear matmul) act on the stack directly,
with the component axis as a batch axis. Stacks are raw (M+1, *map) arrays
inside; DecomposedTensor wraps what the public functions return. At every
layer the components sum to the layer's activation.

A sweep can carry J runs under one recorded state in a (J*M+1, *map) stack:
row j*M+m holds run j's modality m and the last row is the bias row. Over
the row-separable prefix (see _Plan) the bias row is the same in every run,
so _sweep_runs pushes all J runs at once and stops at the frontier, and
_splice reads run j's rows from that layout; a 'uniform' constant is split
M+1 ways whatever the row count. The plan's liveness table lets a sweep drop
each stack after its last reader unless the caller keeps it: record keeps
none, the protocol's clean pass and the stacked sweep keep the frontier, and
decompose and propagate keep every layer's.
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
    layer_axis,
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
    "lin_affine",
    "lin_concat",
    "lin_residual_add",
    "lin_activation",
    "lin_batchnorm",
    "lin_layernorm",
    "lin_instancenorm",
    "lin_softmax",
    "lin_matmul",
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
_ACT_RULE_KINDS = ("ReLU", "GELU")  # the activations whose bias mass act_rule re-routes
_STATIC_KINDS = ("Dense", "Conv2d", "BatchNorm")  # rules bound without recorded values


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
    """The linearization recorded under the full multimodal input (see decompose); keeps no stack."""
    return _decompose(_Plan(model, cfg or SplitConfig()), inputs, keep=frozenset())[1]


# --- frozen per-layer rules on component stacks ---------------------------


def _input_stack(xs: list[np.ndarray], modality: int, num_modalities: int) -> np.ndarray:
    """An input layer's stack over J runs: row j*M+modality holds xs[j], every other row is zero."""
    h = np.zeros((len(xs) * num_modalities + 1,) + xs[0].shape)
    h[modality:-1:num_modalities] = xs
    return h


def _frozen_rule(layer: LayerSpec, state: RecordedState | None, cfg: SplitConfig | None, nd: int):
    """The frozen surrogate of a single-input layer on rank-nd activations.

    Returns (map, const, routing). map is the homogeneous linear map on an
    (S, ...) component stack, const the recorded constant, and routing
    ('identity' or 'uniform') says whether const goes to the bias component
    or is spread equally over all of them. A ReLU/GELU under an act_rule
    routes by that rule's name ('sum' or 'ratio'): const goes to the bias
    component, whose output mass _reroute then moves to the modalities.
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
        routing = cfg.act_rule if kind in _ACT_RULE_KINDS and cfg.act_rule != "none" else "identity"
        return (lambda s: s * cache["ratio"]), cache["residual"], routing
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


def _push(rule, h: np.ndarray, eps: float, width: int) -> np.ndarray:
    """Apply a bound frozen rule to the stack h: its map on every row, then its constant routed.

    width is the component count of one run (M+1). A 'uniform' constant is
    split width ways onto every row, so each run stacked in h gets its share.
    """
    fmap, const, routing = rule
    out = fmap(h)
    if routing == "uniform":
        out += const / width
    else:
        out[-1] += const
    if routing in ("sum", "ratio"):
        _reroute(h, out, routing, eps)
    return out


def _reroute(h: np.ndarray, out: np.ndarray, rule: str, eps: float) -> None:
    """Move the bias row's output mass in out to the two modality rows, in place.

    The shares come from the sign pattern of the input stack h. Under 'sum'
    the whole bias mass goes to whichever modality triggered the neuron;
    under 'ratio' it is split between the two modalities in proportion to
    their magnitudes. Both leave the bias entry exactly zero where they fire.
    """
    h0, h1, hb = h
    if rule == "sum":
        to0 = ((h0 > 0) & (h1 < 0) & (hb > 0)) | ((h0 < 0) & (h1 > 0) & (hb < 0))
        to1 = ((h0 < 0) & (h1 > 0) & (hb > 0)) | ((h0 > 0) & (h1 < 0) & (hb < 0))
        fired = to0 | to1
        share = np.stack([to0, to1]).astype(float)
    else:  # ratio
        same_sign = ((h0 > 0) & (h1 > 0) & (hb > 0)) | ((h0 < 0) & (h1 < 0) & (hb < 0))
        opp_sign = ((h0 > 0) & (h1 > 0) & (hb < 0)) | ((h0 < 0) & (h1 < 0) & (hb > 0))
        fired = same_sign | opp_sign
        alpha = np.abs(h1) / (np.abs(h0) + np.abs(h1) + eps)
        share = np.where(same_sign, [1.0 - alpha, alpha], 0.0)
        share = np.where(opp_sign, [alpha, 1.0 - alpha], share)
    out[:2] += share * out[2]
    out[2][fired] = 0.0


def lin_concat(hs: list[np.ndarray], axis: int) -> np.ndarray:
    """Concatenate stacks along an axis of the maps; a negative axis counts from the end."""
    nd = hs[0].ndim - 1
    if not -nd <= axis < nd:
        raise ValueError(f"concat axis {axis} out of range for rank {nd}")
    return np.concatenate(hs, axis=axis % nd + 1)


def lin_residual_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape != b.shape:
        raise ValueError(f"residual shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def lin_matmul(a: np.ndarray, b: np.ndarray, transpose_b: bool = False) -> np.ndarray:
    """Bilinear product of two stacks: same-modality terms stay modality, the rest is bias.

    Expanding (sum_m A_m)(sum_n B_n), component m keeps A_m @ B_m, formed
    for all m in one product batched over the modality rows; every
    cross-modality term and every term touching a bias operand lands in the
    bias component, computed as the full product minus the kept terms.
    """
    if a.shape[0] != b.shape[0]:
        raise ValueError("matmul operands disagree on modality count")
    total = matmul_pair(a.sum(axis=0), b.sum(axis=0), transpose_b)
    right = np.swapaxes(b[:-1], -1, -2) if transpose_b else b[:-1]
    mods = np.matmul(a[:-1], right)
    return np.concatenate([mods, (total - mods.sum(axis=0))[None]])


# --- single-input rules on a DecomposedTensor (uncalled; kept while perfbench traces them) ---


def _push_tensor(layer, d: DecomposedTensor, state, cfg) -> DecomposedTensor:
    rule = _frozen_rule(layer, state, cfg, d.parts.ndim - 1)
    return DecomposedTensor(_push(rule, d.parts, cfg.epsilon if cfg else None, d.parts.shape[0]))


def lin_affine(layer: LayerSpec, d: DecomposedTensor) -> DecomposedTensor:
    """Dense/Conv2d: weights act on every component, the layer constant on bias."""
    return _push_tensor(layer, d, None, None)


def lin_batchnorm(layer: LayerSpec, d: DecomposedTensor, cfg: SplitConfig) -> DecomposedTensor:
    """BatchNorm: frozen scale on every component, constant routed by bn_rule."""
    return _push_tensor(layer, d, None, cfg)


def lin_layernorm(
    layer: LayerSpec, d: DecomposedTensor, state: RecordedState, cfg: SplitConfig
) -> DecomposedTensor:
    """LayerNorm with frozen variance and the mean chosen by ln_rule."""
    return _push_tensor(layer, d, state, cfg)


def lin_instancenorm(
    layer: LayerSpec, d: DecomposedTensor, state: RecordedState, cfg: SplitConfig
) -> DecomposedTensor:
    """InstanceNorm: the LayerNorm rule over spatial axes, per-channel affine."""
    return _push_tensor(layer, d, state, cfg)


def lin_softmax(layer: LayerSpec, d: DecomposedTensor, state: RecordedState) -> DecomposedTensor:
    """Softmax linearized like an activation (recorded chord ratios); no act_rule."""
    return _push_tensor(layer, d, state, None)


def lin_activation(
    layer: LayerSpec, d: DecomposedTensor, state: RecordedState, cfg: SplitConfig
) -> DecomposedTensor:
    """Frozen activation: components scaled by the recorded chord ratio, bias mass routed by act_rule."""
    if cfg.act_rule != "none" and d.num_modalities != 2:
        raise ValueError(f"act_rule '{cfg.act_rule}' is defined for exactly two modalities, got {d.num_modalities}")
    return _push_tensor(layer, d, state, cfg)


# --- whole-network propagation --------------------------------------------


class _Plan:
    """What one call keeps fixed for (model, cfg), and no stack or state.

    One walk over model.layers gives:
    - rules, the rules bound without recorded values (_STATIC_KINDS);
    - prefix and suffix, the layers inside and past the row-separable
      prefix, in model order. Every frozen rule computes component r of its
      output from component r of its inputs, except MatMul (cross terms go
      to bias) and the _ACT_RULE_KINDS under an act_rule that re-routes bias
      mass; a layer is separable when its rule is not one of these and all
      of its inputs are separable. Up to the first row-mixing layer, each row
      of a stack is therefore the same whatever the other rows hold;
    - frontier, the prefix stacks that the suffix reads, plus a separable
      output;
    - frees, the liveness table: frees[lid] lists the stacks whose last
      reader is layer lid, and a layer nothing reads frees its own.

    decompose, propagate, perturbation_protocol and hybrid_shapley build one
    per call and pass it to every sweep and splice they run.
    """

    def __init__(self, model: ModelGraph, cfg: SplitConfig):
        if cfg.act_rule != "none" and model.modalities != 2:
            raise ValueError(
                f"act_rule '{cfg.act_rule}' is defined for exactly two modalities, model has {model.modalities}"
            )
        self.model, self.cfg = model, cfg
        self.rules, self.prefix, self.suffix, self.frontier = {}, [], [], set()
        rank, separable, last_reader = {}, set(), {}
        for layer in model.layers:
            # every kind keeps the rank of its first input
            rank[layer.id] = len(layer.params["shape"]) if layer.kind == "Input" else rank[layer.inputs[0]]
            if layer.kind in _STATIC_KINDS:
                self.rules[layer.id] = _frozen_rule(layer, None, cfg, rank[layer.id])
            mixing = layer.kind == "MatMul" or (layer.kind in _ACT_RULE_KINDS and cfg.act_rule != "none")
            if not mixing and separable.issuperset(layer.inputs):
                separable.add(layer.id)
                self.prefix.append(layer)
            else:
                self.suffix.append(layer)
                self.frontier.update(separable.intersection(layer.inputs))
            last_reader.update(dict.fromkeys(layer.inputs, layer.id))
        if model.output in separable:
            self.frontier.add(model.output)
        self.frees = {lid: [] for lid in rank}
        for lid in rank:
            self.frees[last_reader.get(lid, lid)].append(lid)

    def step(self, layer: LayerSpec, ups: list[np.ndarray], state: RecordedState, runs, recording: bool):
        """The stack of layer from its input stacks ups, binding a rule not bound yet from state's cache.

        runs is a list of J input dicts, one per run (see _input_stack). A
        missing cache is recorded from the input stack's sum when recording
        (one run), else it is a ValueError.
        """
        kind = layer.kind
        if kind == "Input":
            xs = [eval_layer(layer, [], run) for run in runs]
            return _input_stack(xs, layer.params["modality"], self.model.modalities)
        if kind == "ConcatFusion":
            return lin_concat(ups, layer_axis(layer, ups[0].ndim - 1))
        if kind == "ResidualAdd":
            return lin_residual_add(*ups)
        if kind == "MatMul":
            return lin_matmul(*ups, layer.params.get("transpose_b", False))
        if layer.id not in self.rules and layer.id not in state.caches:
            if not recording:
                raise ValueError(f"state holds no cache for layer '{layer.id}' of this model")
            state.caches[layer.id] = _layer_cache(layer, ups[0].sum(axis=0), state.epsilon)
        rule = self.rules.get(layer.id) or _frozen_rule(layer, state, self.cfg, ups[0].ndim - 1)
        return _push(rule, ups[0], self.cfg.epsilon, self.model.modalities + 1)


def _propagate_layers(
    plan: _Plan,
    layers: list[LayerSpec],
    state: RecordedState,
    runs,
    comp: dict,
    recording: bool = False,
    keep=None,
) -> dict[str, np.ndarray]:
    """Fill comp with the stack of each of layers, in order (see _Plan.step).

    comp must already hold the stacks of every upstream layer outside layers.
    keep=None keeps every stack; otherwise a stack outside keep is dropped
    once its last reader has run (plan.frees), and when recording each
    layer's total is checked before it can be dropped (see _check_finite).
    """
    for layer in layers:
        h = comp[layer.id] = plan.step(layer, [comp[i] for i in layer.inputs], state, runs, recording)
        if keep is not None:
            if recording:
                _check_finite(layer.id, h)
            for lid in plan.frees[layer.id]:
                if lid not in keep:
                    del comp[lid]
    return comp


def _check_finite(lid: str, h: np.ndarray) -> None:
    """Raise DecompositionError if layer lid's total (the sum of its stack h) is not finite."""
    if not np.all(np.isfinite(h.sum(axis=0))):
        raise DecompositionError(f"non-finite activation in layer '{lid}'")


def _splice(
    plan: _Plan, state: RecordedState, take: dict[str, np.ndarray], rest: dict[str, np.ndarray], members, run=0
) -> dict[str, np.ndarray]:
    """The stacks of a run taking the members' rows from run `run` of take and every other row from rest.

    members is a set of modality indices. take may hold J runs (see
    _sweep_runs); an (M+1)-row stack is run 0. In the separable prefix (see
    _Plan) each row of a stack is the same whatever the other rows hold, and
    the bias row is the same in every run, so the frontier stacks are
    spliced row by row and only the suffix is run again. Returns the spliced
    frontier and the suffix stacks; the output is always among them.
    """
    m = plan.model.modalities
    rows = [i in members for i in range(m)] + [False]  # the bias row always comes from rest
    comp = {}
    for lid in plan.frontier:
        keep = np.reshape(rows, (-1,) + (1,) * (rest[lid].ndim - 1))
        # a view of run's M rows and the next row, which keep never takes
        comp[lid] = np.where(keep, take[lid][run * m : run * m + m + 1], rest[lid])
    return _propagate_layers(plan, plan.suffix, state, None, comp)


def _sweep_runs(plan: _Plan, state: RecordedState, runs: list[dict[int, np.ndarray]]) -> dict[str, np.ndarray]:
    """The frontier stacks of several runs under one recorded state, from one sweep of the separable prefix.

    Each stack has J*M+1 rows for the J runs: row j*M+m is run j's modality
    m and the last row is the bias row, which in the prefix is the same in
    every run (see _Plan). Run j's own (M+1)-row stack is its row block plus
    the bias row, which _splice(..., run=j) reads; the suffix is not run.
    """
    return _propagate_layers(plan, plan.prefix, state, runs, {}, keep=plan.frontier)


def _decompose(
    plan: _Plan, inputs: dict[int, np.ndarray], keep=None, state: RecordedState | None = None
) -> tuple[dict[str, np.ndarray], RecordedState]:
    """The stacks in keep (every layer's when None) and the state, recorded in the same sweep unless given.

    When recording, the first non-finite layer in model order raises
    DecompositionError (see decompose); a given state is only read (see
    propagate).
    """
    recording = state is None
    if recording:
        state = RecordedState(dict(inputs), {}, plan.cfg.epsilon)
    elif plan.cfg.epsilon != state.epsilon:
        raise ValueError(f"state was recorded with epsilon {state.epsilon}, config has {plan.cfg.epsilon}")
    comp = _propagate_layers(plan, plan.model.layers, state, [inputs], {}, recording, keep)
    if recording and keep is None:
        # Every stack is still here, so the totals are checked after the
        # sweep: a total formed between two stacks shifts where the allocator
        # places later arrays, and with it how many pages the next calls fault.
        for layer in plan.model.layers:
            _check_finite(layer.id, comp[layer.id])
    return comp, state


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
    comp = _decompose(_Plan(model, cfg or SplitConfig()), inputs, state=state)[0]
    return {lid: DecomposedTensor(h) for lid, h in comp.items()}


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
    comp, state = _decompose(_Plan(model, cfg or SplitConfig()), inputs)
    comp = {lid: DecomposedTensor(h) for lid, h in comp.items()}
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
