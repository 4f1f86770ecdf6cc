"""Exact per-modality decomposition of a fusion network's prediction.

The engine pushes a stack of components (one per modality plus a trailing
bias component) through the frozen linear surrogate of each layer in one
sweep. Where a layer first needs recorded values, the sweep records them from
the sum of its input stack, which is the layer's input activation: the chord
ratio (output over input) of every activation and softmax layer, and the
input statistics of every LayerNorm/InstanceNorm.

Every single-input layer freezes into one rule (see _frozen_rule): a
homogeneous linear map applied to the whole stack, a recorded constant, and
a routing (_routing) that sends the constant to the bias component
('identity'), spreads it over all components ('uniform'), or, for ReLU/GELU
under an act_rule ('sum' or 'ratio'), sends it to the bias component and
then moves that row's output mass to the two modalities. One plan per call
(_Plan) binds the Dense, Conv2d and BatchNorm rules and the splice frontier;
its per-layer step, the one place a stack is formed, binds activation and
norm rules from the state's cache. Fusion and structural layers
(concatenation, residual add, bilinear matmul) act on the stack directly,
with the component axis as a batch axis. Stacks are raw (M+1, *map) arrays
inside; DecomposedTensor wraps what the public functions return. At every
layer the components sum to the layer's activation.

Upstream of the first row-mixing rule or 'uniform' constant, a stack can be
non-zero only in the rows of the modalities that reach its layer, and in the
bias row once a constant or a non-linear layer lies upstream (the model's
support table, which the plan reads). A Dense or Conv2d rule on such a stack
runs its map on those rows alone and leaves the others zero.

A modality row reads only its own rows unless a suffix layer re-routes (a
ReLU/GELU under an act_rule): every other frozen rule maps each row alone,
and only the bias row takes the cross-modality terms of a MatMul. So a run
that splices rows of two reference runs has their modality rows, and only
its bias row needs pushing (_splice_bias). A zero row then stays zero, so a
reference run whose modality rows are all zero is not built (rest=None).

A sweep under a given state can carry J runs in a (J*M+1, *map) stack, row
j*M+m holding run j's modality m and the last row a shared bias row, when
no layer re-routes. Every frozen rule maps a modality row from that row
alone, lin_matmul forms a[m] @ b[m] row by row, and a 'uniform' constant is
split M+1 ways whatever the row count, so row j*M+m is run j's modality m at
every layer. The bias row is each run's own up to the frontier; past the
first MatMul it belongs to no run, and nothing reads it. The plan's liveness
table lets a sweep drop each stack after its last reader unless the caller
keeps it: record keeps none, the CLI's decompose and the protocol keep the
output (the CLI taking each layer's equality residual inside the sweep,
against a forward evaluated alongside it), and decompose and propagate keep
every layer's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    LayerSpec,
    ModelGraph,
    channel_shape,
    dense_apply,
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
    c = pre + eps
    with np.errstate(divide="ignore", invalid="ignore"):  # the guarded entries are zeroed below
        np.divide(out, c, out=c)
    c[~safe] = 0.0
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
    return _decompose(_Plan(model, cfg or SplitConfig()), [inputs], keep=frozenset())[1]


# --- frozen per-layer rules on component stacks ---------------------------


def _input_stack(xs: list[np.ndarray], modality: int, num_modalities: int) -> np.ndarray:
    """An input layer's stack over J runs: row j*M+modality holds xs[j], every other row is zero."""
    h = np.zeros((len(xs) * num_modalities + 1,) + xs[0].shape)
    h[modality:-1:num_modalities] = xs
    return h


def _routing(kind: str, cfg: SplitConfig | None) -> str:
    """Where kind's rule sends its constant under cfg (see _push); cfg may be None for Dense, Conv2d and Softmax."""
    if kind == "BatchNorm":
        return cfg.bn_rule
    if kind in ("LayerNorm", "InstanceNorm") and cfg.ln_rule != "ratio":
        return cfg.ln_rule
    if kind in ("ReLU", "GELU") and cfg.act_rule != "none":
        return cfg.act_rule
    return "identity"


def _frozen_rule(layer: LayerSpec, state: RecordedState | None, cfg: SplitConfig | None, nd: int):
    """The frozen surrogate of a single-input layer on rank-nd activations.

    Returns (map, const, routing). map is the homogeneous linear map on an
    (S, ...) component stack, const the recorded constant, and routing
    (_routing) says whether const goes to the bias component ('identity') or
    is spread equally over all of them ('uniform'). A ReLU/GELU under an
    act_rule routes by that rule's name ('sum' or 'ratio'): const goes to the
    bias component, whose output mass _reroute then moves to the modalities.
    """
    kind, p = layer.kind, layer.params
    routing = _routing(kind, cfg)
    if kind == "Dense":
        return (lambda s: dense_apply(p["weight"], s)), channel_shape(p["bias"], nd), routing
    if kind == "Conv2d":
        conv = lambda s: conv2d(s, p["weight"], None, p["stride"], p["padding"])  # noqa: E731
        return conv, channel_shape(p["bias"], nd), routing
    if kind in _ACTIVATION_KINDS:
        cache = state.caches[layer.id]
        return (lambda s: s * cache["ratio"]), cache["residual"], routing
    if kind == "BatchNorm":
        scale = channel_shape(p["gamma"] / np.sqrt(p["var"] + p["eps"]), nd)
        const = channel_shape(p["beta"], nd) - channel_shape(p["mean"], nd) * scale
        return (lambda s: s * scale), const, routing
    if kind in ("LayerNorm", "InstanceNorm"):
        cache = state.caches[layer.id]
        gamma, beta = norm_affine(layer, nd)
        scale = gamma / np.sqrt(cache["var"] + p["eps"])
        if cfg.ln_rule == "ratio":
            # live mean: every component is centered by its own mean
            axes = tuple(ax + 1 for ax in norm_axes(layer, nd))
            return (lambda s: (s - s.mean(axis=axes, keepdims=True)) * scale), beta, routing
        return (lambda s: s * scale), beta - cache["mean"] * scale, routing
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
    total = matmul_pair(_rowsum(a), _rowsum(b), transpose_b)
    right = np.swapaxes(b[:-1], -1, -2) if transpose_b else b[:-1]
    mods = np.matmul(a[:-1], right)
    return np.concatenate([mods, (total - _rowsum(mods))[None]])


def _rowsum(rows) -> np.ndarray:
    """The sum of rows (a stack or a list of equal-shape arrays), added in order onto +0.0.

    This is how numpy sums a stack of maps of two or more entries over axis
    0, and a sum over rows gathered from several stacks keeps the bits of the
    same rows summed as one stack.
    """
    total = rows[0] + 0.0  # +0.0 first, so that a sum of -0.0 rows reads +0.0
    for row in rows[1:]:
        total += row
    return total


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
    - suffix, the layers past the row-separable prefix, in model order.
      Every frozen rule computes component r of its output from component r
      of its inputs, except MatMul (cross terms go to bias) and a rule whose
      routing ('sum' or 'ratio', see _routing) re-routes bias mass; a layer is
      separable when its rule is not one of these and all of its inputs are
      separable. Up to the first row-mixing layer, each row of a stack is
      therefore the same whatever the other rows hold;
    - frontier, the separable stacks that the suffix reads, plus a separable
      output;
    - reroutes, whether a suffix layer moves bias mass into the modality
      rows (a ReLU/GELU under an act_rule); unless one does, the suffix too
      computes each modality row from that row alone (see _splice_bias);
    - frees, the liveness table: frees[lid] lists the stacks whose last
      reader is layer lid, and a layer nothing reads frees its own;
    - partial, the row-support table: lid's model.support entry (its
      modalities, and whether its bias row is live) for each stack that no
      row-mixing rule or 'uniform' routing reaches and that misses a row;
      only those rows of it can be non-zero, and a Dense or Conv2d rule
      reading it maps only them (see _live_rows).

    decompose, propagate, perturbation_protocol and hybrid_shapley build one
    per call and pass it to every sweep and splice they run.
    """

    def __init__(self, model: ModelGraph, cfg: SplitConfig):
        if cfg.act_rule != "none" and model.modalities != 2:
            raise ValueError(
                f"act_rule '{cfg.act_rule}' is defined for exactly two modalities, model has {model.modalities}"
            )
        self.model, self.cfg = model, cfg
        self.rules, self.suffix, self.frontier = {}, [], set()
        self.reroutes, self.partial, self._rows = False, {}, {}
        rank, separable, last_reader = {}, set(), {}
        every_row = (frozenset(range(model.modalities)), True)
        for layer in model.layers:
            # every kind keeps the rank of its first input
            rank[layer.id] = len(layer.params["shape"]) if layer.kind == "Input" else rank[layer.inputs[0]]
            if layer.kind in _STATIC_KINDS:
                self.rules[layer.id] = _frozen_rule(layer, None, cfg, rank[layer.id])
            routing = _routing(layer.kind, cfg)
            self.reroutes |= routing in ("sum", "ratio")
            mixing = layer.kind == "MatMul" or routing in ("sum", "ratio")
            if not mixing and separable.issuperset(layer.inputs):
                separable.add(layer.id)
            else:
                self.suffix.append(layer)
                self.frontier.update(separable.intersection(layer.inputs))
            support = model.support[layer.id]
            partial = support != every_row and all(i in self.partial for i in layer.inputs)
            if partial and not mixing and routing != "uniform":
                self.partial[layer.id] = support
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
        if kind in ("Dense", "Conv2d") and layer.inputs[0] in self.partial:
            # the map runs only on the rows that can be non-zero; the others stay zero, as the map of a zero row is
            fmap, const, _ = rule
            h, rows = ups[0], self._live_rows(layer.inputs[0], len(ups[0]))
            live = fmap(h[rows])
            out = np.zeros((len(h),) + live.shape[1:])
            out[rows] = live
            out[-1] += const
            return out
        return _push(rule, ups[0], self.cfg.epsilon, self.model.modalities + 1)

    def _live_rows(self, lid: str, height: int):
        """The rows of lid's height-row stack that can be non-zero (see partial), computed once per height.

        They are row j*M+m of each run j for every modality m in lid's support,
        and the bias row when lid carries a constant; a slice where they are
        evenly spaced, so that reading them makes no copy. Threads sharing the
        plan may both fill an entry, with the same value.
        """
        if (lid, height) not in self._rows:
            mods, constant = self.partial[lid]
            m = self.model.modalities
            rows = [j * m + i for j in range((height - 1) // m) for i in sorted(mods)]
            rows += [height - 1] if constant else []
            step = rows[1] - rows[0] if len(rows) > 1 else 1
            even = rows == list(range(rows[0], rows[-1] + 1, step))
            self._rows[lid, height] = slice(rows[0], rows[-1] + 1, step) if even else np.array(rows)
        return self._rows[lid, height]


def _propagate_layers(
    plan: _Plan,
    layers: list[LayerSpec],
    state: RecordedState,
    runs,
    comp: dict,
    recording: bool = False,
    keep=None,
    observe=None,
) -> dict[str, np.ndarray]:
    """Fill comp with the stack of each of layers, in order (see _Plan.step).

    comp must already hold the stacks of every upstream layer outside layers.
    keep=None keeps every stack; otherwise a stack outside keep is dropped
    once its last reader has run (plan.frees), and when recording each
    layer's total is checked, then handed to observe, before it can be
    dropped (see _check_finite).
    """
    for layer in layers:
        h = comp[layer.id] = plan.step(layer, [comp[i] for i in layer.inputs], state, runs, recording)
        if keep is not None:
            if recording:
                _check_finite(layer, h, observe)
            for lid in plan.frees[layer.id]:
                if lid not in keep:
                    del comp[lid]
    return comp


def _check_finite(layer: LayerSpec, h: np.ndarray, observe=None) -> None:
    """Raise DecompositionError if layer's total (the sum of its stack h) is not finite; else observe(layer, total)."""
    total = h.sum(axis=0)
    if not np.isfinite(total).all():
        raise DecompositionError(f"non-finite activation in layer '{layer.id}'")
    if observe is not None:
        observe(layer, total)


def _splice(
    plan: _Plan, state: RecordedState, take: dict[str, np.ndarray], rest: dict[str, np.ndarray] | None, members
) -> dict[str, np.ndarray]:
    """The stacks of a run taking the members' rows from take and every other row from rest.

    take and rest hold the frontier stacks of two (M+1)-row runs, and
    members is a set of modality indices; rest=None stands for a run whose
    modality rows are +0.0 and whose bias row is take's. In the separable
    prefix (see _Plan) each row of a stack is the same whatever the other
    rows hold, and the bias row is the same in every run, so the frontier
    stacks are spliced row by row and only the suffix is run again. Returns
    the spliced frontier and the suffix stacks; the output is among them.
    """
    rows = [i in members for i in range(plan.model.modalities)] + [rest is None]  # take's bias row only under rest=None
    comp = {}
    for lid in plan.frontier:
        keep = np.reshape(rows, (-1,) + (1,) * (take[lid].ndim - 1))
        comp[lid] = np.where(keep, take[lid], 0.0 if rest is None else rest[lid])
    return _propagate_layers(plan, plan.suffix, state, None, comp)


def _splice_bias(
    plan: _Plan, state: RecordedState, take: dict[str, np.ndarray], rest: dict[str, np.ndarray] | None, members
) -> np.ndarray:
    """The output's bias row of _splice(plan, state, take, rest, members), pushing only bias rows.

    take and rest hold the frontier and suffix stacks of two (M+1)-row runs,
    and the suffix must not re-route (plan.reroutes). Row m of every spliced
    stack is then take's for a member and rest's for any other, so each
    suffix layer gets the bias row alone, as a 1-row stack, from
    _Plan.step. A MatMul's bias row is the product of its spliced operands'
    row sums less the sum of the spliced product rows, summed as lin_matmul
    sums them (_rowsum), so its bits are kept. Under rest=None (see _splice)
    the zero rows are left out of those sums, which keeps the bits as well:
    _rowsum's partial sum is never -0.0, so adding a zero row changes none.
    """
    src = [(m, run) for m in range(plan.model.modalities) if (run := take if m in members else rest) is not None]
    bias = {lid: (take if rest is None else rest)[lid][-1:] for lid in plan.frontier}
    for layer in plan.suffix:
        if layer.kind != "MatMul":
            bias[layer.id] = plan.step(layer, [bias[i] for i in layer.inputs], state, None, False)
            continue
        a, b = ([*(run[i][m] for m, run in src), bias[i][0]] for i in layer.inputs)
        total = matmul_pair(_rowsum(a), _rowsum(b), layer.params.get("transpose_b", False))
        rows = [run[layer.id][m] for m, run in src]
        bias[layer.id] = (total - _rowsum(rows) if rows else total)[None]
    return bias[plan.model.output][0]


def _decompose(
    plan: _Plan, runs: list[dict[int, np.ndarray]], keep=None, state: RecordedState | None = None, observe=None
) -> tuple[dict[str, np.ndarray], RecordedState]:
    """The stacks in keep (every layer's when None) of the J runs, and the state, recorded unless given.

    More than one run needs a given state and a plan that re-routes nothing;
    each stack then has J*M+1 rows, row j*M+m run j's modality m (see the
    module docstring). When recording, the first non-finite layer in model
    order raises DecompositionError (see decompose); a given state is only
    read (see propagate). A recording sweep with a keep set calls
    observe(layer, total) with each layer's checked total, in model order.
    """
    recording = state is None
    if len(runs) > 1 and (recording or plan.reroutes):
        raise ValueError("a sweep of several runs needs a given state and no layer that re-routes bias mass")
    if recording:
        state = RecordedState(dict(runs[0]), {}, plan.cfg.epsilon)
    elif plan.cfg.epsilon != state.epsilon:
        raise ValueError(f"state was recorded with epsilon {state.epsilon}, config has {plan.cfg.epsilon}")
    comp = _propagate_layers(plan, plan.model.layers, state, runs, {}, recording, keep, observe)
    if recording and keep is None:
        # Every stack is still here, so the totals are checked after the
        # sweep: a total formed between two stacks shifts where the allocator
        # places later arrays, and with it how many pages the next calls fault.
        for layer in plan.model.layers:
            _check_finite(layer, comp[layer.id])
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
    comp = _decompose(_Plan(model, cfg or SplitConfig()), [inputs], state=state)[0]
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
    comp, state = _decompose(_Plan(model, cfg or SplitConfig()), [inputs])
    comp = {lid: DecomposedTensor(h) for lid, h in comp.items()}
    return DecompositionResult(comp, comp[model.output], state)


def equality_residuals(
    model: ModelGraph,
    components: dict[str, DecomposedTensor],
    state: RecordedState,
) -> dict[str, float]:
    """Per-layer relative residual between component sums and forward at state.inputs."""
    acts = forward(model, state.inputs)
    return {layer.id: _residual(components[layer.id].total(), acts[layer.id]) for layer in model.layers}


def _residual(total: np.ndarray, ref: np.ndarray) -> float:
    """A layer's relative equality residual: max |total - ref| over 1 + max |ref|."""
    num = float(np.max(np.abs(total - ref))) if total.size else 0.0
    return num / (1.0 + float(np.max(np.abs(ref))))


def _output_and_residuals(
    model: ModelGraph, inputs: dict[int, np.ndarray], cfg: SplitConfig
) -> tuple[DecomposedTensor, dict[str, float]]:
    """decompose's output and equality_residuals' values from one sweep that keeps only the output stack.

    Each layer's reference activation is evaluated alongside the sweep from
    the reference activations of its inputs, compared with the layer's total
    as soon as the sweep forms it, and dropped after its last reader.
    """
    plan = _Plan(model, cfg)
    acts, residuals = {}, {}

    def observe(layer, total):
        acts[layer.id] = eval_layer(layer, [acts[i] for i in layer.inputs], inputs)
        residuals[layer.id] = _residual(total, acts[layer.id])
        for lid in plan.frees[layer.id]:
            del acts[lid]

    comp = _decompose(plan, [inputs], keep={model.output}, observe=observe)[0]
    return DecomposedTensor(comp[model.output]), residuals
