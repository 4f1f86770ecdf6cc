"""Shapley attribution over modalities by exact coalition enumeration.

A coalition is a subset of modalities kept active; absent modalities are
replaced by zero tensors, the same reference point the decomposition uses.
The hybrid variant decomposes first and then runs Shapley only on the bias
component, redistributing that mass onto the modality components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .decompose import SplitConfig, _decompose, _Plan, _residual, _splice, _splice_bias
from .model import ModelGraph, _check_inputs, eval_layer

__all__ = ["Attribution", "shapley", "hybrid_shapley", "MAX_MODALITIES"]

MAX_MODALITIES = 12


@dataclass
class Attribution:
    """Per-modality attribution tensors plus the empty-coalition base value."""

    base: np.ndarray
    per_modality: dict[int, np.ndarray]
    n_forwards: int
    total: np.ndarray

    def efficiency_residual(self) -> float:
        return _residual(self.base + sum(self.per_modality.values()), self.total)

    def to_dict(self) -> dict:
        return {
            "base": self.base.tolist(),
            "attributions": {f"m{m}": v.tolist() for m, v in sorted(self.per_modality.items())},
            "n_forwards": self.n_forwards,
            "efficiency_residual": self.efficiency_residual(),
        }


def _coalition_weights(m: int) -> list[float]:
    # weight of a marginal contribution given |S| present members
    return [factorial(s) * factorial(m - s - 1) / factorial(m) for s in range(m)]


def _shapley_from_values(values: dict[int, np.ndarray], m: int):
    """Exact Shapley values from a full table of coalition outputs.

    values maps a coalition bitmask to its output tensor.
    """
    weights = _coalition_weights(m)
    phis = {}
    for i in range(m):
        phi = np.zeros_like(values[0])
        for mask in range(1 << m):
            if mask & (1 << i):
                continue
            size = bin(mask).count("1")
            phi = phi + weights[size] * (values[mask | (1 << i)] - values[mask])
        phis[i] = phi
    return phis


def _check_size(m: int) -> None:
    if m > MAX_MODALITIES:
        raise ValueError(f"{m} modalities would need 2^{m} forwards; guard is {MAX_MODALITIES}")


def _game(m: int, value):
    """Every coalition's value and each modality's exact Shapley value.

    value maps a set of member modalities to the coalition's output tensor;
    it is called once for each of the 2^m coalitions, empty and full included.
    """
    values = {mask: value({i for i in range(m) if mask >> i & 1}) for mask in range(1 << m)}
    return values, _shapley_from_values(values, m)


def shapley(model: ModelGraph, inputs: dict[int, np.ndarray]) -> Attribution:
    """Exact modality Shapley values of the original (non-linearized) model.

    Enumerates all 2^M coalitions, each a plain forward pass with the absent
    modalities zeroed. A layer that sees only some modalities (see
    ModelGraph.support) has one value per distinct set of members among
    them. Where a layer that sees every modality (or the output) reads it,
    that value is kept and shared by every coalition that agrees on the set;
    the layers upstream of it run only while one of those kept values is
    missing. Every other layer is evaluated per coalition and dropped after
    its last reader. n_forwards counts the coalitions. Guarded to M <= 12.
    """
    _check_size(model.modalities)
    _check_inputs(model, inputs)
    m = model.modalities
    zeros = {i: np.zeros(model.input_shape(i)) for i in range(m)}
    support = {lid: seen for lid, (seen, _) in model.support.items()}
    partial = {lid for lid, seen in support.items() if len(seen) < m}
    # the partial layers whose values are kept: those that a full-support layer or the output reads
    kept = partial & {model.output}.union(*(layer.inputs for layer in model.layers if layer.id not in partial))
    feeds = {lid: {lid} & kept for lid in partial}  # the kept layers that lid reaches through partial layers
    for layer in reversed(model.layers):
        if layer.id in partial:
            for i in layer.inputs:
                feeds[i] |= feeds[layer.id]
    shared = {}  # (kept layer id, the members it sees) -> activation
    last = {i: layer.id for layer in model.layers for i in layer.inputs}
    last.pop(model.output, None)  # the output is returned, not dropped
    # frees[lid]: the values a coalition drops once lid has run, its inputs that no later layer reads
    frees = {layer.id: [i for i in dict.fromkeys(layer.inputs) if last.get(i) == layer.id] for layer in model.layers}

    def value(members):
        coalition = {i: inputs[i] if i in members else zeros[i] for i in range(m)}
        acts = {}
        for layer in model.layers:
            key = (layer.id, support[layer.id] & members)
            if key in shared:
                acts[layer.id] = shared[key]
            elif layer.id not in partial or any((k, support[k] & members) not in shared for k in feeds[layer.id]):
                acts[layer.id] = eval_layer(layer, [acts[i] for i in layer.inputs], coalition)
                if layer.id in kept:
                    shared[key] = acts[layer.id]
            for i in frees[layer.id]:
                acts.pop(i, None)  # a partial layer that did not run has no value
        return acts[model.output]

    values, phis = _game(m, value)
    return Attribution(base=values[0], per_modality=phis, n_forwards=1 << m, total=values[(1 << m) - 1])


def hybrid_shapley(
    model: ModelGraph,
    inputs: dict[int, np.ndarray],
    cfg: SplitConfig | None = None,
    method: str = "shapley",
    state=None,
) -> Attribution:
    """Decompose, then redistribute the bias component onto the modalities.

    method='shapley': play the coalition game on the linearized network whose
    value is the bias component produced with modalities outside the coalition
    zeroed; each modality's Shapley share of that bias mass is added to its
    component. The empty-coalition bias is the base, so efficiency holds by
    construction. The game costs the decomposition's own sweep, which keeps
    only the stacks that the layers past the first row-mixing one read or
    form. A coalition's modality rows there are the full run's for its
    members and the empty run's for the others. The empty run's are zero, so
    it is not built, unless a 'uniform' bn_rule or ln_rule spreads a constant
    onto them; it is then one more whole sweep, of the zero input under the
    state. Unless one of those layers re-routes bias mass (an act_rule),
    every coalition, empty and full included, pushes only its bias row
    through them (see decompose._splice_bias); under an act_rule each
    coalition reruns them whole.

    method='proportional': a simpler reading that splits the bias elementwise
    in proportion to the component magnitudes; its sweep keeps the output alone.

    Passing a RecordedState evaluates the given inputs against that frozen
    linearization instead of recording a fresh one, as when a replaced
    sample is scored under the clean sample's state (see demo 04).
    """
    _check_size(model.modalities)
    cfg = cfg or SplitConfig()
    m = model.modalities
    if method not in ("shapley", "proportional"):
        raise ValueError(f"unknown redistribution method '{method}'")
    plan = _Plan(model, cfg)
    keep = {model.output} if method == "proportional" else plan.frontier.union(layer.id for layer in plan.suffix)
    full, state = _decompose(plan, [inputs], state=state, keep=keep)
    out = full[model.output]
    h_bias, total = out[-1], out.sum(axis=0)

    if method == "proportional":
        mags = np.abs(out[:-1])
        denom = mags.sum(axis=0) + cfg.epsilon
        shares = {i: mags[i] / denom * h_bias for i in range(m)}
        base = h_bias - sum(shares.values())
        per = {i: out[i] + shares[i] for i in range(m)}
        return Attribution(base=base, per_modality=per, n_forwards=1, total=total)

    empty = None  # zero modality rows and the full run's bias row (see decompose._splice)
    if "uniform" in (cfg.bn_rule, cfg.ln_rule):  # the same stacks as the full run's
        empty = _decompose(plan, [{i: np.zeros(model.input_shape(i)) for i in range(m)}], full.keys(), state)[0]
    if plan.reroutes:
        bias_values, phis = _game(m, lambda members: _splice(plan, state, full, empty, members)[model.output][-1])
    else:
        bias_values, phis = _game(m, lambda members: _splice_bias(plan, state, full, empty, members))
    per = {i: out[i] + phis[i] for i in range(m)}
    return Attribution(base=bias_values[0], per_modality=per, n_forwards=1 << m, total=total)
