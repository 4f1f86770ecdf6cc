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

from .decompose import SplitConfig, _splice, decompose, propagate
from .model import ModelGraph, forward

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
        s = self.base + sum(self.per_modality.values())
        num = float(np.max(np.abs(s - self.total)))
        return num / (1.0 + float(np.max(np.abs(self.total))))

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


def shapley(model: ModelGraph, inputs: dict[int, np.ndarray]) -> Attribution:
    """Exact modality Shapley values of the original (non-linearized) model.

    Enumerates all 2^M coalitions, each a single plain forward pass with the
    absent modalities zeroed. Guarded to M <= 12.
    """
    m = model.modalities
    if m > MAX_MODALITIES:
        raise ValueError(f"{m} modalities would need 2^{m} forwards; guard is {MAX_MODALITIES}")
    zeros = {i: np.zeros(model.input_shape(i)) for i in range(m)}
    values = {}
    for mask in range(1 << m):
        coalition_inputs = {
            i: inputs[i] if mask & (1 << i) else zeros[i] for i in range(m)
        }
        values[mask] = forward(model, coalition_inputs)[model.output]
    phis = _shapley_from_values(values, m)
    full = (1 << m) - 1
    return Attribution(
        base=values[0],
        per_modality=phis,
        n_forwards=1 << m,
        total=values[full],
    )


def hybrid_shapley(
    model: ModelGraph,
    inputs: dict[int, np.ndarray],
    cfg: SplitConfig | None = None,
    method: str = "shapley",
    state=None,
) -> Attribution:
    """Decompose, then redistribute the bias component onto the modalities.

    method='shapley': play the coalition game on the linearized network
    whose value is the bias component produced with modalities outside the
    coalition zeroed; each modality's Shapley share of that bias mass is
    added to its component. The empty-coalition bias is the base, so
    efficiency holds by construction. The game costs two full propagates
    (every modality, none); the other coalitions rerun only the layers past
    the first row-mixing one.

    method='proportional': a simpler reading that splits the bias elementwise
    in proportion to the component magnitudes.

    Passing a RecordedState evaluates the given inputs against that frozen
    linearization instead of recording a fresh one (replacement protocols).
    """
    cfg = cfg or SplitConfig()
    m = model.modalities
    if m > MAX_MODALITIES:
        raise ValueError(f"{m} modalities would need 2^{m} forwards; guard is {MAX_MODALITIES}")
    if state is None:
        res = decompose(model, inputs, cfg)
        state, full = res.state, res.components
    else:
        full = propagate(model, state, inputs, cfg)
    out = full[model.output]
    components = {i: out.modality(i) for i in range(m)}
    h_bias = out.bias
    total = out.total()

    if method == "proportional":
        mags = np.stack([np.abs(components[i]) for i in range(m)])
        denom = mags.sum(axis=0) + cfg.epsilon
        shares = {i: mags[i] / denom * h_bias for i in range(m)}
        base = h_bias - sum(shares.values())
        per = {i: components[i] + shares[i] for i in range(m)}
        return Attribution(base=base, per_modality=per, n_forwards=1, total=total)
    if method != "shapley":
        raise ValueError(f"unknown redistribution method '{method}'")

    zeros = {i: np.zeros(model.input_shape(i)) for i in range(m)}
    empty = propagate(model, state, zeros, cfg)
    everyone = (1 << m) - 1
    bias_values = {0: empty[model.output].bias, everyone: h_bias}
    # A coalition's run takes its members' rows from the full run and the
    # rest from the empty run; _splice reruns only the layers past the
    # row-separable prefix.
    for mask in range(1, everyone):
        members = {i for i in range(m) if mask >> i & 1}
        bias_values[mask] = _splice(model, state, cfg, full, empty, members)[model.output].bias
    phis = _shapley_from_values(bias_values, m)
    per = {i: components[i] + phis[i] for i in range(m)}
    return Attribution(
        base=bias_values[0],
        per_modality=per,
        n_forwards=1 << m,
        total=total,
    )
