"""Perturbation-based separation metrics.

The protocol replaces one modality's input with an uncorrelated sample while
keeping the linearization recorded from the clean inputs, then scores every
modality component against its clean version with Pearson correlation and
mean squared error. A cell like "m0_p/m1" reads: modality m0 perturbed,
component of m1 observed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .decompose import SplitConfig, decompose, propagate
from .heatmap import normalize_map
from .model import ModelGraph
from .parallel import ordered_map
from .synth import SampleSet
from .tensor import as_tensor

__all__ = [
    "pearson",
    "pearson_degenerate",
    "mse",
    "MetricConfig",
    "CellStats",
    "SeparationReport",
    "perturbation_protocol",
    "variant_matrix",
    "report_to_json",
    "format_table",
]


def _pearson(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Pearson correlation of the flattened entries and whether it is degenerate.

    Degenerate means a constant argument, whose correlation is undefined and
    reads 0.0 by convention, or a non-finite spread (a non-finite entry, or
    one so large that centring overflows), which reads nan.
    """
    a = as_tensor(a).ravel()
    b = as_tensor(b).ravel()
    if a.shape != b.shape:
        raise ValueError(f"pearson shape mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("pearson needs at least two elements")
    if np.all(a == a[0]) or np.all(b == b[0]):
        return 0.0, True
    with np.errstate(over="ignore", invalid="ignore"):
        da = a - a.mean()
        db = b - b.mean()
    # the correlation is scale-free: normalize before squaring so that a tiny
    # spread does not underflow into a wrong value
    sa, sb = np.max(np.abs(da)), np.max(np.abs(db))
    if not (np.isfinite(sa) and np.isfinite(sb)):
        return float("nan"), True
    da, db = da / sa, db / sb
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if np.array_equal(a, b):
        # identical inputs correlate exactly; do not let sqrt rounding shave an ulp
        return 1.0, False
    return float(np.clip((da * db).sum() / denom, -1.0, 1.0)), False


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the flattened entries, in [-1, 1].

    A constant input has no defined correlation; by convention the result is
    0.0 there, and nan when an entry or the spread is not finite (use
    pearson_degenerate to detect both cases).
    """
    return _pearson(a, b)[0]


def pearson_degenerate(a: np.ndarray, b: np.ndarray) -> bool:
    """True when pearson(a, b) is no correlation: a constant or non-finite input."""
    return _pearson(a, b)[1]


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of squared elementwise differences."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float((d * d).mean())


@dataclass(frozen=True)
class MetricConfig:
    """Offset sampling for the replacement protocol.

    Sample k is compared against samples k + stride*j (mod N) for
    j = 1..offset_count. stride=None picks max(1, N // 12). perturbed names
    the modality sets to replace, one at a time; None means every single
    modality. positive_parts scores max(x, 0)/max instead of raw signed
    components.
    """

    stride: int | None = None
    offset_count: int = 4
    perturbed: tuple[tuple[int, ...], ...] | None = None
    positive_parts: bool = False

    def resolve_stride(self, n: int) -> int:
        s = self.stride if self.stride is not None else max(1, n // 12)
        if s < 1:
            raise ValueError(f"stride must be positive, got {s}")
        for j in range(1, self.offset_count + 1):
            if (s * j) % n == 0:
                raise ValueError(
                    f"offset {j} maps sample onto itself (stride {s}, {n} samples)"
                )
        return s


@dataclass
class CellStats:
    perturbed: str
    observed: str
    pcc_mean: float
    pcc_std: float
    mse_mean: float
    mse_std: float
    n: int
    n_degenerate: int

    def to_dict(self) -> dict:
        return {
            "perturbed": self.perturbed,
            "observed": self.observed,
            "pcc_mean": self.pcc_mean,
            "pcc_std": self.pcc_std,
            "mse_mean": self.mse_mean,
            "mse_std": self.mse_std,
            "n": self.n,
            "n_degenerate": self.n_degenerate,
        }


@dataclass
class SeparationReport:
    variant: str
    cells: list[CellStats]
    n_samples: int
    offset_count: int
    stride: int

    def cell(self, perturbed: str, observed: str) -> CellStats:
        for c in self.cells:
            if c.perturbed == perturbed and c.observed == observed:
                return c
        raise KeyError(f"no cell {perturbed}/{observed}")

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_samples": self.n_samples,
            "offset_count": self.offset_count,
            "stride": self.stride,
            "cells": [c.to_dict() for c in self.cells],
        }


def perturbation_protocol(
    model: ModelGraph,
    samples: SampleSet,
    cfg: SplitConfig | None = None,
    mcfg: MetricConfig | None = None,
) -> SeparationReport:
    """Run the modality-replacement protocol over a sample set.

    For each sample the linearization is recorded once from the clean inputs
    and reused for every replacement, so an unperturbed modality's component
    is reproduced bit for bit when the splitting rules do not mix components.
    Degenerate (zero-variance) correlation pairs are counted per cell and
    excluded from the Pearson aggregate rather than silently averaged.
    """
    cfg = cfg or SplitConfig()
    mcfg = mcfg or MetricConfig()
    n = samples.n
    if n < 2:
        raise ValueError("perturbation protocol needs at least two samples")
    stride = mcfg.resolve_stride(n)
    modalities = sorted(model.modality_inputs)
    perturb_sets = mcfg.perturbed or tuple((m,) for m in modalities)
    for pset in perturb_sets:
        for p in pset:
            if p not in model.modality_inputs:
                raise ValueError(f"unknown modality {p} in perturbation set")

    def one_sample(k: int):
        inputs = samples[k]
        res = decompose(model, inputs, cfg)
        state, clean = res.state, res.output
        del res  # the clean run's other stacks are not needed past this point
        rows = []
        for pset in perturb_sets:
            for j in range(1, mcfg.offset_count + 1):
                src = samples[(k + stride * j) % n]
                pert_inputs = dict(inputs)
                for p in pset:
                    pert_inputs[p] = src[p]
                pert = propagate(model, state, pert_inputs, cfg)[model.output]
                for o in modalities:
                    a, b = clean.modality(o), pert.modality(o)
                    if mcfg.positive_parts:
                        a, b = normalize_map(a, "max-positive"), normalize_map(b, "max-positive")
                    rows.append((pset, o, *_pearson(a, b), mse(a, b)))
        return rows

    all_rows = [row for rows in ordered_map(one_sample, range(n)) for row in rows]

    cells = []
    for pset in perturb_sets:
        plabel = "".join(f"m{p}_p" for p in pset)
        for o in modalities:
            sel = [r for r in all_rows if r[0] == pset and r[1] == o]
            pccs = np.array([r[2] for r in sel if not r[3]])
            mses = np.array([r[4] for r in sel])
            n_deg = sum(1 for r in sel if r[3])
            cells.append(
                CellStats(
                    perturbed=plabel,
                    observed=f"m{o}",
                    pcc_mean=float(pccs.mean()) if pccs.size else 0.0,
                    pcc_std=float(pccs.std()) if pccs.size else 0.0,
                    mse_mean=float(mses.mean()),
                    mse_std=float(mses.std()),
                    n=len(sel),
                    n_degenerate=n_deg,
                )
            )
    return SeparationReport(cfg.label(), cells, n, mcfg.offset_count, stride)


def variant_matrix(
    model: ModelGraph,
    samples: SampleSet,
    variants: list[SplitConfig],
    mcfg: MetricConfig | None = None,
) -> list[SeparationReport]:
    """One SeparationReport per variant over identical samples and offsets."""
    if not variants:
        raise ValueError("variant list is empty")
    return [perturbation_protocol(model, samples, v, mcfg) for v in variants]


def report_to_json(reports: list[SeparationReport]) -> bytes:
    doc = {"version": 1, "reports": [r.to_dict() for r in reports]}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def format_table(reports: list[SeparationReport]) -> str:
    """Aligned plain-text table, one block per variant."""
    lines = []
    for rep in reports:
        lines.append(
            f"variant {rep.variant}  (samples={rep.n_samples}, "
            f"offsets={rep.offset_count}, stride={rep.stride})"
        )
        header = f"{'cell':<16}{'pcc':>18}{'mse':>22}{'n':>7}{'degen':>7}"
        lines.append(header)
        for c in rep.cells:
            cell = f"{c.perturbed}/{c.observed}"
            pcc = f"{c.pcc_mean:.4f} ± {c.pcc_std:.4f}"
            err = f"{c.mse_mean:.6f} ± {c.mse_std:.6f}"
            lines.append(f"{cell:<16}{pcc:>18}{err:>22}{c.n:>7}{c.n_degenerate:>7}")
        lines.append("")
    return "\n".join(lines)
