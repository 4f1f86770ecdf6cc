"""Perturbation-based separation metrics.

The protocol replaces one modality's input with an uncorrelated sample while
keeping the linearization recorded from the clean inputs, then scores every
modality component against its clean version with Pearson correlation and
mean squared error. A cell like "m0_p/m1" reads: modality m0 perturbed,
component of m1 observed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .decompose import SplitConfig, _decompose, _Plan, _splice, _sweep_runs
from .heatmap import _max_positive
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


def _pearson(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of each row pair over the last axis, and whether it is degenerate.

    a and b broadcast against each other. Degenerate means a constant row,
    whose correlation is undefined and reads 0.0 by convention, or else a
    non-finite spread (a non-finite entry, or one so large that centring
    overflows), which reads nan. Identical rows read exactly 1.0 (numerator
    and squared norms are one float s, and sqrt(s * s) rounds to s).
    """
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"pearson shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[-1] < 2:
        raise ValueError("pearson needs at least two elements")
    constant = np.all(a == a[..., :1], -1) | np.all(b == b[..., :1], -1)
    with np.errstate(all="ignore"):  # degenerate rows overflow or divide by zero
        da = a - a.mean(-1, keepdims=True)
        db = b - b.mean(-1, keepdims=True)
        # the correlation is scale-free: normalize before squaring so that a tiny
        # spread does not underflow into a wrong value
        sa = np.max(np.abs(da), -1, keepdims=True)
        sb = np.max(np.abs(db), -1, keepdims=True)
        da, db = da / sa, db / sb
        r = np.clip((da * db).sum(-1) / np.sqrt((da * da).sum(-1) * (db * db).sum(-1)), -1.0, 1.0)
    finite = np.isfinite(sa[..., 0]) & np.isfinite(sb[..., 0])
    r = np.where(finite, r, np.nan)
    return np.where(constant, 0.0, r), constant | ~finite


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the flattened entries, in [-1, 1].

    A constant input has no defined correlation; by convention the result is
    0.0 there, and nan when an entry or the spread is not finite (use
    pearson_degenerate to detect both cases).
    """
    return float(_pearson(as_tensor(a).ravel(), as_tensor(b).ravel())[0])


def pearson_degenerate(a: np.ndarray, b: np.ndarray) -> bool:
    """True when pearson(a, b) is no correlation: a constant or non-finite input."""
    return bool(_pearson(as_tensor(a).ravel(), as_tensor(b).ravel())[1])


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
    modality; an empty tuple is refused. The sets must be non-empty, name
    each modality at most once and be distinct as sets. positive_parts
    scores max(x, 0)/max instead of raw signed components.
    """

    stride: int | None = None
    offset_count: int = 4
    perturbed: tuple[tuple[int, ...], ...] | None = None
    positive_parts: bool = False

    def __post_init__(self):
        if self.offset_count < 1:
            raise ValueError(f"offset_count must be at least 1, got {self.offset_count}")
        if self.perturbed is not None and not self.perturbed:
            raise ValueError("perturbed names no perturbation set; None means every single modality")
        for i, pset in enumerate(self.perturbed or ()):
            if not pset or len(set(pset)) < len(pset) or set(pset) in map(set, self.perturbed[:i]):
                raise ValueError(f"perturbation set {tuple(pset)} is empty, repeats a modality or repeats a set")

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
        return asdict(self)


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
    Per sample, one stacked sweep of the separable prefix runs all the
    offsets' replacement samples at once (see decompose._sweep_runs); per
    offset, each perturbation set's run is spliced from that offset's run
    of the sweep and the clean run (see decompose._splice), and one stacked
    call scores all the offset's (set, modality) pairs. Degenerate pairs (a
    constant or non-finite map) are counted per cell and excluded from the
    Pearson aggregate rather than silently averaged.
    """
    cfg = cfg or SplitConfig()
    mcfg = mcfg or MetricConfig()
    n = samples.n
    if n < 2:
        raise ValueError("perturbation protocol needs at least two samples")
    stride = mcfg.resolve_stride(n)
    modalities = sorted(model.modality_inputs)
    n_mod = len(modalities)
    perturb_sets = tuple((m,) for m in modalities) if mcfg.perturbed is None else mcfg.perturbed
    for pset in perturb_sets:
        for p in pset:
            if p not in model.modality_inputs:
                raise ValueError(f"unknown modality {p} in perturbation set")
    plan = _Plan(model, cfg)

    def one_sample(k: int) -> tuple[np.ndarray, ...]:
        # the splices read only the frontier stacks, the scores only the clean output
        comp, state = _decompose(plan, samples[k], keep=plan.frontier | {model.output})
        clean_rows = comp[model.output][:-1].reshape(n_mod, -1)  # (M, entries)
        runs = [samples[(k + stride * j) % n] for j in range(1, mcfg.offset_count + 1)]
        replaced = _sweep_runs(plan, state, runs)

        def one_offset(j: int) -> tuple[np.ndarray, ...]:
            # (sets, M) scores of runs[j]: its splices from run j of the stacked sweep and the clean run
            outs = [_splice(plan, state, replaced, comp, p, j)[model.output][:-1] for p in perturb_sets]
            a, b = clean_rows, np.stack(outs).reshape(-1, *clean_rows.shape)
            if mcfg.positive_parts:
                a, b = _max_positive(a, -1), _max_positive(b, -1)
            return (*_pearson(a, b), ((a - b) ** 2).mean(-1))

        return tuple(map(np.stack, zip(*map(one_offset, range(len(runs))))))

    def mean_std(x: np.ndarray) -> tuple[float, float]:
        return (float(x.mean()), float(x.std())) if x.size else (0.0, 0.0)

    # (samples, offsets, sets, M); a cell ravels in (sample, offset) order, which fixes the bits of its sums
    pcc, degenerate, err = map(np.stack, zip(*ordered_map(one_sample, range(n))))
    cells = []
    for s, pset in enumerate(perturb_sets):
        plabel = "".join(f"m{p}_p" for p in pset)
        for o in modalities:
            flags, errs = degenerate[:, :, s, o].ravel(), err[:, :, s, o].ravel()
            pccs = pcc[:, :, s, o].ravel()[~flags]
            cells.append(CellStats(plabel, f"m{o}", *mean_std(pccs), *mean_std(errs), errs.size, int(flags.sum())))
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
    for i, v in enumerate(variants):
        if v in variants[:i]:
            raise ValueError(f"variant {v.label()} is listed twice")
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
