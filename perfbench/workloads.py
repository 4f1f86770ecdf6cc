"""The benchmark's four workloads, each one closed-loop op on generated inputs.

Every workload builds its model and samples from the run's seed, so the same
seed gives the same inputs, and the library sees only those inputs. Each op's
result passes through the workload's gate; a gate returns None when the op is
correct and a message when it is not. Thresholds come from the library's own
constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import modaldecomp as md

# the submodule, so that the traced run's wrapper of cli.main is the one called
md_cli = importlib.import_module("modaldecomp.cli")


@dataclass
class Context:
    """What one set-up produces: the model, the samples the ops rotate through,
    and per-op notes the gates collect for the traced run."""

    model: md.ModelGraph
    inputs: list[dict]
    samples: md.SampleSet | None = None
    files: dict[str, Path] = field(default_factory=dict)
    reports: dict[int, str] = field(default_factory=dict)
    notes: dict[str, list[float]] = field(default_factory=dict)

    def note(self, name: str, value: float) -> None:
        self.notes.setdefault(name, []).append(value)

    def forward_and_decompose(self, k: int) -> tuple[float, float]:
        """Seconds of one plain forward and of one decompose, both of sample k."""
        inputs = self.inputs[k % len(self.inputs)]
        t0 = time.perf_counter()
        md.forward(self.model, inputs)
        t1 = time.perf_counter()
        md.decompose(self.model, inputs)
        return t1 - t0, time.perf_counter() - t1


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path, bool], Context]
    op: Callable[[Context, int], object]
    gate: Callable[[Context, int, object], str | None]


def _sample(ctx: Context, k: int) -> dict:
    return ctx.inputs[k % len(ctx.inputs)]


# --- decompose-g128 --------------------------------------------------------
# The largest maps: conv2d does real FLOP and bandwidth work on (M+1)-stacks
# and every layer's stack stays alive, so a faster conv kernel and stack
# liveness both show here, while per-call overhead is negligible.


def _decompose_setup(seed: int, workdir: Path, smoke: bool) -> Context:
    spec = md.GenSpec(grid=16 if smoke else 128, channels=4 if smoke else 16, depth=3, modalities=2)
    model = md.gen_synthetic_model(seed, spec)
    return Context(model, md.gen_sample_set(seed, model, 4).samples)


def _decompose_op(ctx: Context, k: int):
    return md.decompose(ctx.model, _sample(ctx, k))


def _decompose_gate(ctx: Context, k: int, res) -> str | None:
    residuals = md.equality_residuals(ctx.model, res.components, res.state)
    worst = max(residuals, key=residuals.get)
    if residuals[worst] <= md.EQUALITY_TOL:
        return None
    return f"equality residual {residuals[worst]:.3e} in layer '{worst}'"


# --- protocol-g8 -----------------------------------------------------------
# On 8x8 maps every call is bound by overhead, and one recorded state serves
# 12 replacements: scenario batching shows here, a FLOP-efficient conv little.


def _protocol_setup(seed: int, workdir: Path, smoke: bool) -> Context:
    spec = md.GenSpec(grid=8, channels=2 if smoke else 4, depth=3, modalities=3)
    model = md.gen_synthetic_model(seed, spec)
    samples = md.gen_sample_set(seed, model, 6)
    return Context(model, samples.samples, samples=samples)


def _protocol_op(ctx: Context, k: int):
    return md.perturbation_protocol(ctx.model, ctx.samples)


def _protocol_gate(ctx: Context, k: int, report) -> str | None:
    # criterion 2: a modality that was not replaced keeps its component bit for bit
    ctx.note("metrics.degenerate_pairs", sum(c.n_degenerate for c in report.cells))
    for c in report.cells:
        perturbed = {int(m) for m in re.findall(r"m(\d+)_p", c.perturbed)}
        if int(c.observed[1:]) in perturbed:
            continue
        if c.pcc_mean != 1.0 or c.mse_mean != 0.0:
            return (
                f"unperturbed cell {c.perturbed}/{c.observed} has "
                f"pcc {c.pcc_mean!r}, mse {c.mse_mean!r}"
            )
    return None


# --- attribution-m4 --------------------------------------------------------
# The only workload with the MatMul and Softmax rules and the shapley layer,
# and the widest component axis: changes that scale with M+1 or 2^M show here.


def _attribution_setup(seed: int, workdir: Path, smoke: bool) -> Context:
    spec = (
        md.GenSpec(modalities=4, grid=8, channels=4, include_attention=True)
        if smoke
        else md.GenSpec(modalities=4, include_attention=True)
    )
    model = md.gen_synthetic_model(seed, spec)
    return Context(model, md.gen_sample_set(seed, model, 4).samples)


def _attribution_op(ctx: Context, k: int):
    inputs = _sample(ctx, k)
    return md.hybrid_shapley(ctx.model, inputs), md.shapley(ctx.model, inputs)


def _attribution_gate(ctx: Context, k: int, attrs) -> str | None:
    for label, attr in zip(("hybrid_shapley", "shapley"), attrs):
        residual = attr.efficiency_residual()
        if not residual <= md.EQUALITY_TOL:
            return f"{label} efficiency residual {residual:.3e}"
    return None


# --- cli-decompose-g64 -----------------------------------------------------
# The only workload through load_model, load_samples, the report dump,
# heatmap and cli. JSON loads dominate the op, so a conv gain shrinks here and
# load-time validation shows its cost.

_CLI_SAMPLES = 8


def _cli_setup(seed: int, workdir: Path, smoke: bool) -> Context:
    spec = md.GenSpec(
        grid=8 if smoke else 64, channels=4 if smoke else 16, include_attention=True
    )
    model = md.gen_synthetic_model(seed, spec)
    samples = md.gen_sample_set(seed, model, _CLI_SAMPLES)
    files = {
        "model": workdir / "model.json",
        "samples": workdir / "samples.json",
        "out": workdir / "report.json",
        "heatmaps": workdir / "heatmaps",
    }
    files["model"].write_bytes(md.save_model(model))
    files["samples"].write_bytes(md.save_samples(samples))
    return Context(model, samples.samples, files=files)


def _cli_op(ctx: Context, k: int):
    f = ctx.files
    argv = [
        "decompose",
        "--model", str(f["model"]),
        "--samples", str(f["samples"]),
        "--index", str(k % _CLI_SAMPLES),
        "--out", str(f["out"]),
        "--heatmaps", str(f["heatmaps"]),
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = md_cli.main(argv)
    return code, err.getvalue()


def _cli_gate(ctx: Context, k: int, result) -> str | None:
    code, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    data = ctx.files["out"].read_bytes()
    ctx.note("cli.report_bytes", len(data))
    ctx.note("heatmap.bytes_written", sum(p.stat().st_size for p in ctx.files["heatmaps"].iterdir()))
    residual = json.loads(data)["max_equality_residual"]
    if not residual <= md.EQUALITY_TOL:
        return f"max_equality_residual {residual:.3e}"
    # criterion 10: the same index gives the same report bytes
    index = k % _CLI_SAMPLES
    digest = hashlib.sha256(data).hexdigest()
    if ctx.reports.setdefault(index, digest) != digest:
        return f"report for index {index} changed between runs"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompose-g128", _decompose_setup, _decompose_op, _decompose_gate),
        Workload("protocol-g8", _protocol_setup, _protocol_op, _protocol_gate),
        Workload("attribution-m4", _attribution_setup, _attribution_op, _attribution_gate),
        Workload("cli-decompose-g64", _cli_setup, _cli_op, _cli_gate),
    )
}
