"""Benchmark for modaldecomp: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload decompose-g128 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``. With
``--trace 0`` it reports the end-to-end metrics:

  setup_s                 median of three set-ups (model and sample
                          generation, JSON files for the cli workload, one
                          warm-up op)
  ops_per_s               ops completed per second of op time
  op_p50_ms, op_p90_ms    op latency percentiles
  peak_traced_mib         tracemalloc peak over one op, in an untimed pass
  decompose_over_forward  median decompose over median plain forward, both
                          on the workload's model and samples
  success_ratio           ops that passed their gate over ops attempted

Ops take 85% of ``--seconds``. The forward/decompose pairs take the rest
(at least ten pairs) and are interleaved with the ops. The benchmark's own
correctness checks are not timed. ``error_rate`` (failed over attempted) is
printed in the summary on standard error; the result line carries it as
``failed`` and ``attempted``.

With ``--trace 1`` the ops alternate between untraced and traced, and the
run reports per-layer metrics from the traced ops: per-op calls and self
time of each function in spans.TRACED, counts computed from array shapes
(listed as "computed" in the trace line), ``trace.overhead`` (traced over
untraced median op time) and ``trace.unattributed_ms`` (op time no span
covers). Self times plus unattributed time add up to ``trace.op_ms``. The
spans go to ``.perfbench_out/`` as gzip-compressed JSON lines.

``--smoke`` runs the same workload on tiny shapes, for the benchmark's tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# single-threaded baseline; set before numpy is imported
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "LMD_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
OP_SHARE = 0.85
MIN_RATIO_PAIRS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_traced_mib": "MiB",
    "decompose_over_forward": "ratio",
    "success_ratio": "ratio",
}

# per-layer metrics that are not a function's calls or self time
DERIVED_UNITS = {
    "tensor.conv2d.gflop_per_s": "GFLOP/s",
    "tensor.conv2d.computed_mib": "MiB",
    "decompose.components_mib": "MiB",
    "decompose.stack_rows": "rows",
    "metrics.propagates_per_record": "ratio",
    "metrics.degenerate_pairs": "count",
    "shapley.coalition_propagates": "count",
    "heatmap.bytes_written": "bytes",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.op_ms": "ms",
}
COMPUTED = ("tensor.conv2d.gflop_per_s", "tensor.conv2d.computed_mib", "decompose.components_mib")
# per-op values the gates note down
NOTED = ("metrics.degenerate_pairs", "heatmap.bytes_written", "cli.report_bytes")


class OpLog:
    """Latencies and gate outcomes of the timed ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.gate_s = 0.0

    def run(self, wl, ctx, k, call=None) -> float:
        """One op and its gate; returns the op's latency in seconds."""
        t0 = time.perf_counter()
        try:
            result = (call or wl.op)(ctx, k)
        except Exception:
            t1 = time.perf_counter()
            self._fail(f"op {k} raised:\n{traceback.format_exc()}")
        else:
            t1 = time.perf_counter()
            msg = wl.gate(ctx, k, result)
            if msg is not None:
                self._fail(f"op {k} missed its gate: {msg}")
            self.gate_s += time.perf_counter() - t1
        self.latencies.append(t1 - t0)
        return t1 - t0

    def _fail(self, msg: str) -> None:
        if not self.failed:
            print(msg, file=sys.stderr)
        self.failed += 1


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k) for k in THREAD_SETTINGS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def set_up(wl, args, workdir, tracer=None):
    """SETUP_REPEATS set-ups, each with one gated warm-up op; keeps the last.

    A set-up's time excludes its warm-up op's gate, which is the benchmark's.
    """
    times, log = [], OpLog()
    for _ in range(SETUP_REPEATS):
        gate_s = log.gate_s
        t0 = time.perf_counter()
        if tracer is None:
            ctx = wl.setup(args.seed, workdir, args.smoke)
        else:
            with tracer.root("setup"):
                ctx = wl.setup(args.seed, workdir, args.smoke)
        log.run(wl, ctx, 0)
        times.append(time.perf_counter() - t0 - (log.gate_s - gate_s))
    return ctx, times, log.failed


def peak_traced_mib(wl, ctx, k: int) -> tuple[float, bool]:
    """tracemalloc peak over one op, and whether that op passed its gate."""
    peaks = []

    def op_under_tracemalloc(ctx, k):
        tracemalloc.start()
        try:
            result = wl.op(ctx, k)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return result

    log = OpLog()
    log.run(wl, ctx, k, op_under_tracemalloc)
    return (peaks[0] / 2**20 if peaks else 0.0), log.failed == 0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_untraced(wl, args, workdir):
    ctx, setup_times, warm_failed = set_up(wl, args, workdir)
    log = OpLog()
    budget = OP_SHARE * args.seconds
    fwd, dec = [], []

    def pair() -> float:
        f, d = ctx.forward_and_decompose(len(fwd))
        fwd.append(f)
        dec.append(d)
        return f + d

    op_s = pair_s = 0.0
    k = 1
    while op_s < budget:
        op_s += log.run(wl, ctx, k)
        k += 1
        # forward/decompose pairs interleave with the ops, so both see the same host load
        while pair_s * OP_SHARE < op_s * (1 - OP_SHARE):
            pair_s += pair()
    while len(fwd) < MIN_RATIO_PAIRS:
        pair()
    peak, peak_ok = peak_traced_mib(wl, ctx, k)
    n = len(log.latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / op_s,
        "op_p50_ms": statistics.median(log.latencies) * 1e3,
        "op_p90_ms": p90(log.latencies) * 1e3,
        "peak_traced_mib": peak,
        "decompose_over_forward": statistics.median(dec) / statistics.median(fwd),
        "success_ratio": (n - log.failed) / n,
    }
    units = END_TO_END_UNITS
    correct = log.failed == 0 and warm_failed == 0 and peak_ok
    print(
        f"{wl.name}: {n} ops, error_rate {log.failed / n:g} ratio, "
        + ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()),
        file=sys.stderr,
    )
    return correct, n, log.failed, metrics, units


def run_traced(wl, args, workdir):
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx, _, warm_failed = set_up(wl, args, workdir, tracer)
    finally:
        tracer.uninstall()
    plain, traced = OpLog(), OpLog()

    def traced_op(ctx, k):
        tracer.install()
        try:
            with tracer.root("op"):
                return wl.op(ctx, k)
        finally:
            tracer.uninstall()

    busy, k = 0.0, 1
    while busy < args.seconds or not plain.latencies:
        busy += (traced.run(wl, ctx, k, traced_op) if k % 2 else plain.run(wl, ctx, k))
        k += 1

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_file)
    metrics = per_layer(tracer, ctx)
    metrics["trace.overhead"] = statistics.median(traced.latencies) / statistics.median(
        plain.latencies
    )
    units = {m: _unit(m) for m in metrics}
    print(
        json.dumps(
            {
                "trace": {
                    "absent": tracer.absent,
                    "computed": list(COMPUTED),
                    "spans_file": str(spans_file.relative_to(ROOT)),
                }
            }
        )
    )
    failed = plain.failed + traced.failed
    attempted = len(plain.latencies) + len(traced.latencies)
    return failed == 0 and warm_failed == 0, attempted, failed, metrics, units


def _unit(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return "count" if metric.endswith(".calls") else "ms"


def per_layer(tracer, ctx) -> dict[str, float]:
    """Per-op (per set-up for spans.SETUP_FUNCTIONS) values from the spans."""
    S = tracer.spans
    own = tracer.self_times()
    roots = {"op": [], "setup": []}
    calls = {"op": Counter(), "setup": Counter()}
    self_s = {"op": Counter(), "setup": Counter()}
    flop = conv_bytes = coalition = 0
    stack_bytes, stack_rows = [], []
    for i, s in enumerate(S):
        name = s[spans.NAME]
        if s[spans.PARENT] < 0:
            roots[name].append(i)
            continue
        kind = S[s[spans.ROOT]][spans.NAME]
        calls[kind][name] += 1
        self_s[kind][name] += own[i]
        if kind != "op":
            continue
        extra = s[spans.EXTRA]
        if name == "tensor.conv2d" and extra:
            flop += extra[0]
            conv_bytes += extra[1]
        elif name == "decompose.propagate":
            if extra:
                stack_bytes.append(extra[0])
                stack_rows.append(extra[1])
            if S[s[spans.PARENT]][spans.NAME] == "shapley.hybrid_shapley":
                coalition += 1

    out: dict[str, float] = {}
    for mod, fn in spans.TRACED:
        name = f"{mod}.{fn}"
        kind = "setup" if name in spans.SETUP_FUNCTIONS else "op"
        n = len(roots[kind])
        out[f"{name}.calls"] = calls[kind][name] / n
        out[f"{name}.self_ms"] = self_s[kind][name] / n * 1e3
    n_ops = len(roots["op"])
    calls, self_s = calls["op"], self_s["op"]
    conv_s = self_s["tensor.conv2d"]
    out["tensor.conv2d.gflop_per_s"] = flop / conv_s / 1e9 if conv_s > 0 else 0.0
    out["tensor.conv2d.computed_mib"] = conv_bytes / n_ops / 2**20
    out["decompose.components_mib"] = statistics.fmean(stack_bytes) / 2**20 if stack_bytes else 0.0
    out["decompose.stack_rows"] = statistics.fmean(stack_rows) if stack_rows else 0.0
    records = calls["decompose.record"]
    out["metrics.propagates_per_record"] = (
        calls["decompose.propagate"] / records if records else 0.0
    )
    out["shapley.coalition_propagates"] = coalition / n_ops
    for name in NOTED:
        values = ctx.notes.get(name)
        out[name] = statistics.fmean(values) if values else 0.0
    out["trace.unattributed_ms"] = statistics.fmean(own[i] for i in roots["op"]) * 1e3
    out["trace.op_ms"] = statistics.fmean(
        S[i][spans.END] - S[i][spans.START] for i in roots["op"]
    ) * 1e3
    return out


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny shapes, for the tests")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "modaldecomp" / "__init__.py").is_file():
        print(f"error: no modaldecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imports numpy and the library, so it follows the thread settings above
    from workloads import WORKLOADS

    import modaldecomp

    if not Path(modaldecomp.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported modaldecomp from {modaldecomp.__file__}", file=sys.stderr)
        return 2
    args = parse_args(argv, list(WORKLOADS))
    wl = WORKLOADS[args.workload]
    print(json.dumps({"env": environment(args)}))
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics, units = run(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
