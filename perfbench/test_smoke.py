"""Smoke test of the benchmark: every workload on tiny shapes, for about a second.

It checks that every metric BENCHMARK.json names is reported with its unit,
that every gate held, and that a traced run's self times add up to its op
time. It makes no wall-clock assertion.

    python3 -m pytest perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7"]
    argv += ["--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_reported_and_gates_hold(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        per_op_self = sum(
            v
            for k, v in values.items()
            if k.endswith(".self_ms") and k.removesuffix(".self_ms") not in spans.SETUP_FUNCTIONS
        )
        covered = per_op_self + values["trace.unattributed_ms"]
        assert covered == pytest.approx(values["trace.op_ms"], rel=1e-9)


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_functions_are_absent_and_wrapping_is_undone(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    gone = (("parallel", "no_such_function"), ("no_such_module", "fn"))
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + gone)
    model = importlib.import_module("modaldecomp.model")
    decompose = importlib.import_module("modaldecomp.decompose")
    conv2d = model.conv2d

    tracer = spans.Tracer()
    assert tracer.absent == ["parallel.no_such_function", "no_such_module.fn"]
    tracer.install()
    assert model.conv2d is not conv2d and decompose.conv2d is model.conv2d
    tracer.uninstall()
    assert model.conv2d is conv2d and decompose.conv2d is conv2d
