"""Acceptance criteria for the decomposition engine, one test per criterion.

Each test prints a PASS line with its measured values once its assertions
hold (run with `pytest -s` to see them). Tolerances are pinned here and are
not configurable.
"""

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from modaldecomp import (
    DecomposedTensor,
    GenSpec,
    LayerSpec,
    MetricConfig,
    RecordedState,
    SplitConfig,
    decompose,
    equality_residuals,
    forward,
    gen_sample_set,
    gen_synthetic_model,
    lin_matmul,
    perturbation_protocol,
    propagate,
    record,
    shapley,
)
from modaldecomp.decompose import _chord_ratio

from conftest import push, scalar_pair_model, small_model
from test_superposition import ELEMENT_KINDS, build_case, run_rule

EQ_TOL = 1e-9

ALL_CONFIGS = [
    SplitConfig(bn, ln, act)
    for bn, ln, act in itertools.product(
        ("identity", "uniform"), ("ratio", "identity", "uniform"), ("none", "sum", "ratio")
    )
]
NO_ACT_CONFIGS = [c for c in ALL_CONFIGS if c.act_rule == "none"]


def test_criterion_1_equality_everywhere():
    """Component sums reproduce every layer's activation for 100 seeded
    (model, input) pairs spanning all layer kinds and all rule combos."""
    t0 = time.time()
    worst = 0.0
    kinds_seen = set()
    for seed in range(100):
        modalities = 3 if seed % 10 == 9 else 2
        affine = seed % 9 == 8
        spec = GenSpec(
            modalities=modalities,
            grid=6,
            channels=4,
            depth=seed % 3 + 1,
            norms=() if affine else ("batchnorm", "layernorm", "instancenorm"),
            activations=() if affine else ("relu", "gelu"),
            include_attention=seed % 5 == 0,
        )
        model = gen_synthetic_model(seed, spec)
        kinds_seen |= {l.kind for l in model.layers}
        x = gen_sample_set(seed + 1000, model, 1)[0]
        state = record(model, x)
        for cfg in ALL_CONFIGS if modalities == 2 else NO_ACT_CONFIGS:
            comp = propagate(model, state, x, cfg)
            worst = max(worst, max(equality_residuals(model, comp, state).values()))
    elapsed = time.time() - t0
    assert worst <= EQ_TOL
    assert kinds_seen >= {
        "Dense", "Conv2d", "BatchNorm", "LayerNorm", "InstanceNorm",
        "ReLU", "GELU", "ResidualAdd", "ConcatFusion", "MatMul", "Softmax",
    }
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 1 equality: PASS (worst residual {worst:.3e}, {elapsed:.1f}s)")


@pytest.fixture(scope="module")
def default_net_report():
    model = gen_synthetic_model(11, GenSpec())  # 32x32 grid, depth 3
    samples = gen_sample_set(101, model, 20)
    t0 = time.time()
    rep = perturbation_protocol(
        model, samples, SplitConfig(), MetricConfig(stride=2, offset_count=4)
    )
    return rep, time.time() - t0


def test_criterion_2_separation_ideal_cells(default_net_report):
    """Unperturbed-modality cells report exactly 1.00 +- 0.00 and 0.00 +- 0.00."""
    rep, elapsed = default_net_report
    for p, o in ((0, 1), (1, 0)):
        cell = rep.cell(f"m{p}_p", f"m{o}")
        assert cell.pcc_mean == 1.0 and cell.pcc_std == 0.0
        assert cell.mse_mean == 0.0 and cell.mse_std == 0.0
        assert cell.n == 80 and cell.n_degenerate == 0
    assert elapsed <= 30.0
    print(f"\nACCEPTANCE 2 separation ideal cells: PASS (1.00±0.00 / 0.00±0.00, {elapsed:.1f}s)")


def test_criterion_3_perturbed_sensitivity(default_net_report):
    """Perturbed-modality cells respond: low correlation, positive error."""
    rep, _ = default_net_report
    goldens = {
        ("m0_p", "m0"): (-0.016535280229395728, 0.017033266821961678),
        ("m1_p", "m1"): (0.016560379413310906, 0.020839330297044746),
    }
    for (p, o), (pcc_gold, mse_gold) in goldens.items():
        cell = rep.cell(p, o)
        unpert = rep.cell(p, "m1" if o == "m0" else "m0")
        assert cell.pcc_mean <= 0.5
        assert cell.mse_mean > 0.0
        assert cell.mse_mean >= 10.0 * unpert.mse_mean
        assert np.isclose(cell.pcc_mean, pcc_gold, rtol=1e-6, atol=1e-9)
        assert np.isclose(cell.mse_mean, mse_gold, rtol=1e-6)
    print("\nACCEPTANCE 3 perturbed sensitivity: PASS "
          f"(pcc {rep.cell('m0_p','m0').pcc_mean:+.4f}/{rep.cell('m1_p','m1').pcc_mean:+.4f})")


def test_criterion_4_affine_oracle():
    """Affine nets: components equal the end-to-end map of each input alone."""
    worst = 0.0
    for seed in range(20):
        model = small_model(seed, depth=seed % 3 + 1, norms=(), activations=())
        x = gen_sample_set(seed + 200, model, 1)[0]
        res = decompose(model, x)
        zeros = {m: np.zeros(model.input_shape(m)) for m in range(model.modalities)}
        f0 = forward(model, zeros)[model.output]
        peak = 1.0 + np.max(np.abs(forward(model, x)[model.output]))
        for m in range(model.modalities):
            alone = dict(zeros)
            alone[m] = x[m]
            ref = forward(model, alone)[model.output] - f0
            worst = max(worst, np.max(np.abs(res.output.modality(m) - ref)) / peak)
        worst = max(worst, np.max(np.abs(res.output.bias - f0)) / peak)
    assert worst <= EQ_TOL
    print(f"\nACCEPTANCE 4 affine oracle: PASS (worst residual {worst:.3e})")


def test_criterion_5_superposition():
    """Per-rule additivity on 1000 random component triples per rule."""
    rng = np.random.default_rng(42)
    cfg = SplitConfig()
    shape = (2, 3, 3)
    worst = 0.0
    for kind in ELEMENT_KINDS:
        layer, state, _ = build_case(kind, rng)

        def modality0_out(x):
            pad = np.zeros((2,) + x.shape)
            d = DecomposedTensor(np.concatenate([x[None], pad]))
            return run_rule(layer, state, cfg, d).modality(0)

        for _ in range(1000):
            a, b, c = rng.normal(size=(3,) + (2, 4, 4))
            lhs = modality0_out(a + b + c)
            rhs = modality0_out(a) + modality0_out(b) + modality0_out(c)
            worst = max(worst, np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs))))
    fixed = rng.normal(size=(3, 4, 4))
    for _ in range(1000):
        a, b, c = (rng.normal(size=(3, 4, 4)) for _ in range(3))
        summed = a + b + c
        lhs = lin_matmul(summed, fixed)
        rhs = lin_matmul(a, fixed) + lin_matmul(b, fixed) + lin_matmul(c, fixed)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs))))
    assert worst <= EQ_TOL
    print(f"\nACCEPTANCE 5 superposition: PASS (worst deviation {worst:.3e})")


def test_criterion_6_splitting_conservation():
    """Final component sums agree across every rule combination."""
    worst = 0.0
    for seed in range(20):
        model = small_model(seed, depth=3)
        x = gen_sample_set(seed + 300, model, 1)[0]
        state = record(model, x)
        totals = [propagate(model, state, x, cfg)[model.output].total() for cfg in ALL_CONFIGS]
        ref = totals[0]
        tol_scale = 1.0 + np.max(np.abs(ref))
        for t in totals[1:]:
            worst = max(worst, np.max(np.abs(t - ref)) / tol_scale)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 6 conservation: PASS (max sum spread {worst:.3e})")


def test_criterion_7_shapley_axioms():
    """Efficiency, null player, symmetry and the 2^M forward count."""
    # hand-enumerable affine case: F(a, b) = 2a + 3b + 1 at a = b = 1
    model = scalar_pair_model(2.0, 3.0, 1.0)
    attr = shapley(model, {0: np.array([1.0]), 1: np.array([1.0])})
    assert attr.n_forwards == 4
    assert np.allclose(attr.per_modality[0], [2.0], atol=1e-12)
    assert np.allclose(attr.per_modality[1], [3.0], atol=1e-12)
    assert np.allclose(attr.base, [1.0], atol=1e-12)
    assert attr.efficiency_residual() <= EQ_TOL

    # null player
    nulled = small_model(3)
    for layer in nulled.layers:
        if layer.id.startswith("branch1_conv"):
            layer.params["weight"] = np.zeros_like(layer.params["weight"])
            layer.params["bias"] = np.zeros_like(layer.params["bias"])
    x = gen_sample_set(31, nulled, 1)[0]
    null_mag = np.max(np.abs(shapley(nulled, x).per_modality[1]))
    assert null_mag <= 1e-12

    # symmetry under label swap
    import copy

    base_model = small_model(11)
    x = gen_sample_set(4, base_model, 1)[0]
    swapped_layers = copy.deepcopy(base_model.layers)
    for layer in swapped_layers:
        if layer.kind == "Input":
            layer.params["modality"] = 1 - layer.params["modality"]
    from modaldecomp import ModelGraph

    swapped = ModelGraph(swapped_layers, base_model.output, 2)
    a = shapley(base_model, x)
    b = shapley(swapped, {0: x[1], 1: x[0]})
    assert np.array_equal(a.per_modality[0], b.per_modality[1])
    assert np.array_equal(a.per_modality[1], b.per_modality[0])

    # random nets: efficiency and forward count
    worst = 0.0
    for seed in range(10):
        m = small_model(seed, modalities=2 + seed % 2, depth=1 + seed % 2)
        xs = gen_sample_set(seed + 400, m, 1)[0]
        at = shapley(m, xs)
        assert at.n_forwards == 2 ** m.modalities
        worst = max(worst, at.efficiency_residual())
    assert worst <= EQ_TOL
    print(f"\nACCEPTANCE 7 shapley axioms: PASS (null {null_mag:.1e}, efficiency {worst:.3e})")


def test_criterion_8_hand_traces():
    """Bias re-routing reproduces the worked sign-pattern examples."""
    eps = 1e-6

    def run(components, rule):
        parts = np.array([[c] for c in components])
        pre = parts.sum(axis=0)
        out = np.maximum(pre, 0.0)
        c, r = _chord_ratio(pre, out, eps)
        layer = LayerSpec("y", "ReLU", ["x"], {})
        state = RecordedState({}, {"y": {"ratio": c, "residual": r}}, eps)
        return push(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule)), out

    got, out = run([-1.0, 2.0, 1.0], "sum")
    assert np.allclose(got.parts[:, 0], [-1.0, 3.0, 0.0], atol=1e-6)
    assert got.bias[0] == 0.0
    assert np.allclose(got.total(), out, atol=1e-12)

    got, out = run([1.0, 3.0, 4.0], "ratio")
    assert np.allclose(got.parts[:, 0], [2.0, 6.0, 0.0], atol=1e-6)
    assert got.bias[0] == 0.0
    assert np.allclose(got.total(), out, atol=1e-12)
    print("\nACCEPTANCE 8 hand traces: PASS ((-1,2,1)->(-1,3,0), (1,3,4)->(2,6,0))")


def test_criterion_9_three_modalities():
    """Equality and ideal separation with four components."""
    model = gen_synthetic_model(21, GenSpec(modalities=3, grid=16, channels=6, depth=3))
    samples = gen_sample_set(210, model, 20)

    worst = 0.0
    x = samples[0]
    state = record(model, x)
    for cfg in NO_ACT_CONFIGS:
        comp = propagate(model, state, x, cfg)
        assert comp[model.output].parts.shape[0] == 4
        worst = max(worst, max(equality_residuals(model, comp, state).values()))
    assert worst <= EQ_TOL

    rep = perturbation_protocol(
        model, samples, SplitConfig(), MetricConfig(stride=2, offset_count=4)
    )
    for p in range(3):
        for o in range(3):
            cell = rep.cell(f"m{p}_p", f"m{o}")
            if p == o:
                assert cell.pcc_mean <= 0.5
            else:
                assert cell.pcc_mean == 1.0 and cell.mse_mean == 0.0
    print(f"\nACCEPTANCE 9 three modalities: PASS (worst residual {worst:.3e})")


def test_criterion_10_cli_determinism(tmp_path):
    """Byte-identical CLI outputs across repeated runs and thread counts."""

    def run(args, threads):
        env = dict(os.environ)
        env["LMD_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "modaldecomp", *args],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    outs = {}
    small = ["--grid", "8", "--channels", "4", "--depth", "2"]
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        stdout = []
        stdout.append(run(["gen-model", "--seed", "9", *small, "--out", f"m_{tag}.json"], threads))
        stdout.append(run(
            ["gen-samples", "--seed", "9", "--model", f"m_{tag}.json", "--count", "4", "--out", f"s_{tag}.json"],
            threads,
        ))
        stdout.append(run(
            [
                "decompose", "--model", f"m_{tag}.json", "--samples", f"s_{tag}.json",
                "--out", f"r_{tag}.json", "--heatmaps", f"maps_{tag}",
            ],
            threads,
        ))
        stdout.append(run(
            [
                "metrics", "--model", f"m_{tag}.json", "--samples", f"s_{tag}.json",
                "--stride", "1", "--offsets", "2", "--variants",
                "identity-ratio,uniform-identity,identity-identity", "--out", f"t_{tag}.json",
            ],
            threads,
        ))
        stdout.append(run(
            ["shapley", "--model", f"m_{tag}.json", "--samples", f"s_{tag}.json", "--hybrid", "--out", f"a_{tag}.json"],
            threads,
        ))
        files = [
            (tmp_path / f"{kind}_{tag}.json").read_bytes() for kind in ("m", "s", "r", "t", "a")
        ]
        for name in ("m0.pgm", "m1.pgm", "bias.pgm"):
            files.append((tmp_path / f"maps_{tag}" / name).read_bytes())
        norm_stdout = [s.replace(f"_{tag}", "_") for s in stdout]
        outs[tag] = (files, norm_stdout)
    assert outs["a"] == outs["b"] == outs["c"]
    print("\nACCEPTANCE 10 CLI determinism: PASS (runs and LMD_THREADS 1 vs 4 byte-identical)")
