import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modaldecomp import (
    CellStats,
    DecompositionError,
    MetricConfig,
    SeparationReport,
    SplitConfig,
    decompose,
    format_table,
    gen_sample_set,
    mse,
    pearson,
    pearson_degenerate,
    perturbation_protocol,
    propagate,
    record,
    report_to_json,
    variant_matrix,
)
from modaldecomp.decompose import _Plan
from modaldecomp.heatmap import normalize_map
from modaldecomp.metrics import _pearson

from conftest import count_calls, small_model


def dead_branch1_model():
    """small_model with branch1_conv zeroed, so modality 1's component is identically zero."""
    model = small_model()
    for layer in model.layers:
        if layer.id.startswith("branch1_conv"):
            layer.params["weight"] = np.zeros_like(layer.params["weight"])
            layer.params["bias"] = np.zeros_like(layer.params["bias"])
    return model


@st.composite
def row_pair(draw, n):
    """(a, b, kind): ordinary rows, one constant, identical, one non-finite, or one overflowing on centring."""
    kind = draw(st.sampled_from(("ordinary", "constant", "identical", "non-finite", "overflow")))
    row = st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n)
    a, b = np.array(draw(row)), np.array(draw(row))
    if kind == "constant":
        a[:] = a[0]
    elif kind == "identical":
        b = a.copy()
    elif kind == "non-finite":
        a[draw(st.integers(0, n - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    elif kind == "overflow":
        huge = st.one_of(st.floats(-1e4, 1e4), st.sampled_from((1e308, -1e308)))
        a = np.array(draw(st.lists(huge, min_size=n, max_size=n)))
    return (a, b, kind) if draw(st.booleans()) else (b, a, kind)


class TestPearson:
    def test_perfect(self):
        assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_perfect_inverse(self):
        assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_hand_value(self):
        # direct evaluation: sqrt(3)/2
        assert math.isclose(pearson([1.0, 2.0, 3.0], [1.0, 1.0, 2.0]), math.sqrt(3) / 2, rel_tol=1e-12)

    def test_zero_variance_flagged(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
        assert pearson_degenerate([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert not pearson_degenerate([1.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_constant_reads_zero_when_its_mean_rounds(self):
        # the mean of seven 0.1s is not 0.1, so centring leaves rounding noise
        a = np.full(7, 0.1)
        assert a.mean() != 0.1
        assert pearson(a, np.arange(7.0)) == 0.0
        assert pearson_degenerate(a, np.arange(7.0))

    def test_overflowing_spread_flagged(self):
        a, b = [1e308, 1e308, -1e308], [1.0, 2.0, 3.0]
        assert math.isnan(pearson(a, b))
        assert pearson_degenerate(a, b)

    def test_nan_input_flagged(self):
        a, b = [float("nan"), 1.0, 2.0], [1.0, 2.0, 3.0]
        assert math.isnan(pearson(a, b)) and math.isnan(pearson(b, a))
        assert pearson_degenerate(a, b) and pearson_degenerate(b, a)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])

    def test_identical_rows_read_exactly_one(self):
        # numerator and both squared norms are one float s, and sqrt(s * s) rounds back to s
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3, 17)) * 10.0 ** rng.uniform(-300, 300, size=(6, 3, 1))
        # a (sets, M, entries) stack against itself, and one (M, entries) set against the stack
        for r, flags in (_pearson(a, a.copy()), _pearson(a[0], np.broadcast_to(a[0], a.shape))):
            assert r.shape == (6, 3) and not flags.any()
            assert np.all(r == 1.0)
        assert all(pearson(row, row.copy()) == 1.0 for row in a.reshape(-1, 17))

    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=24),
        alpha=st.floats(0.01, 100.0),
        beta=st.floats(-100.0, 100.0),
    )
    def test_positive_affine_invariance(self, xs, alpha, beta):
        a = np.arange(len(xs), dtype=float)
        b = np.array(xs)
        t = alpha * b + beta
        # forming t rounds each entry to an ulp of max|t|. Skip t whose spread
        # is not large against that: beta can absorb a tiny b outright
        # (t constant, hence degenerate) or round away its low digits.
        if pearson_degenerate(a, b) or np.ptp(t) <= 1e-3 * np.max(np.abs(t)):
            return
        assert abs(pearson(a, t) - pearson(a, b)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_stacked_rows_match_one_pair_each(self, data):
        # one call over a (K, n) stack gives each row exactly what pearson gives that row alone
        n = data.draw(st.integers(2, 24))
        pairs = data.draw(st.lists(row_pair(n), min_size=1, max_size=6))
        r, flags = _pearson(np.stack([a for a, _, _ in pairs]), np.stack([b for _, b, _ in pairs]))
        assert r.shape == flags.shape == (len(pairs),)
        for k, (a, b, kind) in enumerate(pairs):
            assert r[k].tobytes() == np.float64(pearson(a, b)).tobytes()
            assert bool(flags[k]) is pearson_degenerate(a, b)
            if kind == "constant":
                assert r[k] == 0.0 and flags[k]
            elif kind == "identical" and not flags[k]:
                assert r[k] == 1.0
            elif kind == "non-finite":  # nan, unless the other row is constant
                assert flags[k] and (np.isnan(r[k]) or np.ptp(a) == 0 or np.ptp(b) == 0)


class TestMse:
    def test_self(self, rng):
        x = rng.normal(size=6)
        assert mse(x, x) == 0.0

    def test_unit(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand(self):
        assert mse([1.0, 2.0], [0.0, 4.0]) == 2.5

    def test_zero_iff_equal(self, rng):
        x = rng.normal(size=6)
        y = x.copy()
        y[3] += 1e-12
        assert mse(x, y) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=16))
    def test_nonnegative(self, xs):
        a = np.array(xs)
        assert mse(a, a[::-1].copy()) >= 0.0


class TestMetricConfig:
    def test_stride_auto(self):
        assert MetricConfig().resolve_stride(24) == 2
        assert MetricConfig().resolve_stride(6) == 1

    def test_offset_must_not_wrap_to_self(self):
        with pytest.raises(ValueError, match="onto itself"):
            MetricConfig(stride=3, offset_count=2).resolve_stride(6)

    @pytest.mark.parametrize("count", [0, -1])
    def test_offset_count_below_one_refused(self, count):
        with pytest.raises(ValueError, match="offset_count must be at least 1"):
            MetricConfig(offset_count=count)

    @pytest.mark.parametrize(
        "perturbed, named",
        [
            (((),), "()"),
            (((0, 0),), "(0, 0)"),
            (((0,), (1,), (0,)), "(0,)"),
            (((0, 1), (1, 0)), "(1, 0)"),
        ],
        ids=["empty", "repeated-modality", "repeated-set", "reordered-set"],
    )
    def test_bad_perturbation_sets_refused(self, perturbed, named):
        with pytest.raises(ValueError, match=re.escape(f"perturbation set {named}")):
            MetricConfig(perturbed=perturbed)

    def test_no_perturbation_sets_refused(self):
        with pytest.raises(ValueError, match="names no perturbation set"):
            MetricConfig(perturbed=())

    def test_distinct_perturbation_sets_accepted(self):
        assert MetricConfig(perturbed=((0,), (1,), (1, 0))).perturbed == ((0,), (1,), (1, 0))

    def test_single_sample_refused(self):
        model = small_model()
        samples = gen_sample_set(0, model, 1)
        with pytest.raises(ValueError, match="two samples"):
            perturbation_protocol(model, samples)


def one_propagate_per_replacement(model, samples, cfg, mcfg):
    """The protocol as one full propagate per (perturbation set, offset) pair."""
    n = samples.n
    stride = mcfg.resolve_stride(n)
    modalities = sorted(model.modality_inputs)
    perturb_sets = mcfg.perturbed or tuple((m,) for m in modalities)
    all_rows = []
    for k in range(n):
        inputs = samples[k]
        res = decompose(model, inputs, cfg)
        for pset in perturb_sets:
            for j in range(1, mcfg.offset_count + 1):
                src = samples[(k + stride * j) % n]
                pert_inputs = dict(inputs)
                for p in pset:
                    pert_inputs[p] = src[p]
                pert = propagate(model, res.state, pert_inputs, cfg)[model.output]
                for o in modalities:
                    a, b = res.output.modality(o), pert.modality(o)
                    if mcfg.positive_parts:
                        a, b = normalize_map(a, "max-positive"), normalize_map(b, "max-positive")
                    all_rows.append((pset, o, pearson(a, b), pearson_degenerate(a, b), mse(a, b)))
    cells = []
    for pset in perturb_sets:
        for o in modalities:
            sel = [r for r in all_rows if r[0] == pset and r[1] == o]
            pccs = np.array([r[2] for r in sel if not r[3]])
            mses = np.array([r[4] for r in sel])
            cells.append(
                CellStats(
                    perturbed="".join(f"m{p}_p" for p in pset),
                    observed=f"m{o}",
                    pcc_mean=float(pccs.mean()) if pccs.size else 0.0,
                    pcc_std=float(pccs.std()) if pccs.size else 0.0,
                    mse_mean=float(mses.mean()),
                    mse_std=float(mses.std()),
                    n=len(sel),
                    n_degenerate=sum(1 for r in sel if r[3]),
                )
            )
    return SeparationReport(cfg.label(), cells, n, mcfg.offset_count, stride)


class TestProtocol:
    @pytest.mark.parametrize(
        "make_model, cfg, mcfg",
        [
            (small_model, SplitConfig(), MetricConfig()),
            (
                functools.partial(small_model, modalities=3, include_attention=True),
                SplitConfig("uniform", "identity"),
                MetricConfig(stride=1, offset_count=2, perturbed=((0,), (1, 2))),
            ),
            (small_model, SplitConfig(act_rule="sum"), MetricConfig(stride=1, offset_count=2)),
            (small_model, SplitConfig("uniform", "uniform", "ratio"), MetricConfig(stride=1, offset_count=2)),
            (functools.partial(small_model, modalities=1), SplitConfig(), MetricConfig(stride=1, offset_count=2)),
            (small_model, SplitConfig(), MetricConfig(stride=2, offset_count=2, positive_parts=True)),
            # modality 1's rows are constant, so each stacked call mixes flagged and unflagged pairs
            (dead_branch1_model, SplitConfig(), MetricConfig(stride=1, offset_count=2)),
        ],
        ids=["default", "m3-attention-joint", "act-sum", "act-ratio", "m1", "positive-parts", "dead-branch"],
    )
    def test_matches_one_propagate_per_replacement(self, make_model, cfg, mcfg):
        model = make_model()
        samples = gen_sample_set(5, model, 6)
        got = perturbation_protocol(model, samples, cfg, mcfg)
        want = one_propagate_per_replacement(model, samples, cfg, mcfg)
        assert report_to_json([got]) == report_to_json([want])

    def test_identity_perturbation_scores_perfectly(self):
        # replacing a modality with itself must leave every cell ideal
        model = small_model()
        samples = gen_sample_set(3, model, 2)
        cfg = SplitConfig()
        state = record(model, samples[0], cfg)
        clean = propagate(model, state, samples[0], cfg)[model.output]
        again = propagate(model, state, dict(samples[0]), cfg)[model.output]
        for m in range(2):
            assert pearson(clean.modality(m), again.modality(m)) == 1.0
            assert mse(clean.modality(m), again.modality(m)) == 0.0

    def test_unperturbed_cells_ideal(self):
        model = small_model()
        samples = gen_sample_set(5, model, 6)
        rep = perturbation_protocol(model, samples, SplitConfig(), MetricConfig(stride=1, offset_count=2))
        for p in range(2):
            o = 1 - p
            cell = rep.cell(f"m{p}_p", f"m{o}")
            assert cell.pcc_mean == 1.0 and cell.pcc_std == 0.0
            assert cell.mse_mean == 0.0 and cell.mse_std == 0.0
            assert cell.n == 12 and cell.n_degenerate == 0

    def test_perturbed_cells_respond(self):
        model = small_model()
        samples = gen_sample_set(5, model, 6)
        rep = perturbation_protocol(model, samples, SplitConfig(), MetricConfig(stride=1, offset_count=2))
        for p in range(2):
            cell = rep.cell(f"m{p}_p", f"m{p}")
            assert cell.pcc_mean < 0.9
            assert cell.mse_mean > 0.0

    def test_cell_count_and_n(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=3)
        rep = perturbation_protocol(model, samples, SplitConfig(), mcfg)
        assert len(rep.cells) == 4  # 2 perturbation sets x 2 observed
        for cell in rep.cells:
            assert cell.n == 4 * 3

    def test_degenerate_components_counted(self):
        model = dead_branch1_model()
        samples = gen_sample_set(5, model, 4)
        rep = perturbation_protocol(model, samples, SplitConfig(), MetricConfig(stride=1, offset_count=2))
        cell = rep.cell("m0_p", "m1")
        assert cell.n_degenerate == cell.n
        assert cell.pcc_mean == 0.0  # nothing left to average

    def test_joint_perturbation_cells(self):
        model = small_model(4, modalities=3)
        samples = gen_sample_set(6, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=2, perturbed=((0, 1),))
        rep = perturbation_protocol(model, samples, SplitConfig(), mcfg)
        labels = {(c.perturbed, c.observed) for c in rep.cells}
        assert ("m0_pm1_p", "m2") in labels
        assert rep.cell("m0_pm1_p", "m2").pcc_mean == 1.0

    def test_positive_parts_flag(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=2, positive_parts=True)
        rep = perturbation_protocol(model, samples, SplitConfig(), mcfg)
        for p in range(2):
            cell = rep.cell(f"m{p}_p", f"m{1 - p}")
            assert cell.pcc_mean == 1.0 and cell.mse_mean == 0.0

    def test_nan_in_clean_sample_names_its_input_layer(self):
        # the clean decompose raises at the first non-finite layer, as decompose does
        model = small_model()
        samples = gen_sample_set(5, model, 6)
        samples.samples[0] = dict(samples[0])
        samples.samples[0][0] = samples[0][0].copy()
        samples.samples[0][0][0, 0, 0] = np.nan
        msg = "non-finite activation in layer 'in0'"
        with pytest.raises(DecompositionError, match=msg):
            decompose(model, samples[0])
        with pytest.raises(DecompositionError, match=msg):
            perturbation_protocol(model, samples)

    def test_one_decompose_and_one_stacked_sweep_per_sample(self, monkeypatch):
        """A separable model's replacement runs are one prefix sweep per sample, with no full propagate."""
        # the engine's names and the ones metrics imported from it
        counts = count_calls(
            monkeypatch, ("modaldecomp.decompose", "modaldecomp.metrics"), ("_decompose", "_sweep_runs")
        )
        model = small_model(modalities=3)
        assert not _Plan(model, SplitConfig()).suffix
        perturbation_protocol(model, gen_sample_set(5, model, 6), mcfg=MetricConfig(offset_count=4))
        assert counts == {"_decompose": 6, "_sweep_runs": 6}


class TestVariantMatrix:
    def test_single_variant_degenerates_to_protocol(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=2)
        one = perturbation_protocol(model, samples, SplitConfig(), mcfg)
        many = variant_matrix(model, samples, [SplitConfig()], mcfg)
        assert len(many) == 1
        assert report_to_json(many) == report_to_json([one])

    def test_empty_variant_list(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        with pytest.raises(ValueError, match="empty"):
            variant_matrix(model, samples, [])

    def test_repeated_variant_refused(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        variants = [SplitConfig(), SplitConfig("uniform", "identity"), SplitConfig("identity", "ratio")]
        with pytest.raises(ValueError, match="variant identity-ratio is listed twice"):
            variant_matrix(model, samples, variants)

    def test_unperturbed_cells_ideal_across_variants(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=2)
        variants = [SplitConfig("identity", "ratio"), SplitConfig("uniform", "identity")]
        for rep in variant_matrix(model, samples, variants, mcfg):
            for p in range(2):
                cell = rep.cell(f"m{p}_p", f"m{1 - p}")
                assert cell.pcc_mean == 1.0 and cell.mse_mean == 0.0


class TestReports:
    def test_json_round_trip_fields(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        rep = perturbation_protocol(model, samples, SplitConfig(), MetricConfig(stride=1, offset_count=2))
        doc = json.loads(report_to_json([rep]))
        cells = doc["reports"][0]["cells"]
        assert {"perturbed", "observed", "pcc_mean", "pcc_std", "mse_mean", "mse_std", "n", "n_degenerate"} <= set(cells[0])

    def test_table_contains_cells(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        rep = perturbation_protocol(model, samples, SplitConfig(), MetricConfig(stride=1, offset_count=2))
        table = format_table([rep])
        assert "m0_p/m1" in table and "variant identity-ratio" in table

    def test_deterministic_across_runs(self):
        model = small_model()
        samples = gen_sample_set(5, model, 4)
        mcfg = MetricConfig(stride=1, offset_count=2)
        a = report_to_json([perturbation_protocol(model, samples, SplitConfig(), mcfg)])
        b = report_to_json([perturbation_protocol(model, samples, SplitConfig(), mcfg)])
        assert a == b

    def test_reduction_order_fixed_under_parallelism(self, monkeypatch):
        # per-sample work may run on any thread; the aggregate must not move
        model = small_model()
        samples = gen_sample_set(5, model, 8)
        mcfg = MetricConfig(stride=1, offset_count=2)
        monkeypatch.delenv("LMD_THREADS", raising=False)
        serial = report_to_json([perturbation_protocol(model, samples, SplitConfig(), mcfg)])
        monkeypatch.setenv("LMD_THREADS", "4")
        threaded = report_to_json([perturbation_protocol(model, samples, SplitConfig(), mcfg)])
        assert serial == threaded
