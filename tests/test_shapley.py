import copy
import sys
from collections import Counter

import numpy as np
import pytest

from modaldecomp import (
    GenSpec,
    ModelError,
    ModelGraph,
    SplitConfig,
    decompose,
    forward,
    gen_sample_set,
    gen_synthetic_model,
    hybrid_shapley,
    pearson,
    propagate,
    record,
    shapley,
)
from modaldecomp.decompose import _decompose, _Plan, _splice, _splice_bias

from conftest import (
    count_calls,
    every_kind_suffix_model,
    forward_shapley,
    full_propagate_hybrid,
    peak,
    scalar_pair_model,
    small_model,
)


def test_hand_enumerable_affine_example():
    # F(a, b) = 2a + 3b + 1 at a = b = 1
    model = scalar_pair_model(2.0, 3.0, 1.0)
    attr = shapley(model, {0: np.array([1.0]), 1: np.array([1.0])})
    assert np.allclose(attr.per_modality[0], [2.0], atol=1e-12)
    assert np.allclose(attr.per_modality[1], [3.0], atol=1e-12)
    assert np.allclose(attr.base, [1.0], atol=1e-12)
    assert attr.n_forwards == 4
    assert attr.efficiency_residual() <= 1e-9


@pytest.mark.parametrize("missing", [0, 1])
def test_missing_modality_refused(missing):
    model = scalar_pair_model()
    inputs = {m: np.array([1.0]) for m in range(2) if m != missing}
    with pytest.raises(ModelError, match=f"missing input for modality {missing}"):
        shapley(model, inputs)


def test_null_player_gets_zero():
    model = small_model()
    for layer in model.layers:
        if layer.id.startswith("branch1_conv"):
            layer.params["weight"] = np.zeros_like(layer.params["weight"])
            layer.params["bias"] = np.zeros_like(layer.params["bias"])
    x = gen_sample_set(3, model, 1)[0]
    attr = shapley(model, x)
    assert np.max(np.abs(attr.per_modality[1])) <= 1e-12


def swap_modalities(model: ModelGraph) -> ModelGraph:
    swapped = copy.deepcopy(model.layers)
    for layer in swapped:
        if layer.kind == "Input":
            layer.params["modality"] = 1 - layer.params["modality"]
    return ModelGraph(swapped, model.output, model.modalities)


def test_symmetry_under_label_swap():
    model = small_model(11)
    x = gen_sample_set(4, model, 1)[0]
    attr = shapley(model, x)
    attr_swapped = shapley(swap_modalities(model), {0: x[1], 1: x[0]})
    assert np.array_equal(attr_swapped.per_modality[0], attr.per_modality[1])
    assert np.array_equal(attr_swapped.per_modality[1], attr.per_modality[0])
    assert np.array_equal(attr_swapped.base, attr.base)


def test_efficiency_on_random_nets():
    for seed in range(10):
        model = small_model(seed, depth=1 + seed % 3)
        x = gen_sample_set(seed + 50, model, 1)[0]
        attr = shapley(model, x)
        assert attr.efficiency_residual() <= 1e-9
        assert attr.n_forwards == 2 ** model.modalities


def test_two_modality_closed_form():
    # with two players the formula is the average of the two marginal orders
    model = small_model(2)
    x = gen_sample_set(9, model, 1)[0]
    zeros = {m: np.zeros(model.input_shape(m)) for m in range(2)}
    v = {}
    for mask in range(4):
        coalition = {m: x[m] if mask & (1 << m) else zeros[m] for m in range(2)}
        v[mask] = forward(model, coalition)[model.output]
    attr = shapley(model, x)
    phi0 = 0.5 * ((v[1] - v[0]) + (v[3] - v[2]))
    phi1 = 0.5 * ((v[2] - v[0]) + (v[3] - v[1]))
    assert np.allclose(attr.per_modality[0], phi0, rtol=1e-12, atol=1e-12)
    assert np.allclose(attr.per_modality[1], phi1, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("attention", [False, True])
@pytest.mark.parametrize("modalities", [1, 2, 3, 4])
def test_bit_identical_to_plain_forwards(modalities, attention):
    model = small_model(3, modalities=modalities, include_attention=attention)
    x = gen_sample_set(8, model, 1)[0]
    attr = shapley(model, x)
    base, per, total = forward_shapley(model, x)
    assert np.array_equal(attr.base, base)
    assert np.array_equal(attr.total, total)
    for m in range(modalities):
        assert np.array_equal(attr.per_modality[m], per[m])
    assert attr.n_forwards == 1 << modalities


def test_branch_layers_shared_across_coalitions(monkeypatch):
    """A layer that sees one modality runs with and without it; a layer past the fusion runs per coalition."""
    model = small_model(modalities=3, include_attention=True)
    shapley_module = sys.modules["modaldecomp.shapley"]
    runs, eval_layer = Counter(), shapley_module.eval_layer

    def counted(layer, *args):
        runs[layer.id] += 1
        return eval_layer(layer, *args)

    monkeypatch.setattr(shapley_module, "eval_layer", counted)
    shapley(model, gen_sample_set(2, model, 1)[0])
    branch = {layer.id for layer in model.layers if layer.id.startswith(("in", "branch"))}
    assert len(branch) == 12
    assert runs == {layer.id: 2 if layer.id in branch else 8 for layer in model.layers}


@pytest.mark.parametrize(
    "attribute, bound_mib",
    [
        # a branch value is 64 KiB: the 8 kept ones take 0.5 MiB, all 24 branch Conv2d, BatchNorm and ReLU
        # values 1.5 MiB; a coalition's values live until their last reader (1.11 MiB in all, 3.11 keeping
        # all 24 and every value of the coalition)
        (shapley, 1.5),
        # the sweep keeps the frontier and suffix stacks, 5 rows of 64 KiB each, not all 35, and no empty run is
        # built: the peak is the full sweep's own, at the fusion (3.44 MiB; 6.13 with the empty run, 15.3 keeping all)
        (hybrid_shapley, 4.0),
    ],
)
def test_peak_on_the_attention_m4_model(attribute, bound_mib):
    """Only what later steps read is kept: the branch outputs in shapley, the stacks from the frontier on in the hybrid."""
    model = gen_synthetic_model(531, GenSpec(modalities=4, include_attention=True))
    x = gen_sample_set(531, model, 1)[0]
    assert peak(lambda: attribute(model, x)) < bound_mib * 2**20


def test_modality_guard():
    model = small_model()
    model.modalities = 13  # simulate an oversized fusion
    with pytest.raises(ValueError, match="guard"):
        shapley(model, {})


class TestHybrid:
    def test_zero_bias_affine_equals_decompose(self):
        model = small_model(norms=(), activations=())
        for layer in model.layers:
            if "bias" in layer.params:
                layer.params["bias"] = np.zeros_like(layer.params["bias"])
        x = gen_sample_set(4, model, 1)[0]
        res = decompose(model, x)
        assert np.max(np.abs(res.output.bias)) <= 1e-12
        for method in ("shapley", "proportional"):
            attr = hybrid_shapley(model, x, method=method)
            for m in range(2):
                assert np.allclose(attr.per_modality[m], res.output.modality(m), atol=1e-12)

    def test_efficiency_forced(self):
        for seed in (0, 1, 2):
            model = small_model(seed)
            x = gen_sample_set(seed + 30, model, 1)[0]
            for method in ("shapley", "proportional"):
                attr = hybrid_shapley(model, x, method=method)
                assert attr.efficiency_residual() <= 1e-9

    def test_unknown_method(self):
        model = small_model()
        x = gen_sample_set(1, model, 1)[0]
        with pytest.raises(ValueError, match="redistribution"):
            hybrid_shapley(model, x, method="magic")

    def test_unknown_method_refused_before_decomposing(self, monkeypatch):
        shapley_module = sys.modules["modaldecomp.shapley"]  # the package binds the name to the function

        def no_sweep(*args):
            raise AssertionError("decomposed before checking the method")

        monkeypatch.setattr(shapley_module, "_decompose", no_sweep)
        model = small_model()
        with pytest.raises(ValueError, match="unknown redistribution method 'magic'"):
            hybrid_shapley(model, gen_sample_set(1, model, 1)[0], method="magic")

    def test_proportional_sweep_keeps_only_the_output(self, monkeypatch):
        """method='proportional' reads only the output stack; keeping every stack gives the same bits."""
        shapley_module = sys.modules["modaldecomp.shapley"]
        decompose_sweep, keeps = shapley_module._decompose, []

        def every_stack(plan, runs, keep=None, state=None):
            keeps.append(keep)
            return decompose_sweep(plan, runs, None, state)

        model = small_model(5, modalities=3, include_attention=True)
        x, y = gen_sample_set(7, model, 2).samples
        state = record(model, x)
        for inputs, st in ((x, None), (y, state)):
            attr = hybrid_shapley(model, inputs, state=st, method="proportional")
            with monkeypatch.context() as patch:
                patch.setattr(shapley_module, "_decompose", every_stack)
                ref = hybrid_shapley(model, inputs, state=st, method="proportional")
            assert keeps.pop() == {model.output}
            assert attr.base.tobytes() == ref.base.tobytes() and attr.total.tobytes() == ref.total.tobytes()
            for i in range(model.modalities):
                assert attr.per_modality[i].tobytes() == ref.per_modality[i].tobytes()
            assert attr.n_forwards == ref.n_forwards == 1

    def replacement_correlations(self, model, samples, pairs):
        """Correlation of the unperturbed modality's attribution before and
        after replacing the other modality, for plain and hybrid scoring."""
        cfg = SplitConfig()
        plain_cors, hybrid_cors = [], []
        for k, j in pairs:
            x = samples[k]
            pert = dict(x)
            pert[0] = samples[j][0]
            plain_a = shapley(model, x)
            plain_b = shapley(model, pert)
            plain_cors.append(pearson(plain_a.per_modality[1], plain_b.per_modality[1]))
            state = record(model, x, cfg)
            hyb_a = hybrid_shapley(model, x, cfg, state=state)
            hyb_b = hybrid_shapley(model, pert, cfg, state=state)
            hybrid_cors.append(pearson(hyb_a.per_modality[1], hyb_b.per_modality[1]))
        return float(np.mean(plain_cors)), float(np.mean(hybrid_cors))

    def test_hybrid_more_stable_than_plain_under_replacement(self):
        model = small_model(13, depth=3)
        samples = gen_sample_set(17, model, 6)
        plain, hybrid = self.replacement_correlations(model, samples, [(0, 3), (1, 4), (2, 5)])
        assert hybrid > plain
        # elementwise net: the bias game never sees the inputs, so the
        # unperturbed attribution is reproduced exactly
        assert hybrid == 1.0
        assert np.isclose(plain, 0.9833443905591889, rtol=1e-6)

    def test_attention_net_replacement_goldens(self):
        # bilinear cross terms are genuinely shared mass; at this scale the
        # hybrid ordering is not implied, so pin the derived values instead
        model = small_model(13, depth=2, include_attention=True)
        samples = gen_sample_set(19, model, 6)
        plain, hybrid = self.replacement_correlations(model, samples, [(0, 3), (1, 4)])
        assert hybrid > 0.9
        assert np.isclose(plain, 0.9985954886422395, rtol=1e-6)
        assert np.isclose(hybrid, 0.9775653520186011, rtol=1e-6)


class TestCoalitionSharing:
    """hybrid_shapley reruns only the layers past the row-separable prefix."""

    @pytest.mark.parametrize(
        "spec, labels",
        [
            (dict(modalities=3, include_attention=True), ["identity-ratio", "uniform-uniform"]),
            (dict(modalities=4, include_attention=True), ["identity-identity", "uniform-ratio"]),
            (
                dict(modalities=2, depth=3),
                [
                    "identity-ratio",
                    "identity-ratio-sum",
                    "identity-ratio-ratio",
                    "uniform-uniform-sum",
                    "uniform-identity-ratio",
                ],
            ),
            (dict(grid=64, channels=16), ["identity-ratio"]),  # every 3x3 conv on bands
        ],
    )
    def test_bit_identical_to_full_propagates(self, spec, labels):
        model = small_model(5, **spec)
        x, y = gen_sample_set(23, model, 2).samples
        for label in labels:
            cfg = SplitConfig.parse(label)
            state = record(model, x, cfg)
            for inputs, st in ((x, None), (y, state)):
                attr = hybrid_shapley(model, inputs, cfg, state=st)
                base, per, total = full_propagate_hybrid(model, inputs, cfg, st)
                assert np.array_equal(attr.base, base)
                assert np.array_equal(attr.total, total)
                for m in range(model.modalities):
                    assert np.array_equal(attr.per_modality[m], per[m])
                assert attr.n_forwards == 1 << model.modalities

    @pytest.mark.parametrize("modalities", [2, 3])
    def test_bit_identical_with_every_kind_in_the_suffix(self, modalities):
        """Each coalition's bias row pushed alone keeps the bits of a full propagate, signs of zero included."""
        model = every_kind_suffix_model(modalities)
        suffix = [layer.kind for layer in _Plan(model, SplitConfig()).suffix]
        assert suffix[0] == suffix[-1] == "MatMul" and len(set(suffix)) == 11
        x, y = gen_sample_set(11, model, 2).samples
        labels = [f"{bn}-{ln}" for bn in ("identity", "uniform") for ln in ("ratio", "identity", "uniform")]
        for label in labels + (["identity-ratio-sum", "uniform-identity-ratio"] if modalities == 2 else []):
            cfg = SplitConfig.parse(label)
            state = record(model, x, cfg)
            for inputs, st in ((x, None), (y, state)):
                attr = hybrid_shapley(model, inputs, cfg, state=st)
                base, per, total = full_propagate_hybrid(model, inputs, cfg, st)
                assert attr.base.tobytes() == base.tobytes(), label
                assert attr.total.tobytes() == total.tobytes(), label
                for m in range(modalities):
                    assert attr.per_modality[m].tobytes() == per[m].tobytes(), label

    def test_one_decompose_one_prefix_sweep_and_a_splice_per_coalition(self, monkeypatch):
        """One full sweep and no whole-stack splice: the empty coalition's modality rows are zero, so it is never
        built. Under a 'uniform' rule the empty run is a second whole sweep, of the zero input. Every coalition then
        pushes 1-row stacks through the suffix, and a given state is only read."""
        model = small_model(modalities=4, include_attention=True)
        x, y = gen_sample_set(5, model, 2).samples
        state = record(model, x)
        before = {lid: dict(cache) for lid, cache in state.caches.items()}
        names = ("_decompose", "_splice", "_splice_bias")
        counts = count_calls(monkeypatch, ("modaldecomp.decompose", "modaldecomp.shapley"), names)
        heights, step = Counter(), _Plan.step

        def counted_step(plan, layer, ups, *args):
            heights[layer.id, len(ups[0]) if ups else 0] += 1
            return step(plan, layer, ups, *args)

        monkeypatch.setattr(_Plan, "step", counted_step)
        for cfg, sweeps in ((SplitConfig(), 1), (SplitConfig("uniform", "ratio"), 2)):
            # each sweep pushes 5 rows; the 16 coalitions push the bias row alone through every suffix layer but
            # the MatMuls, whose bias rows are formed from the stored rows
            suffix = {(lid, 5): sweeps for lid in ("attn_scores", "attn_softmax", "attn_out", "head")}
            suffix.update({("attn_softmax", 1): 16, ("head", 1): 16})
            for st, inputs in ((None, x), (state, y)):
                counts.update(dict.fromkeys(names, 0))
                heights.clear()
                hybrid_shapley(model, inputs, cfg, state=st)
                assert counts == {"_decompose": sweeps, "_splice": 0, "_splice_bias": 16}
                assert {key: n for key, n in heights.items() if key[0] in {lid for lid, _ in suffix}} == suffix
        # under act_rule 'sum' a suffix ReLU re-routes bias mass, so every coalition is a whole-stack splice
        pair = small_model(modalities=2)
        counts.update(dict.fromkeys(names, 0))
        heights.clear()
        hybrid_shapley(pair, gen_sample_set(5, pair, 1)[0], SplitConfig(act_rule="sum"))
        assert counts == {"_decompose": 1, "_splice": 4, "_splice_bias": 0}
        assert all(rows == 3 for _, rows in heights if rows)
        attr = hybrid_shapley(model, y, state=state)
        # y pushed through x's linearization, not a fresh one, and no cache added or replaced
        assert np.array_equal(attr.total, propagate(model, state, y)[model.output].total())
        assert not np.array_equal(attr.total, decompose(model, y).output.total())
        assert state.caches.keys() == before.keys()
        for lid, cache in state.caches.items():
            assert cache.keys() == before[lid].keys()
            assert all(cache[key] is before[lid][key] for key in cache)

    @pytest.mark.parametrize(
        "model",
        [every_kind_suffix_model(2), every_kind_suffix_model(3), small_model(5, modalities=4, include_attention=True)],
        ids=["every-kind-m2", "every-kind-m3", "attention-m4"],
    )
    def test_empty_run_left_out_keeps_the_explicit_zero_row_run(self, model):
        """rest=None keeps the bits of an explicit empty run, signs of zero included: zero modality rows and the
        full run's bias row at the frontier, and its suffix stacks spliced from those."""
        m = model.modalities
        x = gen_sample_set(11, model, 1)[0]
        for label in ("identity-ratio", "identity-identity"):
            plan = _Plan(model, SplitConfig.parse(label))
            full, state = _decompose(plan, [x], keep=plan.frontier.union(layer.id for layer in plan.suffix))
            empty = {lid: np.concatenate([np.zeros_like(full[lid][:-1]), full[lid][-1:]]) for lid in plan.frontier}
            empty = _splice(plan, state, full, empty, set())
            for mask in range(1 << m):
                members = {i for i in range(m) if mask >> i & 1}
                left_out = _splice_bias(plan, state, full, None, members)
                assert left_out.tobytes() == _splice_bias(plan, state, full, empty, members).tobytes(), (label, mask)

    @pytest.mark.parametrize("model", [every_kind_suffix_model(2), small_model(5)], ids=["every-kind", "small"])
    def test_rerouting_splice_fills_left_out_rows_with_zeros(self, model):
        """Under an act_rule, _splice with rest=None keeps every stack's bits of the explicit empty frontier."""
        x = gen_sample_set(11, model, 1)[0]
        for label in ("identity-ratio-sum", "identity-ratio-ratio"):
            plan = _Plan(model, SplitConfig.parse(label))
            assert plan.reroutes
            full, state = _decompose(plan, [x], keep=plan.frontier)
            empty = {lid: np.concatenate([np.zeros_like(full[lid][:-1]), full[lid][-1:]]) for lid in plan.frontier}
            for members in (set(), {0}, {1}, {0, 1}):
                left_out, explicit = _splice(plan, state, full, None, members), _splice(plan, state, full, empty, members)
                assert left_out.keys() == explicit.keys()
                for lid, h in explicit.items():
                    assert left_out[lid].tobytes() == h.tobytes(), (label, members, lid)

    def test_frontier_of_attention_net(self):
        model = small_model(5, modalities=3, include_attention=True)
        plan = _Plan(model, SplitConfig())
        assert [layer.id for layer in plan.suffix] == [
            "attn_scores", "attn_softmax", "attn_out", "head"
        ]
        assert plan.frontier == {"attn_q", "attn_k", "attn_v"}

    def test_sum_rule_makes_branch_activations_mix_rows(self):
        model = small_model(5)
        plan = _Plan(model, SplitConfig())
        assert plan.suffix == [] and plan.frontier == {model.output}
        plan = _Plan(model, SplitConfig(act_rule="sum"))
        mixed = {layer.id for layer in plan.suffix}
        assert "branch0_act" in mixed and "branch1_act" in mixed
        assert "branch0_norm" in plan.frontier
