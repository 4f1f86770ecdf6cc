import copy
import sys

import numpy as np
import pytest

from modaldecomp import (
    ModelError,
    ModelGraph,
    SplitConfig,
    decompose,
    forward,
    gen_sample_set,
    hybrid_shapley,
    pearson,
    propagate,
    record,
    shapley,
)
from modaldecomp.decompose import _Plan

from conftest import count_calls, full_propagate_hybrid, scalar_pair_model, small_model


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

    def test_one_decompose_one_prefix_sweep_and_a_splice_per_coalition(self, monkeypatch):
        """One full sweep, the empty run a prefix sweep and every coalition a splice; a given state is only read."""
        model = small_model(modalities=4, include_attention=True)
        x, y = gen_sample_set(5, model, 2).samples
        state = record(model, x)
        before = {lid: dict(cache) for lid, cache in state.caches.items()}
        names = ("_decompose", "_sweep_runs", "_splice")
        counts = count_calls(monkeypatch, ("modaldecomp.decompose", "modaldecomp.shapley"), names)
        hybrid_shapley(model, x)
        assert counts == {"_decompose": 1, "_sweep_runs": 1, "_splice": 16}
        counts.update(dict.fromkeys(names, 0))
        attr = hybrid_shapley(model, y, state=state)
        assert counts == {"_decompose": 1, "_sweep_runs": 1, "_splice": 16}
        # y pushed through x's linearization, not a fresh one, and no cache added or replaced
        assert np.array_equal(attr.total, propagate(model, state, y)[model.output].total())
        assert not np.array_equal(attr.total, decompose(model, y).output.total())
        assert state.caches.keys() == before.keys()
        for lid, cache in state.caches.items():
            assert cache.keys() == before[lid].keys()
            assert all(cache[key] is before[lid][key] for key in cache)

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
