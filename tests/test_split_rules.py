import itertools

import numpy as np
import pytest

from modaldecomp import (
    DecomposedTensor,
    LayerSpec,
    RecordedState,
    SplitConfig,
    decompose,
    gen_sample_set,
    lin_activation,
    propagate,
    record,
)
from modaldecomp.decompose import _chord_ratio

from conftest import small_model

EPS = 1e-6


def relu_state(pre):
    pre = np.asarray(pre, float)
    out = np.maximum(pre, 0.0)
    c, r = _chord_ratio(pre, out, EPS)
    layer = LayerSpec("y", "ReLU", ["x"], {})
    state = RecordedState({}, {"y": {"ratio": c, "residual": r}}, EPS)
    return layer, state, out


def run_rule(components, rule):
    parts = np.stack([np.atleast_1d(np.asarray(c, float)) for c in components])
    pre = parts.sum(axis=0)
    layer, state, out = relu_state(pre)
    got = lin_activation(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule))
    return got, out


class TestSumRule:
    def test_radar_condition_hand_trace(self):
        got, out = run_rule([[-1.0], [2.0], [1.0]], "sum")
        assert np.allclose(got.parts[:, 0], [-1.0, 3.0, 0.0], atol=1e-6)
        assert got.bias[0] == 0.0
        assert np.allclose(got.total(), out, rtol=1e-12, atol=1e-12)  # sum stays ReLU(2) = 2

    def test_camera_condition(self):
        got, out = run_rule([[2.0], [-1.0], [0.5]], "sum")
        assert np.allclose(got.parts[:, 0], [2.5, -1.0, 0.0], atol=1e-6)
        assert got.bias[0] == 0.0
        assert np.allclose(got.total(), out, rtol=1e-12, atol=1e-12)

    def test_no_condition_passthrough(self):
        # all positive fires neither sum condition
        got, out = run_rule([[1.0], [2.0], [0.5]], "sum")
        assert np.allclose(got.parts[:, 0], [1.0, 2.0, 0.5], atol=1e-5)
        assert np.allclose(got.total(), out, rtol=1e-12, atol=1e-12)

    def test_zero_component_goes_nowhere(self):
        # strict signs: zero entries leave the bias untouched
        got, _ = run_rule([[0.0], [2.0], [1.0]], "sum")
        assert got.bias[0] != 0.0


class TestRatioRule:
    def test_all_positive_hand_trace(self):
        got, out = run_rule([[1.0], [3.0], [4.0]], "ratio")
        assert np.allclose(got.parts[:, 0], [2.0, 6.0, 0.0], atol=1e-6)
        assert got.bias[0] == 0.0
        assert np.allclose(got.total(), out, rtol=1e-12, atol=1e-12)

    def test_opposite_bias_sign_swaps_shares(self):
        # second condition: components positive, bias negative
        got, out = run_rule([[1.0], [3.0], [-2.0]], "ratio")
        alpha = 3.0 / (4.0 + EPS)
        want0 = 1.0 + alpha * -2.0
        want1 = 3.0 + (1 - alpha) * -2.0
        assert np.allclose(got.parts[:2, 0], [want0, want1], atol=1e-5)
        assert got.bias[0] == 0.0
        assert np.allclose(got.total(), out, rtol=1e-12, atol=1e-12)

    def test_mixed_signs_passthrough(self):
        got, _ = run_rule([[1.0], [-3.0], [4.0]], "ratio")
        assert got.bias[0] != 0.0


class TestRuleInvariants:
    @pytest.mark.parametrize("rule", ["sum", "ratio"])
    def test_bias_zero_wherever_fired(self, rule, rng):
        parts = rng.normal(size=(3, 200))
        pre = parts.sum(axis=0)
        layer, state, _ = relu_state(pre)
        got = lin_activation(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule))
        h0, h1, hb = parts
        if rule == "sum":
            fired = ((h0 > 0) & (h1 < 0) & (hb > 0)) | ((h0 < 0) & (h1 > 0) & (hb < 0))
            fired |= ((h0 < 0) & (h1 > 0) & (hb > 0)) | ((h0 > 0) & (h1 < 0) & (hb < 0))
        else:
            fired = ((h0 > 0) & (h1 > 0) & (hb > 0)) | ((h0 < 0) & (h1 < 0) & (hb < 0))
            fired |= ((h0 > 0) & (h1 > 0) & (hb < 0)) | ((h0 < 0) & (h1 < 0) & (hb > 0))
        assert fired.any()
        assert np.all(got.bias[fired] == 0.0)

    @pytest.mark.parametrize("rule", ["sum", "ratio"])
    def test_matches_row_by_row_reference(self, rule, rng):
        """The routing after the frozen map equals re-routing the input bias row first."""
        parts = rng.normal(size=(3, 400))
        layer, state, _ = relu_state(parts.sum(axis=0))
        got = lin_activation(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule))
        c, r = state.caches["y"]["ratio"], state.caches["y"]["residual"]
        h0, h1, hb = parts
        if rule == "sum":
            to0 = ((h0 > 0) & (h1 < 0) & (hb > 0)) | ((h0 < 0) & (h1 > 0) & (hb < 0))
            to1 = ((h0 < 0) & (h1 > 0) & (hb > 0)) | ((h0 > 0) & (h1 < 0) & (hb < 0))
            share0, share1 = to0.astype(float), to1.astype(float)
        else:
            same = ((h0 > 0) & (h1 > 0) & (hb > 0)) | ((h0 < 0) & (h1 < 0) & (hb < 0))
            opp = ((h0 > 0) & (h1 > 0) & (hb < 0)) | ((h0 < 0) & (h1 < 0) & (hb > 0))
            alpha = np.abs(h1) / (np.abs(h0) + np.abs(h1) + EPS)
            share0 = np.where(same, 1.0 - alpha, np.where(opp, alpha, 0.0))
            share1 = np.where(same, alpha, np.where(opp, 1.0 - alpha, 0.0))
        fired = (share0 + share1) > 0
        want = np.stack([
            c * (h0 + share0 * hb) + share0 * r,
            c * (h1 + share1 * hb) + share1 * r,
            np.where(fired, 0.0, c * hb + r),
        ])
        assert np.max(np.abs(got.parts - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))

    @pytest.mark.parametrize("rule", ["none", "sum", "ratio"])
    def test_zero_output_neurons_zero_everywhere(self, rule, rng):
        parts = rng.normal(size=(3, 100))
        pre = parts.sum(axis=0)
        layer, state, out = relu_state(pre)
        got = lin_activation(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule))
        dead = out == 0.0
        assert dead.any()
        assert np.all(got.parts[:, dead] == 0.0)

    @pytest.mark.parametrize("rule", ["sum", "ratio"])
    def test_rules_need_two_modalities(self, rule):
        parts = np.zeros((4, 3))  # three modalities plus bias
        layer, state, _ = relu_state(np.zeros(3))
        with pytest.raises(ValueError, match="two modalities"):
            lin_activation(layer, DecomposedTensor(parts), state, SplitConfig(act_rule=rule))

    @pytest.mark.parametrize("rule", ["sum", "ratio"])
    def test_three_modality_model_rejected(self, rule):
        model = small_model(4, modalities=3)
        x = gen_sample_set(4, model, 1)[0]
        with pytest.raises(ValueError, match="two modalities"):
            decompose(model, x, SplitConfig(act_rule=rule))


def test_conservation_across_all_split_configs():
    model = small_model(9, depth=3)
    x = gen_sample_set(21, model, 1)[0]
    cfg0 = SplitConfig()
    state = record(model, x, cfg0)
    totals = []
    for bn, ln, act in itertools.product(
        ("identity", "uniform"), ("ratio", "identity", "uniform"), ("none", "sum", "ratio")
    ):
        out = propagate(model, state, x, SplitConfig(bn, ln, act))[model.output]
        totals.append(out.total())
    ref = totals[0]
    tol = 1e-12 * (1.0 + np.max(np.abs(ref)))
    for t in totals[1:]:
        assert np.max(np.abs(t - ref)) <= tol
