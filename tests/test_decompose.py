import math
import sys
from collections import Counter

import numpy as np
import pytest

from modaldecomp import (
    DecomposedTensor,
    DecompositionError,
    LayerSpec,
    MetricConfig,
    ModelError,
    ModelGraph,
    RecordedState,
    SplitConfig,
    decompose,
    equality_residuals,
    forward,
    gen_sample_set,
    hybrid_shapley,
    lin_concat,
    lin_matmul,
    lin_residual_add,
    perturbation_protocol,
    propagate,
    record,
)
from modaldecomp.decompose import (
    _chord_ratio,
    _decompose,
    _frozen_rule,
    _input_stack,
    _Plan,
    _rowsum,
)
from modaldecomp.model import _softmax, matmul_pair, norm_axes, norm_stats

from conftest import every_kind_suffix_model, push, scalar_pair_model, small_model

EPS = 1e-6


def dt(*components):
    return DecomposedTensor(np.stack([np.atleast_1d(np.asarray(c, float)) for c in components]))


class TestRecord:
    def test_relu_ratios(self):
        c, r = _chord_ratio(np.array([-2.0, 3.0]), np.array([0.0, 3.0]), EPS)
        assert c[0] == 0.0
        assert math.isclose(c[1], 3.0 / (3.0 + EPS), rel_tol=1e-15)

    def test_relu_at_zero(self):
        c, _ = _chord_ratio(np.array([0.0]), np.array([0.0]), EPS)
        assert c[0] == 0.0

    def test_gelu_ratio_at_one(self):
        gelu_one = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        c, _ = _chord_ratio(np.array([1.0]), np.array([gelu_one]), EPS)
        assert math.isclose(c[0], gelu_one / (1.0 + EPS), rel_tol=1e-15)

    def test_ratio_reconstruction_invariant(self, rng):
        # at unguarded neurons c * (pre + eps) reproduces the output
        pre = rng.normal(size=200)
        pre = pre[np.abs(pre) > 10 * EPS]
        out = np.maximum(pre, 0.0)
        c, _ = _chord_ratio(pre, out, EPS)
        assert np.max(np.abs(c * (pre + EPS) - out)) <= 1e-12 * (1.0 + np.max(np.abs(out)))

    def test_guard_zeroes_exploding_ratio(self):
        # softmax of uniform logits: output 0.5 over input 0
        pre = np.array([0.0, 0.0])
        out = _softmax(pre, 0)
        c, r = _chord_ratio(pre, out, EPS)
        assert np.all(c == 0.0)
        assert np.array_equal(r, out)

    def test_guard_covers_denominator_hazard(self):
        pre = np.array([-EPS])
        c, r = _chord_ratio(pre, np.array([-0.4 * EPS]), EPS)
        assert np.all(np.isfinite(c)) and np.all(np.isfinite(r))

    def test_records_all_activations(self):
        # one cache per activation, softmax and LayerNorm/InstanceNorm layer, none else
        model = small_model(include_attention=True)
        x = gen_sample_set(1, model, 1)[0]
        state = record(model, x)
        cached = {"ReLU", "GELU", "Softmax", "LayerNorm", "InstanceNorm"}
        assert set(state.caches) == {l.id for l in model.layers if l.kind in cached}
        assert state.inputs.keys() == x.keys()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_activation_named(self):
        model = scalar_pair_model(w0=1.0, w1=1.0, bias=0.0)
        layers = model.layers + [
            LayerSpec("big", "Dense", ["head"], {"weight": np.array([[1e308]]), "bias": np.array([1e308])})
        ]
        bad = ModelGraph(layers, "big", 2)
        with pytest.raises(DecompositionError, match="big"):
            record(bad, {0: np.array([1.0]), 1: np.array([1.0])})


def test_input_layer_stack_is_its_own_modality_row():
    # at each Input layer only its own modality's row is non-zero, and it and the total are the input
    model = small_model(modalities=3)
    x = gen_sample_set(3, model, 1)[0]
    res = decompose(model, x)
    for m, lid in model.modality_inputs.items():
        d = res.components[lid]
        assert d.parts.shape == (4,) + x[m].shape
        assert np.array_equal(d.modality(m), x[m]) and np.array_equal(d.total(), x[m])
        assert all(np.all(d.parts[r] == 0.0) for r in range(4) if r != m)


class TestSplitInput:
    # an Input layer's stack of one run: its own modality carries x, all else zero
    def test_own_component_carries_input(self, rng):
        x = rng.normal(size=(1, 2, 2))
        d = DecomposedTensor(_input_stack([x], 0, 2))
        assert np.array_equal(d.modality(0), x)
        assert np.all(d.modality(1) == 0.0) and np.all(d.bias == 0.0)

    def test_three_modalities(self, rng):
        x = rng.normal(size=(4,))
        d = DecomposedTensor(_input_stack([x], 2, 3))
        assert d.parts.shape[0] == 4
        nonzero = [i for i in range(4) if np.any(d.parts[i] != 0)]
        assert nonzero == [2]

    def test_components_sum_to_input(self, rng):
        x = rng.normal(size=(3, 3))
        assert np.array_equal(DecomposedTensor(_input_stack([x], 1, 2)).total(), x)


class TestAffineRule:
    def test_dense_hand_example(self):
        layer = LayerSpec("y", "Dense", ["x"], {"weight": np.array([[2.0]]), "bias": np.array([1.0])})
        out = push(layer, dt([1.0], [2.0], [0.0]))
        assert np.array_equal(out.parts[:, 0], [2.0, 4.0, 1.0])
        assert np.array_equal(out.total(), [7.0])

    def test_zero_weights_leave_only_layer_bias(self):
        layer = LayerSpec("y", "Dense", ["x"], {"weight": np.zeros((2, 3)), "bias": np.array([5.0, -1.0])})
        out = push(layer, DecomposedTensor(np.random.default_rng(0).normal(size=(3, 3))))
        assert np.all(out.parts[:2] == 0.0)
        assert np.array_equal(out.bias, [5.0, -1.0])

    def test_conv_sum_matches_plain_conv(self, rng):
        from modaldecomp.tensor import conv2d

        layer = LayerSpec(
            "y",
            "Conv2d",
            ["x"],
            {"weight": rng.normal(size=(2, 3, 3, 3)), "bias": rng.normal(size=2), "stride": 1, "padding": 1},
        )
        d = DecomposedTensor(rng.normal(size=(3, 3, 5, 5)))
        out = push(layer, d)
        ref = conv2d(d.total(), layer.params["weight"], layer.params["bias"], 1, 1)
        assert np.allclose(out.total(), ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c_in", [1, 3])
    def test_conv_rows_are_independent(self, rng, c_in):
        # a component's conv image must not depend on the rows stacked with it
        layer = LayerSpec(
            "y",
            "Conv2d",
            ["x"],
            {"weight": rng.normal(size=(4, c_in, 3, 3)), "bias": rng.normal(size=4), "stride": 1, "padding": 1},
        )
        conv, _, _ = _frozen_rule(layer, None, None, 3)
        stack = rng.normal(size=(5, c_in, 6, 6))
        out = conv(stack)
        for k in range(5):
            assert np.array_equal(conv(stack[k : k + 1])[0], out[k])


class TestStructuralRules:
    def test_concat_componentwise(self):
        a = dt([1.0], [0.0], [0.0])
        b = dt([0.0], [2.0], [0.0])
        out = DecomposedTensor(lin_concat([a.parts, b.parts], 0))
        assert np.array_equal(out.modality(0), [1.0, 0.0])
        assert np.array_equal(out.modality(1), [0.0, 2.0])
        assert np.array_equal(out.bias, [0.0, 0.0])

    def test_residual_with_zero(self, rng):
        d = DecomposedTensor(rng.normal(size=(3, 4)))
        out = DecomposedTensor(lin_residual_add(d.parts, np.zeros((3, 4))))
        assert np.array_equal(out.parts, d.parts)

    def test_sum_preserved(self, rng):
        a = DecomposedTensor(rng.normal(size=(3, 4)))
        b = DecomposedTensor(rng.normal(size=(3, 4)))
        assert np.allclose(lin_residual_add(a.parts, b.parts).sum(axis=0), a.total() + b.total())
        cat = DecomposedTensor(lin_concat([a.parts, b.parts], 0))
        assert np.allclose(cat.total(), np.concatenate([a.total(), b.total()]))


def bn_layer(gamma, beta, mean, var, eps=0.0):
    return LayerSpec(
        "y",
        "BatchNorm",
        ["x"],
        {
            "gamma": np.atleast_1d(np.asarray(gamma, float)),
            "beta": np.atleast_1d(np.asarray(beta, float)),
            "mean": np.atleast_1d(np.asarray(mean, float)),
            "var": np.atleast_1d(np.asarray(var, float)),
            "eps": eps,
        },
    )


class TestBatchNormRule:
    def test_identity_normalization_is_noop(self, rng):
        layer = bn_layer(1.0, 0.0, 0.0, 1.0)
        d = DecomposedTensor(rng.normal(size=(3, 1)))
        assert np.allclose(push(layer, d).parts, d.parts)

    def test_identity_rule_hand_example(self):
        layer = bn_layer(2.0, 1.0, 0.5, 1.0)
        out = push(layer, dt([1.0], [0.0], [0.5]), None, SplitConfig(bn_rule="identity"))
        assert np.allclose(out.parts[:, 0], [2.0, 0.0, 1.0])
        assert np.allclose(out.total(), [2.0 * (1.5 - 0.5) + 1.0])

    def test_uniform_rule_with_vanishing_constant(self):
        # beta - mean*gamma/std = 0 here, so both rules coincide
        layer = bn_layer(2.0, 1.0, 0.5, 1.0)
        a = push(layer, dt([1.0], [0.0], [0.5]), None, SplitConfig(bn_rule="identity"))
        b = push(layer, dt([1.0], [0.0], [0.5]), None, SplitConfig(bn_rule="uniform"))
        assert np.allclose(a.parts, b.parts)

    def test_uniform_rule_spreads_constant(self):
        layer = bn_layer(1.0, 3.0, 0.0, 1.0)
        out = push(layer, dt([0.0], [0.0], [0.0]), None, SplitConfig(bn_rule="uniform"))
        assert np.allclose(out.parts[:, 0], [1.0, 1.0, 1.0])


class TestNormRulesOnNets:
    def test_layernorm_net_equality(self):
        model = small_model(norms=("layernorm",))
        x = gen_sample_set(2, model, 1)[0]
        res = decompose(model, x)
        assert max(equality_residuals(model, res.components, res.state).values()) <= 1e-9

    def test_instancenorm_net_equality(self):
        model = small_model(norms=("instancenorm",))
        x = gen_sample_set(2, model, 1)[0]
        res = decompose(model, x)
        assert max(equality_residuals(model, res.components, res.state).values()) <= 1e-9

    def test_instancenorm_constant_channel(self):
        layer = LayerSpec(
            "y",
            "InstanceNorm",
            ["x"],
            {"gamma": np.array([1.0]), "beta": np.array([0.7]), "eps": 0.0},
        )
        pre = np.full((1, 2, 2), 3.0)
        state = RecordedState(
            {},
            {"y": {"mean": pre.mean(axis=(1, 2), keepdims=True), "var": np.ones((1, 1, 1))}},
            EPS,
        )
        d = DecomposedTensor(np.stack([pre, np.zeros_like(pre), np.zeros_like(pre)]))
        out = push(layer, d, state)
        assert np.all(out.modality(0) == 0.0)
        assert np.allclose(out.bias, 0.7)

    def test_layernorm_per_component_centering_sums(self, rng):
        # E[sum of parts] == sum of E[parts]: centered components reassemble
        gamma = rng.uniform(0.8, 1.2, size=(2, 3))
        layer = LayerSpec(
            "y",
            "LayerNorm",
            ["x"],
            {"axes": (0, 1), "gamma": gamma, "beta": rng.normal(size=(2, 3)), "eps": 1e-5},
        )
        pre = rng.normal(size=(2, 3))
        mean = pre.mean(keepdims=True)
        var = ((pre - mean) ** 2).mean(keepdims=True)
        state = RecordedState({}, {"y": {"mean": mean, "var": var}}, EPS)
        parts = rng.normal(size=(3, 2, 3))
        parts[2] = pre - parts[0] - parts[1]
        out = push(layer, DecomposedTensor(parts), state, SplitConfig(ln_rule="ratio"))
        ref = (pre - mean) / np.sqrt(var + 1e-5) * gamma + layer.params["beta"]
        assert np.allclose(out.total(), ref, rtol=1e-12, atol=1e-12)


class TestSoftmaxRule:
    def test_equal_logits(self):
        pre = np.array([1.0, 1.0])
        out_ref = _softmax(pre, 0)
        c, r = _chord_ratio(pre, out_ref, EPS)
        layer = LayerSpec("y", "Softmax", ["x"], {"axis": 0})
        state = RecordedState({}, {"y": {"ratio": c, "residual": r}}, EPS)
        d = DecomposedTensor(np.stack([pre * 0.25, pre * 0.75, np.zeros(2)]))
        out = push(layer, d, state)
        assert np.allclose(c, 0.5 / (1.0 + EPS))
        assert np.allclose(out.total(), out_ref, rtol=1e-12)

    def test_degenerate_logits_guarded(self):
        pre = np.zeros(2)
        out_ref = _softmax(pre, 0)
        c, r = _chord_ratio(pre, out_ref, EPS)
        layer = LayerSpec("y", "Softmax", ["x"], {"axis": 0})
        state = RecordedState({}, {"y": {"ratio": c, "residual": r}}, EPS)
        d = DecomposedTensor(np.stack([np.ones(2), -np.ones(2), np.zeros(2)]))
        out = push(layer, d, state)
        assert np.all(np.isfinite(out.parts))
        assert np.allclose(out.total(), out_ref)
        assert np.allclose(out.bias, out_ref)  # everything re-routed to bias

    def test_sum_forced(self, rng):
        pre = rng.normal(size=6)
        out_ref = _softmax(pre, 0)
        c, r = _chord_ratio(pre, out_ref, EPS)
        layer = LayerSpec("y", "Softmax", ["x"], {"axis": 0})
        state = RecordedState({}, {"y": {"ratio": c, "residual": r}}, EPS)
        parts = rng.normal(size=(3, 6))
        parts[2] = pre - parts[0] - parts[1]
        out = push(layer, DecomposedTensor(parts), state)
        assert np.allclose(out.total(), out_ref, rtol=1e-9)


class TestMatMulRule:
    def test_scalar_expansion(self):
        a = DecomposedTensor(np.array([[[1.0]], [[2.0]], [[0.0]]]))
        b = DecomposedTensor(np.array([[[3.0]], [[0.0]], [[1.0]]]))
        out = DecomposedTensor(lin_matmul(a.parts, b.parts))
        assert out.modality(0)[0, 0] == 3.0
        assert out.modality(1)[0, 0] == 0.0
        assert out.bias[0, 0] == 9.0

    def test_pure_bias_operand(self, rng):
        a = DecomposedTensor(np.stack([np.zeros((2, 2)), np.zeros((2, 2)), rng.normal(size=(2, 2))]))
        b = DecomposedTensor(rng.normal(size=(3, 2, 2)))
        out = DecomposedTensor(lin_matmul(a.parts, b.parts))
        assert np.all(out.modality(0) == 0.0) and np.all(out.modality(1) == 0.0)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("transpose_b", [False, True])
    def test_matches_per_modality_products(self, rng, rows, batch, transpose_b):
        a = DecomposedTensor(rng.normal(size=(rows,) + batch + (4, 5)))
        b = DecomposedTensor(rng.normal(size=(rows,) + batch + ((2, 5) if transpose_b else (5, 2))))
        out = DecomposedTensor(lin_matmul(a.parts, b.parts, transpose_b))
        mods = [matmul_pair(a.parts[m], b.parts[m], transpose_b) for m in range(rows - 1)]
        bias = matmul_pair(a.total(), b.total(), transpose_b) - sum(mods)
        assert np.array_equal(out.parts, np.stack(mods + [bias]))

    @pytest.mark.parametrize("shape", [(2,), (3, 1), (1, 7), (2, 4, 5)])
    @pytest.mark.parametrize("rows", [2, 3, 5, 9])
    def test_row_sum_keeps_the_bits_of_a_stack_sum(self, rng, rows, shape):
        """Rows summed as a stack or gathered as a list read as numpy's sum over axis 0, -0.0 included."""
        stack = rng.normal(size=(rows,) + shape) * 10.0 ** rng.integers(-8, 9, size=(rows,) + shape)
        stack[:, 0] = -0.0  # numpy sums onto +0.0, so negative zeros sum to +0.0
        want = stack.sum(axis=0).tobytes()
        assert _rowsum(stack).tobytes() == want
        assert _rowsum(list(stack)).tobytes() == want

    def test_distributivity_exact(self, rng):
        a = DecomposedTensor(rng.normal(size=(3, 4, 5)))
        b = DecomposedTensor(rng.normal(size=(3, 5, 2)))
        out = DecomposedTensor(lin_matmul(a.parts, b.parts))
        assert np.allclose(out.total(), a.total() @ b.total(), rtol=1e-12, atol=1e-12)


class TestDecompose:
    def test_equality_across_models_and_configs(self):
        seeds_specs = [
            (0, dict()),
            (1, dict(include_attention=True)),
            (2, dict(norms=("layernorm",), activations=("gelu",))),
            (3, dict(norms=(), activations=())),
            (4, dict(modalities=3)),
        ]
        for seed, overrides in seeds_specs:
            model = small_model(seed, **overrides)
            x = gen_sample_set(seed + 100, model, 1)[0]
            configs = [SplitConfig(), SplitConfig("uniform", "identity")]
            if model.modalities == 2:
                configs.append(SplitConfig(act_rule="sum"))
            for cfg in configs:
                res = decompose(model, x, cfg)
                worst = max(equality_residuals(model, res.components, res.state).values())
                assert worst <= 1e-9, (seed, overrides, cfg)

    def test_affine_net_matches_end_to_end_composition(self):
        model = small_model(norms=(), activations=())
        x = gen_sample_set(7, model, 1)[0]
        res = decompose(model, x)
        zeros = {m: np.zeros(model.input_shape(m)) for m in range(model.modalities)}
        f0 = forward(model, zeros)[model.output]
        peak = 1.0 + np.max(np.abs(forward(model, x)[model.output]))
        for m in range(model.modalities):
            alone = dict(zeros)
            alone[m] = x[m]
            ref = forward(model, alone)[model.output] - f0
            assert np.max(np.abs(res.output.modality(m) - ref)) / peak <= 1e-9
        assert np.max(np.abs(res.output.bias - f0)) / peak <= 1e-9

    def test_three_modalities_give_four_components(self):
        model = small_model(4, modalities=3)
        x = gen_sample_set(5, model, 1)[0]
        res = decompose(model, x)
        assert res.output.parts.shape[0] == 4
        worst = max(equality_residuals(model, res.components, res.state).values())
        assert worst <= 1e-9

    def test_epsilon_mismatch_rejected(self):
        model = small_model()
        x = gen_sample_set(1, model, 1)[0]
        state = record(model, x, SplitConfig(epsilon=1e-6))
        with pytest.raises(ValueError, match="epsilon"):
            propagate(model, state, x, SplitConfig(epsilon=1e-5))


class TestSeparation:
    def test_unperturbed_components_bit_identical(self):
        model = small_model()
        samples = gen_sample_set(3, model, 4)
        cfg = SplitConfig()
        state = record(model, samples[0], cfg)
        clean = propagate(model, state, samples[0], cfg)[model.output]
        pert_in = dict(samples[0])
        pert_in[1] = samples[2][1]
        pert = propagate(model, state, pert_in, cfg)[model.output]
        assert np.array_equal(clean.modality(0), pert.modality(0))
        assert np.array_equal(clean.bias, pert.bias)
        assert not np.array_equal(clean.modality(1), pert.modality(1))

    def test_modality_components_stable_under_matmul(self):
        # bilinear cross terms move only the bias component
        model = small_model(6, include_attention=True)
        samples = gen_sample_set(8, model, 4)
        cfg = SplitConfig()
        state = record(model, samples[1], cfg)
        clean = propagate(model, state, samples[1], cfg)[model.output]
        pert_in = dict(samples[1])
        pert_in[0] = samples[3][0]
        pert = propagate(model, state, pert_in, cfg)[model.output]
        assert np.array_equal(clean.modality(1), pert.modality(1))
        assert not np.array_equal(clean.bias, pert.bias)

    def test_masked_input_reproduces_component_streams(self):
        # feeding one modality alone through the frozen net yields exactly
        # the full run's component for it, with constants still on bias
        model = small_model()
        x = gen_sample_set(12, model, 1)[0]
        cfg = SplitConfig()
        state = record(model, x, cfg)
        full = propagate(model, state, x, cfg)[model.output]
        for m in range(model.modalities):
            masked = {
                i: x[i] if i == m else np.zeros(model.input_shape(i))
                for i in range(model.modalities)
            }
            alone = propagate(model, state, masked, cfg)[model.output]
            assert np.array_equal(alone.modality(m), full.modality(m))
            assert np.array_equal(alone.bias, full.bias)
            assert np.all(alone.modality(1 - m) == 0.0)


def two_pass(model, x, cfg):
    """The reference: a plain forward, the caches from its activations, then propagate."""
    acts = forward(model, x)
    caches = {}
    for layer in model.layers:
        if layer.kind in ("ReLU", "GELU", "Softmax"):
            c, r = _chord_ratio(acts[layer.inputs[0]], acts[layer.id], cfg.epsilon)
            caches[layer.id] = {"ratio": c, "residual": r}
        elif layer.kind in ("LayerNorm", "InstanceNorm"):
            pre = acts[layer.inputs[0]]
            mean, var = norm_stats(pre, norm_axes(layer, pre.ndim))
            caches[layer.id] = {"mean": mean, "var": var}
    return propagate(model, RecordedState(dict(x), caches, cfg.epsilon), x, cfg)


class TestOneSweep:
    @pytest.mark.parametrize(
        "overrides, cfg",
        [
            (dict(), SplitConfig()),
            (dict(), SplitConfig("uniform", "identity")),
            (dict(norms=("layernorm",), activations=("gelu",)), SplitConfig(ln_rule="uniform")),
            (dict(include_attention=True), SplitConfig()),
            (dict(include_attention=True), SplitConfig(act_rule="sum")),
            (dict(), SplitConfig(act_rule="ratio")),
            (dict(modalities=3), SplitConfig()),
            (dict(modalities=4, include_attention=True), SplitConfig("uniform", "uniform")),
        ],
        ids=["plain", "uniform-identity", "layernorm-gelu", "attention", "attention-sum",
             "act-ratio", "m3", "m4-attention"],
    )
    def test_matches_two_pass_reference(self, overrides, cfg):
        model = small_model(11, depth=3, **overrides)
        x = gen_sample_set(21, model, 1)[0]
        ref = two_pass(model, x, cfg)
        res = decompose(model, x, cfg)
        for layer in model.layers:
            got, want = res.components[layer.id].parts, ref[layer.id].parts
            assert np.max(np.abs(got - want)) <= 1e-10 * (1.0 + np.max(np.abs(want))), layer.id

    def test_runs_no_plain_forward(self, monkeypatch):
        def no_forward(*args):
            raise AssertionError("decompose ran a plain forward")

        model = small_model(include_attention=True)
        x = gen_sample_set(1, model, 1)[0]
        monkeypatch.setattr(sys.modules["modaldecomp.decompose"], "forward", no_forward)
        decompose(model, x)

    def test_equality_residuals_flag_a_shifted_row(self):
        # the reference is a plain forward, not the stacks' own sum
        model = small_model()
        x = gen_sample_set(3, model, 1)[0]
        res = decompose(model, x)
        target = model.layers[len(model.layers) // 2].id
        res.components[target].parts[0] += 1e-6
        residuals = equality_residuals(model, res.components, res.state)
        assert residuals[target] > 1e-9
        assert all(v <= 1e-9 for lid, v in residuals.items() if lid != target)

    def test_equality_residuals_compare_with_recorded_input(self):
        # stacks pushed from another input sum to that input's activations, not the state's
        model = small_model()
        samples = gen_sample_set(3, model, 2)
        state = record(model, samples[0])
        comp = propagate(model, state, samples[1])
        assert max(equality_residuals(model, comp, state).values()) > 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_sample_names_input_layer(self):
        model = small_model()
        x = gen_sample_set(3, model, 1)[0]
        x[1] = x[1].copy()
        x[1][0, 0, 0] = np.inf
        name = model.modality_inputs[1]
        with pytest.raises(DecompositionError, match=f"non-finite activation in layer '{name}'"):
            decompose(model, x)


class TestPlan:
    @pytest.mark.parametrize("call", ["protocol", "hybrid"])
    def test_one_plan_per_call(self, monkeypatch, call):
        """One plan per call, and each Dense/Conv2d/BatchNorm rule bound once."""
        engine = sys.modules["modaldecomp.decompose"]  # the package binds the name to the function
        plans, bound = [], []
        init, frozen_rule = _Plan.__init__, engine._frozen_rule
        monkeypatch.setattr(_Plan, "__init__", lambda plan, *a: plans.append(1) or init(plan, *a))
        monkeypatch.setattr(engine, "_frozen_rule", lambda layer, *a: bound.append(layer.id) or frozen_rule(layer, *a))
        if call == "protocol":
            model = small_model(include_attention=True)
            perturbation_protocol(model, gen_sample_set(3, model, 4), mcfg=MetricConfig(stride=1, offset_count=2))
        else:
            model = small_model(include_attention=True, modalities=4)
            hybrid_shapley(model, gen_sample_set(3, model, 1)[0])
        assert len(plans) == 1
        static = [layer.id for layer in model.layers if layer.kind in ("Dense", "Conv2d", "BatchNorm")]
        assert static and sorted(lid for lid in bound if lid in static) == sorted(static)


class TestSupport:
    """The modality-support table, and the rows that a Dense or Conv2d rule reads from a stack with partial support."""

    def test_support_of_each_layer_kind(self):
        model = small_model(include_attention=True)
        assert model.support["in0"] == (frozenset({0}), False)
        assert model.support["branch0_conv"] == (frozenset({0}), True)  # its bias is a live bias row
        assert model.support["fuse_concat"] == (frozenset({0, 1}), True)
        assert model.support["attn_scores"] == (frozenset({0, 1}), True)
        assert scalar_pair_model().support["cat"] == (frozenset({0, 1}), False)
        branches = {layer.id for layer in model.layers if layer.id.startswith(("in", "branch"))}
        assert _Plan(model, SplitConfig()).partial.keys() == branches  # a concat of both branches has every row
        uniform = _Plan(model, SplitConfig("uniform")).partial
        assert {"in0", "branch0_conv"} <= uniform.keys() and "branch0_norm" not in uniform
        assert "branch0_act" not in uniform  # past a 'uniform' constant every row can be non-zero
        mixing = _Plan(model, SplitConfig(act_rule="sum")).partial
        assert "branch0_norm" in mixing and "branch0_act" not in mixing

    def test_branch_conv_runs_on_its_modality_rows(self, monkeypatch):
        """One row in decompose at M=2, and J rows in the protocol's J-run sweep."""
        engine = sys.modules["modaldecomp.decompose"]
        model = small_model()
        weights = {id(layer.params["weight"]): layer.id for layer in model.layers if layer.kind == "Conv2d"}
        rows, conv2d = {lid: Counter() for lid in weights.values()}, engine.conv2d

        def counted(h, w, *args):
            rows[weights[id(w)]][len(h)] += 1
            return conv2d(h, w, *args)

        monkeypatch.setattr(engine, "conv2d", counted)
        perturbation_protocol(model, gen_sample_set(3, model, 3), mcfg=MetricConfig(stride=1, offset_count=2))
        assert rows["branch0_conv"] == rows["branch1_conv"] == {1: 3, 2: 3}
        assert rows["fuse_conv"] == {3: 3, 5: 3}

    @staticmethod
    def conv_params(rng):
        """A maker of 3x3, stride-1, padding-1 Conv2d parameters drawn from rng."""
        return lambda c_in, c_out: {
            "weight": rng.normal(size=(c_out, c_in, 3, 3)), "bias": rng.normal(size=c_out), "stride": 1, "padding": 1
        }

    @staticmethod
    def branchy_model():
        """Three modalities: a two-modality conv branch and a one-modality dense branch, each with a live bias
        row before its last Dense or Conv2d, and a negative BatchNorm scale and ReLUs that leave -0.0 in the
        zero rows."""
        rng = np.random.default_rng(5)
        conv = TestSupport.conv_params(rng)

        def dense(c_in, c_out):
            return {"weight": rng.normal(size=(c_out, c_in)), "bias": rng.normal(size=c_out)}

        bn = {"mean": rng.normal(size=3), "var": rng.uniform(0.5, 1, 3), "gamma": -rng.uniform(0.5, 1, 3),
              "beta": rng.normal(size=3), "eps": 1e-5}
        layers = [LayerSpec(f"in{m}", "Input", [], {"modality": m, "shape": (2, 5, 5)}) for m in range(3)] + [
            LayerSpec("ac", "ConcatFusion", ["in0", "in2"], {"axis": 0}),
            LayerSpec("ac_conv", "Conv2d", ["ac"], conv(4, 3)),
            LayerSpec("ac_bn", "BatchNorm", ["ac_conv"], bn),
            LayerSpec("ac_relu", "ReLU", ["ac_bn"], {}),
            LayerSpec("ac_dense", "Dense", ["ac_relu"], dense(3, 3)),
            LayerSpec("b_relu", "ReLU", ["in1"], {}),
            LayerSpec("b_dense", "Dense", ["b_relu"], dense(2, 3)),
            LayerSpec("b_gelu", "GELU", ["b_dense"], {}),
            LayerSpec("b_conv", "Conv2d", ["b_gelu"], conv(3, 3)),
            LayerSpec("cat", "ConcatFusion", ["ac_dense", "b_conv"], {"axis": 0}),
            LayerSpec("head", "Conv2d", ["cat"], conv(6, 1)),
        ]
        return ModelGraph(layers, "head", 3)

    def test_row_index_per_stack_height(self):
        plan = _Plan(self.branchy_model(), SplitConfig())
        assert plan._live_rows("in1", 4) == slice(1, 2, 1)  # one run: its own row
        assert plan._live_rows("in1", 7) == slice(1, 5, 3)  # row j*M+1 of each of two runs
        assert plan._live_rows("ac", 7).tolist() == [0, 2, 3, 5]
        assert plan._live_rows("ac_relu", 4).tolist() == [0, 2, 3]  # and the live bias row
        assert plan._live_rows("b_gelu", 7).tolist() == [1, 4, 6]
        assert plan.partial.keys() == {lid for lid in plan.model.support if lid not in ("cat", "head")}

    RULES = [f"{bn}-{ln}" for bn in ("identity", "uniform") for ln in ("ratio", "identity", "uniform")]

    @pytest.mark.parametrize("label", RULES + [f"{rules}-{act}" for rules in RULES for act in ("sum", "ratio")])
    def test_stacks_bit_identical_with_the_table_ignored(self, monkeypatch, label):
        model = small_model(3, include_attention=True)
        self.check_table_ignored(monkeypatch, model, gen_sample_set(4, model, 3).samples, label)

    @pytest.mark.parametrize("label", RULES)
    def test_hand_built_stacks_bit_identical_with_the_table_ignored(self, monkeypatch, label):
        samples = [{m: np.random.default_rng(k).normal(size=(2, 5, 5)) for m in range(3)} for k in range(3)]
        self.check_table_ignored(monkeypatch, self.branchy_model(), samples, label)

    @staticmethod
    def check_table_ignored(monkeypatch, model, samples, label):
        """Every stack of a decompose and of a J-run sweep has the same bits as with an empty row-support table."""
        x, *runs = samples
        plan = _Plan(model, SplitConfig.parse(label))
        got, state = _decompose(plan, [x])
        batches = [[run] for run in runs] if plan.reroutes else [runs]  # a re-routing plan sweeps one run at a time
        swept = [_decompose(plan, batch, state=state)[0] for batch in batches]
        monkeypatch.setattr(plan, "partial", {})
        want, _ = _decompose(plan, [x])
        assert got.keys() == want.keys()
        for lid, h in want.items():
            assert got[lid].tobytes() == h.tobytes(), lid
        for batch, comp in zip(batches, swept):
            for lid, h in _decompose(plan, batch, state=state)[0].items():
                assert comp[lid].tobytes() == h.tobytes(), lid

    @staticmethod
    def branch_norm_model():
        """Two modalities, each with a norm inside its branch and a Conv2d past it: a LayerNorm on modality
        0's, after a Conv2d, and an InstanceNorm on modality 1's raw input."""
        rng = np.random.default_rng(8)
        conv = TestSupport.conv_params(rng)
        ln = {"axes": (0, 1, 2), "gamma": rng.normal(size=(3, 5, 5)), "beta": rng.normal(size=(3, 5, 5)), "eps": 1e-5}
        inorm = {"gamma": rng.normal(size=2), "beta": rng.normal(size=2), "eps": 1e-5}
        layers = [LayerSpec(f"in{m}", "Input", [], {"modality": m, "shape": (2, 5, 5)}) for m in range(2)] + [
            LayerSpec("a_conv", "Conv2d", ["in0"], conv(2, 3)),
            LayerSpec("a_ln", "LayerNorm", ["a_conv"], ln),
            LayerSpec("a_conv2", "Conv2d", ["a_ln"], conv(3, 3)),
            LayerSpec("b_in", "InstanceNorm", ["in1"], inorm),
            LayerSpec("b_conv", "Conv2d", ["b_in"], conv(2, 3)),
            LayerSpec("cat", "ConcatFusion", ["a_conv2", "b_conv"], {"axis": 0}),
            LayerSpec("head", "Conv2d", ["cat"], conv(6, 1)),
        ]
        return ModelGraph(layers, "head", 2)

    @pytest.mark.parametrize("label", RULES)
    def test_norm_inside_a_branch(self, monkeypatch, label):
        """A 'uniform' LayerNorm or InstanceNorm constant reaches every row, so no stack past it is partial."""
        model, cfg = self.branch_norm_model(), SplitConfig.parse(label)
        samples = [{m: np.random.default_rng(k).normal(size=(2, 5, 5)) for m in range(2)} for k in range(3)]
        res = decompose(model, samples[0], cfg)
        assert max(equality_residuals(model, res.components, res.state).values()) <= 1e-9
        partial, past = _Plan(model, cfg).partial.keys(), {"a_ln", "a_conv2", "b_in", "b_conv"}
        assert {"in0", "in1", "a_conv"} <= partial and "cat" not in partial
        assert partial.isdisjoint(past) if cfg.ln_rule == "uniform" else past <= partial
        self.check_table_ignored(monkeypatch, model, samples, label)


class TestRunSweep:
    """A given-state sweep of J runs in one (J*M+1)-row stack."""

    @pytest.mark.parametrize("modalities", [2, 3])
    def test_rows_bit_identical_to_each_runs_propagate(self, modalities):
        """Every modality row at every layer, and the bias row outside the suffix, is the run's own propagate's:
        batched MatMul over J*M rows, LayerNorm/InstanceNorm reductions, Softmax and ConcatFusion included."""
        model = every_kind_suffix_model(modalities)
        x, *runs = gen_sample_set(11, model, 4).samples
        m = modalities
        for label in TestSupport.RULES:
            cfg = SplitConfig.parse(label)
            plan, state = _Plan(model, cfg), record(model, x, cfg)
            suffix = {layer.id for layer in plan.suffix}
            stacked, _ = _decompose(plan, runs, state=state)
            assert stacked.keys() == {layer.id for layer in model.layers}
            for j, run in enumerate(runs):
                for lid, d in propagate(model, state, run, cfg).items():
                    h = stacked[lid]
                    assert h.shape[0] == len(runs) * m + 1
                    assert h[j * m : (j + 1) * m].tobytes() == d.parts[:-1].tobytes(), (label, lid)
                    if lid not in suffix:
                        assert h[-1].tobytes() == d.parts[-1].tobytes(), (label, lid)

    def test_several_runs_need_a_given_state(self):
        model = small_model()
        plan = _Plan(model, SplitConfig())
        with pytest.raises(ValueError, match="several runs needs a given state"):
            _decompose(plan, gen_sample_set(4, model, 2).samples)

    def test_several_runs_refused_when_a_layer_reroutes(self):
        model = small_model()
        x, y = gen_sample_set(4, model, 2).samples
        cfg = SplitConfig(act_rule="sum")
        plan, state = _Plan(model, cfg), record(model, x, cfg)
        assert plan.reroutes
        with pytest.raises(ValueError, match="no layer that re-routes"):
            _decompose(plan, [x, y], state=state)


class TestLiveness:
    CASES = [
        (dict(include_attention=True), SplitConfig()),
        (dict(include_attention=True, modalities=3), SplitConfig("uniform", "uniform")),
        (dict(norms=("layernorm", "instancenorm"), activations=("gelu", "relu")), SplitConfig(act_rule="ratio")),
    ]

    @pytest.mark.parametrize("overrides, cfg", CASES)
    def test_record_caches_match_decompose(self, overrides, cfg):
        # record keeps no stack, and records the same bits as decompose
        model = small_model(3, **overrides)
        x = gen_sample_set(4, model, 1)[0]
        got, want = record(model, x, cfg).caches, decompose(model, x, cfg).state.caches
        assert got.keys() == want.keys()
        for lid, cache in want.items():
            assert got[lid].keys() == cache.keys()
            for name, arr in cache.items():
                assert got[lid][name].dtype == arr.dtype and np.array_equal(got[lid][name], arr), (lid, name)

    @pytest.mark.parametrize("overrides, cfg", CASES)
    def test_public_calls_keep_every_stack(self, overrides, cfg):
        model = small_model(3, **overrides)
        x, y = gen_sample_set(4, model, 2).samples
        res = decompose(model, x, cfg)
        assert list(res.components) == [layer.id for layer in model.layers]
        assert list(propagate(model, res.state, y, cfg)) == [layer.id for layer in model.layers]

    @pytest.mark.parametrize("overrides, cfg", CASES)
    def test_sweep_returns_only_the_kept_stacks(self, overrides, cfg):
        model = small_model(3, **overrides)
        x = gen_sample_set(4, model, 1)[0]
        plan = _Plan(model, cfg)
        full, _ = _decompose(plan, [x])
        for keep in (frozenset(), plan.frontier | {model.output}):
            comp, _ = _decompose(plan, [x], keep)
            assert comp.keys() == keep
            for lid, h in comp.items():
                assert np.array_equal(h, full[lid]), lid

    def test_frees_each_stack_once_after_its_last_reader(self):
        model = small_model(3, include_attention=True)
        plan = _Plan(model, SplitConfig())
        order = {layer.id: k for k, layer in enumerate(model.layers)}
        freed = [lid for layers in plan.frees.values() for lid in layers]
        assert sorted(freed) == sorted(order)
        for reader, lids in plan.frees.items():
            for lid in lids:
                readers = [layer.id for layer in model.layers if lid in layer.inputs]
                assert reader == max(readers, key=order.get, default=lid)


class TestPropagateReadsState:
    def test_state_of_another_model_rejected(self):
        model = small_model(norms=("layernorm",), activations=("relu",))
        other = small_model(norms=(), activations=())
        state = record(other, gen_sample_set(1, other, 1)[0])
        x = gen_sample_set(1, model, 1)[0]
        first = next(l.id for l in model.layers if l.kind in ("LayerNorm", "ReLU"))
        with pytest.raises(ValueError, match=f"no cache for layer '{first}'"):
            propagate(model, state, x)
        assert state.caches == {}

    def test_protocol_run_leaves_state_unchanged(self):
        model = small_model(include_attention=True)
        samples = gen_sample_set(4, model, 3)
        state = record(model, samples[0])
        before = {lid: dict(cache) for lid, cache in state.caches.items()}
        for k in (1, 2):
            pert = dict(samples[0])
            pert[0] = samples[k][0]
            propagate(model, state, pert)
        assert state.caches.keys() == before.keys()
        for lid, cache in state.caches.items():
            assert cache.keys() == before[lid].keys()
            assert all(cache[key] is before[lid][key] for key in cache)


def with_axes(model, concat_axis, ln_axes, softmax_axis=2):
    """The model with the given concat axis, LayerNorm axes and Softmax axis."""
    layers = []
    for layer in model.layers:
        params = dict(layer.params)
        if layer.kind == "ConcatFusion":
            params["axis"] = concat_axis
        elif layer.kind == "LayerNorm":
            params["axes"] = ln_axes
        elif layer.kind == "Softmax":
            params["axis"] = softmax_axis
        layers.append(LayerSpec(layer.id, layer.kind, layer.inputs, params))
    return ModelGraph(layers, model.output, model.modalities)


class TestNegativeAxes:
    @pytest.mark.parametrize(
        "cfg", [SplitConfig(), SplitConfig("uniform", "identity"), SplitConfig(ln_rule="uniform")],
        ids=lambda c: c.label(),
    )
    @pytest.mark.parametrize("ln_axes", [(0, 1, 2), (1, 2)])
    def test_negative_axes_decompose_bit_identical(self, cfg, ln_axes):
        model = small_model(norms=("layernorm",), include_attention=True)
        x = gen_sample_set(4, model, 1)[0]
        pos = with_axes(model, 0, ln_axes, 2)
        neg = with_axes(model, -3, tuple(a - 3 for a in ln_axes), -1)
        a, b = decompose(pos, x, cfg), decompose(neg, x, cfg)
        for lid, d in a.components.items():
            assert np.array_equal(b.components[lid].parts, d.parts)
        assert max(equality_residuals(neg, b.components, b.state).values()) <= 1e-9

    @pytest.mark.parametrize("axis", [3, -4])
    def test_layernorm_axis_out_of_range_names_layer(self, axis):
        model = with_axes(small_model(norms=("layernorm",)), 0, (0, axis))
        first = next(l.id for l in model.layers if l.kind == "LayerNorm")
        with pytest.raises(ValueError, match=f"layer '{first}' axes \\[0, {axis}\\] out of range for rank 3"):
            decompose(model, gen_sample_set(4, model, 1)[0])

    @pytest.mark.parametrize("axis", [3, -4])
    def test_softmax_axis_out_of_range_names_layer(self, axis):
        model = with_axes(small_model(include_attention=True), 0, (0, 1, 2), axis)
        x = gen_sample_set(4, model, 1)[0]
        for run in (decompose, forward):
            with pytest.raises(
                ModelError, match=f"layer 'attn_softmax' softmax axis {axis} out of range for rank 3"
            ):
                run(model, x)

    @pytest.mark.parametrize("axis", [3, -4])
    def test_concat_axis_out_of_range(self, axis):
        model = with_axes(small_model(norms=("layernorm",)), axis, (0, 1, 2))
        x = gen_sample_set(4, model, 1)[0]
        for run in (decompose, forward):
            with pytest.raises(
                ModelError, match=f"layer 'fuse_concat' concat axis {axis} out of range for rank 3"
            ):
                run(model, x)
