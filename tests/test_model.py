import json
import math

import numpy as np
import pytest

from modaldecomp import (
    LayerSpec,
    ModelError,
    ModelGraph,
    forward,
    gen_sample_set,
    load_model,
    save_model,
)

from modaldecomp.model import norm_stats

from conftest import scalar_pair_model, small_model


def naive_norm_stats(a, axes):
    """Two-pass population mean and variance, dims kept, by explicit sums."""
    count = np.prod([a.shape[ax] for ax in axes])
    mean = a.sum(axis=axes, keepdims=True) / count
    return mean, ((a - mean) ** 2).sum(axis=axes, keepdims=True) / count


def test_single_dense_layer():
    layers = [
        LayerSpec("x", "Input", [], {"modality": 0, "shape": (1,)}),
        LayerSpec("x2", "Input", [], {"modality": 1, "shape": (1,)}),
        LayerSpec("cat", "ConcatFusion", ["x", "x2"], {"axis": 0}),
        LayerSpec("y", "Dense", ["cat"], {"weight": np.array([[2.0, 0.0]]), "bias": np.array([1.0])}),
    ]
    model = ModelGraph(layers, "y", 2)
    acts = forward(model, {0: np.array([1.0]), 1: np.array([0.0])})
    assert np.array_equal(acts["y"], [3.0])


def test_zero_input_through_bias_free_affine_net():
    model = small_model(norms=(), activations=())
    # zero out every constant so the map is purely linear
    for layer in model.layers:
        if "bias" in layer.params:
            layer.params["bias"] = np.zeros_like(layer.params["bias"])
    zeros = {m: np.zeros(model.input_shape(m)) for m in range(model.modalities)}
    out = forward(model, zeros)[model.output]
    assert np.all(out == 0.0)


def test_toy_net_against_naive_evaluation():
    # two 1x2x2 inputs, concat on channels, 2x2 conv, ReLU; evaluated by hand
    w = np.array([[[[1.0, -1.0], [0.5, 2.0]], [[0.25, 0.0], [-0.5, 1.0]]]])
    b = np.array([0.1])
    layers = [
        LayerSpec("c", "Input", [], {"modality": 0, "shape": (1, 2, 2)}),
        LayerSpec("r", "Input", [], {"modality": 1, "shape": (1, 2, 2)}),
        LayerSpec("cat", "ConcatFusion", ["c", "r"], {"axis": 0}),
        LayerSpec("conv", "Conv2d", ["cat"], {"weight": w, "bias": b, "stride": 1, "padding": 0}),
        LayerSpec("act", "ReLU", ["conv"], {}),
    ]
    model = ModelGraph(layers, "act", 2)
    xc = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    xr = np.array([[[-1.0, 0.5], [0.0, 2.0]]])
    acts = forward(model, {0: xc, 1: xr})

    cat = np.concatenate([xc, xr], axis=0)
    conv_val = b[0]
    for c in range(2):
        for i in range(2):
            for j in range(2):
                conv_val += w[0, c, i, j] * cat[c, i, j]
    assert math.isclose(acts["conv"][0, 0, 0], conv_val, rel_tol=1e-12)
    assert acts["act"][0, 0, 0] == max(conv_val, 0.0)


def test_forward_deterministic():
    model = small_model()
    x = gen_sample_set(3, model, 1)[0]
    a = forward(model, x)[model.output]
    b = forward(model, x)[model.output]
    assert np.array_equal(a, b)


def test_affine_scaling_identity():
    # for affine F: F(a*x) = a*F(x) + (1-a)*F(0)
    model = small_model(norms=(), activations=())
    x = gen_sample_set(5, model, 1)[0]
    zeros = {m: np.zeros(model.input_shape(m)) for m in range(model.modalities)}
    for alpha in (0.0, 0.5, 2.0, -1.5):
        lhs = forward(model, {m: alpha * x[m] for m in x})[model.output]
        rhs = alpha * forward(model, x)[model.output] + (1 - alpha) * forward(model, zeros)[model.output]
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_missing_modality_input():
    model = scalar_pair_model()
    with pytest.raises(ModelError, match="missing input"):
        forward(model, {0: np.array([1.0])})


def test_input_shape_checked():
    model = scalar_pair_model()
    with pytest.raises(ModelError, match="expects shape"):
        forward(model, {0: np.array([1.0, 2.0]), 1: np.array([1.0])})


class TestSerialization:
    def test_round_trip_bytes_and_weights(self):
        model = small_model(include_attention=True)
        blob = save_model(model)
        back = load_model(blob)
        assert save_model(back) == blob
        for a, b in zip(model.layers, back.layers):
            assert a.id == b.id and a.kind == b.kind and a.inputs == b.inputs
            for key, val in a.params.items():
                if isinstance(val, np.ndarray):
                    assert np.array_equal(val, b.params[key])
                else:
                    assert val == b.params[key]

    def test_cycle_detected(self):
        doc = save_model(scalar_pair_model())
        tampered = doc.replace(b'"inputs":["a","b"]', b'"inputs":["a","head"]')
        with pytest.raises(ModelError, match="head"):
            load_model(tampered)

    def test_unknown_kind(self):
        doc = save_model(scalar_pair_model()).replace(b'"kind":"Dense"', b'"kind":"Blur"')
        with pytest.raises(ModelError, match="unknown kind"):
            load_model(doc)

    def test_dangling_input(self):
        doc = save_model(scalar_pair_model()).replace(b'"inputs":["cat"]', b'"inputs":["ghost"]')
        with pytest.raises(ModelError, match="ghost"):
            load_model(doc)

    def test_missing_modality_map(self):
        layers = [
            LayerSpec("a", "Input", [], {"modality": 0, "shape": (1,)}),
            LayerSpec("cat", "ConcatFusion", ["a", "a"], {"axis": 0}),
            LayerSpec("y", "Dense", ["cat"], {"weight": np.ones((1, 2)), "bias": np.zeros(1)}),
        ]
        with pytest.raises(ModelError, match="missing input layers"):
            ModelGraph(layers, "y", 2)

    def test_not_json(self):
        with pytest.raises(ModelError, match="not valid JSON"):
            load_model(b"{nope")

    @pytest.mark.parametrize("kind, key", [("Input", "shape"), ("LayerNorm", "axes"), ("Conv2d", "weight")])
    def test_missing_field_named(self, kind, key):
        doc = json.loads(save_model(small_model()))
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        del layer[key]
        with pytest.raises(ModelError, match=f"'{layer['id']}' \\({kind}\\) missing '{key}'"):
            load_model(json.dumps(doc).encode())


class TestGraphInvariants:
    def test_fusion_point_required(self):
        layers = [
            LayerSpec("a", "Input", [], {"modality": 0, "shape": (2,)}),
            LayerSpec("y", "Dense", ["a"], {"weight": np.ones((2, 2)), "bias": np.zeros(2)}),
        ]
        with pytest.raises(ModelError, match="fusion"):
            ModelGraph(layers, "y", 1)

    def test_concat_needs_two_inputs(self):
        layers = [
            LayerSpec("a", "Input", [], {"modality": 0, "shape": (2,)}),
            LayerSpec("cat", "ConcatFusion", ["a"], {"axis": 0}),
        ]
        with pytest.raises(ModelError, match="inputs"):
            ModelGraph(layers, "cat", 1)

    def test_duplicate_id(self):
        layers = [
            LayerSpec("a", "Input", [], {"modality": 0, "shape": (2,)}),
            LayerSpec("a", "Input", [], {"modality": 1, "shape": (2,)}),
        ]
        with pytest.raises(ModelError, match="duplicate"):
            ModelGraph(layers, "a", 2)

    def test_residual_arity(self):
        layers = [
            LayerSpec("a", "Input", [], {"modality": 0, "shape": (2,)}),
            LayerSpec("add", "ResidualAdd", ["a"], {}),
        ]
        with pytest.raises(ModelError, match="inputs"):
            ModelGraph(layers, "add", 1)


class TestNormStats:
    def test_constant(self):
        mean, var = norm_stats(np.full((4,), 2.5), (0,))
        assert mean.shape == var.shape == (1,)
        assert mean[0] == 2.5 and var[0] == 0.0

    def test_hand(self):
        mean, var = norm_stats(np.array([1.0, 3.0]), (0,))
        assert mean[0] == 2.0 and var[0] == 1.0

    def test_against_naive(self, rng):
        x = rng.normal(size=8)
        mean, var = norm_stats(x, (0,))
        m_ref, v_ref = naive_norm_stats(x, (0,))
        assert np.allclose(mean, m_ref, rtol=1e-12) and np.allclose(var, v_ref, rtol=1e-12)

    def test_multi_axis(self, rng):
        x = rng.normal(size=(3, 4, 5))
        mean, var = norm_stats(x, (1, 2))
        m_ref, v_ref = naive_norm_stats(x, (1, 2))
        assert mean.shape == var.shape == (3, 1, 1)
        assert np.allclose(mean, m_ref) and np.allclose(var, v_ref)

    def test_centered_mean_is_zero(self, rng):
        x = rng.normal(size=32)
        mean, _ = norm_stats(x, (0,))
        centered_mean, _ = norm_stats(x - mean, (0,))
        assert abs(centered_mean[0]) <= 1e-12
