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
    load_samples,
    save_model,
    save_samples,
)

from modaldecomp import cli
from modaldecomp.model import matmul_pair, norm_stats

from conftest import scalar_pair_model, small_model


def naive_matmul(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


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


@pytest.mark.parametrize("weight", [3.0, [], [1.0], [2.0, 3.0]])
def test_dense_weight_must_be_a_matrix(weight):
    model = scalar_pair_model()
    model.by_id["head"].params["weight"] = np.asarray(weight, dtype=float).reshape(-1)
    with pytest.raises(ModelError, match="dense shape mismatch"):
        forward(model, {0: np.array([1.0]), 1: np.array([1.0])})


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

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("Input", "shape"),
            ("LayerNorm", "axes"),
            ("Conv2d", "weight"),
            ("Conv2d", "stride"),
            ("Conv2d", "padding"),
            ("BatchNorm", "eps"),
            ("LayerNorm", "eps"),
            ("InstanceNorm", "eps"),
            ("Softmax", "axis"),
            ("ConcatFusion", "axis"),
        ],
    )
    def test_missing_field_named(self, kind, key):
        doc = json.loads(save_model(small_model(depth=3, include_attention=True)))
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        del layer[key]
        with pytest.raises(ModelError, match=f"'{layer['id']}' \\({kind}\\) missing '{key}'"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "kind, key, value, message",
        [
            ("Input", "shape", 8, "must be a list of integers"),
            ("Input", "shape", [1, "8", 8], "must be a list of integers"),
            ("LayerNorm", "axes", "012", "must be a list of integers"),
            ("Conv2d", "stride", 1.0, "must be int"),
            ("Conv2d", "padding", True, "must be int"),
            ("BatchNorm", "eps", "1e-5", "must be float"),
            ("Softmax", "axis", None, "must be int"),
            ("Dense", "weight", [[1.0], [1.0, 2.0]], "is not a numeric array"),
            ("Dense", "inputs", "trunk_residual", "must be a list of layer ids"),
            ("Dense", "inputs", [["trunk_residual"]], "must be a list of layer ids"),
            ("Dense", "bias", [0.5, float("inf")], "holds a non-finite value"),
            ("Conv2d", "weight", [[[[float("nan")]]]], "holds a non-finite value"),
            ("BatchNorm", "var", [float("-inf")], "holds a non-finite value"),
            ("Input", "shape", [], "must be a non-empty list of positive integers"),
            ("Input", "shape", [0], "must be a non-empty list of positive integers"),
            ("Input", "shape", [-1], "must be a non-empty list of positive integers"),
            ("MatMul", "transpose_b", "no", "must be bool"),
            ("MatMul", "transpose_b", 1, "must be bool"),
        ],
    )
    def test_mistyped_field_named(self, kind, key, value, message):
        doc = json.loads(save_model(small_model(include_attention=True)))
        layer = next(l for l in doc["layers"] if l["kind"] == kind)
        layer[key] = value
        with pytest.raises(ModelError, match=f"'{layer['id']}' \\({kind}\\) '{key}' {message}"):
            load_model(json.dumps(doc).encode())

    def test_eps_may_be_an_integer(self):
        doc = json.loads(save_model(small_model()))
        next(l for l in doc["layers"] if l["kind"] == "BatchNorm")["eps"] = 0
        load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize("doc", [b"[]", b"[1, 2]", b"3", b'"model"'])
    def test_top_level_not_an_object(self, doc):
        with pytest.raises(ModelError, match="not a JSON object"):
            load_model(doc)

    def test_layers_not_a_list_of_objects(self):
        doc = json.loads(save_model(scalar_pair_model()))
        doc["layers"][0] = ["a", "Input"]
        with pytest.raises(ModelError, match="missing id/kind"):
            load_model(json.dumps(doc).encode())
        doc["layers"] = {"a": 1}
        with pytest.raises(ModelError, match="a layers list"):
            load_model(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "key, value", [("modalities", [2]), ("modalities", "2"), ("output", ["head"])]
    )
    def test_header_field_mistyped(self, key, value):
        doc = json.loads(save_model(scalar_pair_model()))
        doc[key] = value
        with pytest.raises(ModelError, match="integer modalities, a layers list and an output id"):
            load_model(json.dumps(doc).encode())

    def test_bool_modality_refused(self):
        doc = json.loads(save_model(small_model()))
        next(l for l in doc["layers"] if l["id"] == "in1")["modality"] = True
        with pytest.raises(ModelError, match="input layer 'in1' has bad modality True"):
            load_model(json.dumps(doc).encode())


class TestDocumentCodec:
    """Every document is compact UTF-8 JSON with "version": 1 first, and both loaders refuse a bad envelope alike."""

    @pytest.mark.parametrize("load, what", [(load_model, "model"), (load_samples, "sample")], ids=["model", "sample"])
    @pytest.mark.parametrize(
        "data, prefix",
        [
            (b"{nope", "{what} document is not valid JSON: "),
            (b"\xff", "{what} document is not valid JSON: "),
            (b"[1]", "{what} document is not a JSON object"),
            (b'{"version":2}', "unsupported {what} version 2"),
        ],
        ids=["invalid-json", "not-utf8", "not-an-object", "version-2"],
    )
    def test_envelope_errors(self, load, what, data, prefix):
        with pytest.raises(ModelError) as err:
            load(data)
        assert str(err.value).startswith(prefix.format(what=what))

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        """The bytes of every document writer, by writer."""
        path = tmp_path_factory.mktemp("codec")
        model = small_model(grid=4, depth=1)
        samples = gen_sample_set(1, model, 2)
        docs = {"save_model": save_model(model), "save_samples": save_samples(samples)}
        (path / "m.json").write_bytes(docs["save_model"])
        (path / "s.json").write_bytes(docs["save_samples"])
        files = ["--model", str(path / "m.json"), "--samples", str(path / "s.json"), "--out"]
        commands = {
            "report_to_json": ["metrics", "--stride", "1", "--offsets", "1"],
            "decompose": ["decompose"],
            "shapley": ["shapley"],
            "shapley-hybrid": ["shapley", "--hybrid"],
        }
        for name, command in commands.items():
            out = path / f"{name}.json"
            assert cli.main([*command, *files, str(out)]) == 0
            docs[name] = out.read_bytes()
        return docs

    @pytest.mark.parametrize("writer", ["save_model", "save_samples", "report_to_json", "decompose", "shapley", "shapley-hybrid"])
    def test_writers_emit_compact_json_with_version_first(self, documents, writer):
        blob = documents[writer]
        assert blob.startswith(b'{"version":1,')
        assert blob == json.dumps(json.loads(blob), separators=(",", ":")).encode()


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


class TestMatmulPair:
    def test_identity(self, rng):
        a = rng.normal(size=(3, 3))
        assert np.array_equal(matmul_pair(np.eye(3), a), a)

    def test_hand(self):
        a, b = np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])
        assert np.array_equal(matmul_pair(a, b), [[11.0]])

    def test_against_naive(self, rng):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        assert np.allclose(matmul_pair(a, b), naive_matmul(a, b), rtol=1e-12, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 5))
            c = rng.normal(size=(5, 2))
            lhs = matmul_pair(matmul_pair(a, b), c)
            rhs = matmul_pair(a, matmul_pair(b, c))
            assert np.allclose(lhs, rhs, rtol=1e-9)

    def test_inner_mismatch(self):
        with pytest.raises(ModelError, match="inner extents"):
            matmul_pair(np.zeros((2, 3)), np.zeros((2, 3)))


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
