import hashlib
import json

import numpy as np
import pytest

from modaldecomp import (
    GenSpec,
    LayerSpec,
    ModelError,
    ModelGraph,
    forward,
    gen_sample_set,
    gen_synthetic_model,
    load_samples,
    save_model,
    save_samples,
)
from modaldecomp.metrics import pearson


def test_same_seed_identical_bytes():
    spec = GenSpec(grid=8, channels=4)
    assert save_model(gen_synthetic_model(3, spec)) == save_model(gen_synthetic_model(3, spec))


def test_different_seed_differs():
    spec = GenSpec(grid=8, channels=4)
    assert save_model(gen_synthetic_model(3, spec)) != save_model(gen_synthetic_model(4, spec))


def test_layer_count_formula_depth1():
    # 4*M + 3*depth + 4 with two modalities and one block
    model = gen_synthetic_model(0, GenSpec(modalities=2, grid=8, channels=4, depth=1))
    assert len(model.layers) == 4 * 2 + 3 * 1 + 4


def test_layer_count_formula_attention():
    model = gen_synthetic_model(0, GenSpec(modalities=2, grid=8, channels=4, depth=2, include_attention=True))
    assert len(model.layers) == 4 * 2 + 3 * 2 + 4 + 6


def test_default_spec_forward_finite():
    model = gen_synthetic_model(7)
    x = gen_sample_set(7, model, 1)[0]
    acts = forward(model, x)
    for v in acts.values():
        assert np.all(np.isfinite(v))


def test_modalities_flag():
    model = gen_synthetic_model(1, GenSpec(modalities=3, grid=8, channels=4, depth=1))
    kinds = [l.kind for l in model.layers]
    assert kinds.count("Input") == 3


def test_attention_block_present():
    model = gen_synthetic_model(1, GenSpec(grid=8, channels=4, depth=1, include_attention=True))
    kinds = {l.kind for l in model.layers}
    assert "MatMul" in kinds and "Softmax" in kinds


def test_single_modality_still_fuses():
    model = gen_synthetic_model(1, GenSpec(modalities=1, grid=8, channels=4, depth=1))
    concat = [l for l in model.layers if l.kind == "ConcatFusion"]
    assert concat and len(concat[0].inputs) >= 2


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        gen_synthetic_model(0, GenSpec(modalities=0))
    with pytest.raises(ValueError):
        gen_synthetic_model(0, GenSpec(depth=0))
    with pytest.raises(ValueError):
        gen_synthetic_model(0, GenSpec(norms=("blur",)))


@pytest.mark.parametrize("field", ["grid", "channels"])
def test_empty_extent_rejected(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        gen_synthetic_model(0, GenSpec(**{field: 0}))


class TestSampleSet:
    def test_deterministic_bytes(self):
        model = gen_synthetic_model(2, GenSpec(grid=8, channels=4, depth=1))
        a = save_samples(gen_sample_set(5, model, 4))
        b = save_samples(gen_sample_set(5, model, 4))
        assert a == b

    def test_distant_samples_uncorrelated(self):
        model = gen_synthetic_model(2, GenSpec(grid=16, channels=4, depth=1))
        n = 40
        samples = gen_sample_set(9, model, n)
        cors = []
        for k in range(20):
            a = samples[k][0]
            b = samples[(k + n // 2) % n][0]
            cors.append(abs(pearson(a, b)))
        assert np.mean(cors) < 0.2

    def test_round_trip(self):
        model = gen_synthetic_model(2, GenSpec(grid=8, channels=4, depth=1))
        samples = gen_sample_set(5, model, 3)
        back = load_samples(save_samples(samples))
        assert back.n == 3
        for k in range(3):
            for m in samples[k]:
                assert np.array_equal(samples[k][m], back[k][m])

    @pytest.mark.parametrize("doc", [b"[]", b'"samples"'])
    def test_top_level_not_an_object(self, doc):
        with pytest.raises(ModelError, match="not a JSON object"):
            load_samples(doc)

    @pytest.mark.parametrize("samples", [[[1.0, 2.0]], [{"0": {"x": 1}}], [{"zero": [1.0]}], 3])
    def test_malformed_samples_named(self, samples):
        doc = json.dumps({"version": 1, "n": 1, "samples": samples}).encode()
        with pytest.raises(ModelError, match="'samples' is not a list of numeric maps"):
            load_samples(doc)

    def test_needs_one_sample(self):
        model = gen_synthetic_model(2, GenSpec(grid=8, channels=4, depth=1))
        with pytest.raises(ValueError):
            gen_sample_set(0, model, 0)

    def test_matches_input_shapes(self):
        model = gen_synthetic_model(2, GenSpec(modalities=3, grid=8, channels=4, depth=1))
        samples = gen_sample_set(1, model, 2)
        for m in range(3):
            assert samples[0][m].shape == model.input_shape(m)


# sha256 of save_model + save_samples; a change to the generator that moves any
# RNG draw or float operation changes every model and sample built on it
PINNED_SPECS = {
    "default": (
        GenSpec(),
        "e4b3e5a53123a30c930b77c754a4364415597cd3b0cff450f5d5f16ede541a7c",
    ),
    "m4-attention": (
        GenSpec(modalities=4, grid=8, channels=4, include_attention=True),
        "d4203bf132ff86a214e1bd8f8fcfeb8db4b9a9b569fa1636bd5d8770aa82f0c1",
    ),
    "m1": (
        GenSpec(modalities=1, grid=8, channels=4),
        "f096e68118ad72310a974f58dc4c07aeada8c341da0e5f217466ba0b81bfd35b",
    ),
    "affine-gelu": (
        GenSpec(grid=8, channels=4, norms=(), activations=("gelu",)),
        "5df8ea6c77cada0af330722121de5bcd18fdfa23cae477d09978ff718ba590d1",
    ),
    "grid1": (
        GenSpec(grid=1, channels=4, depth=2),
        "767b688f52c4baa6ad35cffbd9bde26f72f05b17d65edc9af8e5ef860ba39378",
    ),
}


def _digest(model, samples) -> str:
    return hashlib.sha256(save_model(model) + save_samples(samples)).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generator_bytes_pinned(name):
    spec, digest = PINNED_SPECS[name]
    model = gen_synthetic_model(11, spec)
    assert _digest(model, gen_sample_set(5, model, 3)) == digest


def test_one_dimensional_samples_pinned():
    layers = [
        LayerSpec("in0", "Input", [], {"modality": 0, "shape": (16,)}),
        LayerSpec("in1", "Input", [], {"modality": 1, "shape": (9,)}),
        LayerSpec("cat", "ConcatFusion", ["in0", "in1"], {"axis": 0}),
    ]
    model = ModelGraph(layers, "cat", 2)
    samples = gen_sample_set(5, model, 3)
    assert samples[0][0].shape == (16,) and samples[0][1].shape == (9,)
    digest = "bdf4a6ace0506d73fed02bbdbd1b47381a84f0b679802d85a9ea6360a6dafc00"
    assert _digest(model, samples) == digest
