import numpy as np
import pytest

from modaldecomp import (
    GenSpec,
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

    def test_needs_one_sample(self):
        model = gen_synthetic_model(2, GenSpec(grid=8, channels=4, depth=1))
        with pytest.raises(ValueError):
            gen_sample_set(0, model, 0)

    def test_matches_input_shapes(self):
        model = gen_synthetic_model(2, GenSpec(modalities=3, grid=8, channels=4, depth=1))
        samples = gen_sample_set(1, model, 2)
        for m in range(3):
            assert samples[0][m].shape == model.input_shape(m)
