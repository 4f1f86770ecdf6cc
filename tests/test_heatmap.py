import numpy as np
import pytest

from modaldecomp.heatmap import (
    as_2d,
    normalize_map,
    parse_csv,
    to_csv,
    to_pgm,
    write_component_maps,
)


class TestNormalize:
    def test_max_positive(self):
        x = np.array([[-1.0, 0.0], [2.0, 4.0]])
        out = normalize_map(x, "max-positive")
        assert np.array_equal(out, [[0.0, 0.0], [0.5, 1.0]])

    def test_max_positive_all_negative(self):
        out = normalize_map(np.array([[-1.0, -2.0]]), "max-positive")
        assert np.all(out == 0.0)

    def test_signed_symmetric(self):
        x = np.array([[-2.0, 0.0, 2.0]])
        out = normalize_map(x, "signed-symmetric")
        assert np.allclose(out, [[0.0, 0.5, 1.0]])

    def test_signed_symmetric_zero_map(self):
        out = normalize_map(np.zeros((2, 2)), "signed-symmetric")
        assert np.all(out == 0.5)

    def test_sigmoid(self):
        out = normalize_map(np.array([[0.0]]), "sigmoid")
        assert out[0, 0] == 0.5
        # saturates without an overflow warning, which the test config makes an error
        out = normalize_map(np.array([[-1000.0, 0.0, 1000.0]]), "sigmoid")
        assert np.array_equal(out, [[0.0, 0.5, 1.0]])

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown normalization"):
            normalize_map(np.zeros((2, 2)), "rainbow")


class TestPgm:
    def test_header_and_range(self, rng):
        x = rng.uniform(size=(3, 5))
        blob = to_pgm(x)
        assert blob.startswith(b"P5\n5 3\n255\n")
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.size == 15
        assert pixels.min() >= 0 and pixels.max() <= 255

    def test_deterministic(self, rng):
        x = rng.uniform(size=(4, 4))
        assert to_pgm(x) == to_pgm(x)


class TestCsv:
    def test_round_trip_exact(self, rng):
        x = rng.normal(size=(3, 4))
        assert np.array_equal(parse_csv(to_csv(x)), x)

    def test_rfc_line_endings(self):
        blob = to_csv(np.zeros((2, 2)))
        assert blob.count(b"\r\n") == 2

    def test_1d_becomes_row(self):
        assert as_2d(np.arange(3.0)).shape == (1, 3)

    @pytest.mark.parametrize(
        "shape, want", [((), (1, 1)), ((1, 1, 1), (1, 1)), ((1, 5, 1), (5, 1)), ((5, 1), (5, 1)), ((1, 1, 5), (1, 5))]
    )
    def test_leading_unit_axes_dropped_last_two_kept(self, shape, want):
        x = np.arange(float(np.prod(shape))).reshape(shape)
        out = as_2d(x)
        assert out.shape == want and np.array_equal(out.ravel(), x.ravel())

    def test_rank3_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            as_2d(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(4, 4, 1), (2, 1, 3)])
    def test_leading_axis_above_one_rejected(self, shape):
        with pytest.raises(ValueError, match="2-d"):
            as_2d(np.zeros(shape))


def test_write_component_maps(tmp_path, rng):
    comps = {"m0": rng.normal(size=(4, 4)), "bias": rng.normal(size=(4, 4))}
    paths = write_component_maps(tmp_path, comps, "positive-pgm", "max-positive")
    assert [p.name for p in paths] == ["m0.pgm", "bias.pgm"]
    for p in paths:
        assert p.read_bytes().startswith(b"P5\n")
    paths = write_component_maps(tmp_path, comps, "signed-csv", "max-positive")
    for label, p in zip(comps, paths):
        assert np.array_equal(parse_csv(p.read_bytes()), comps[label])
