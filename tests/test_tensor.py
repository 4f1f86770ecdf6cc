import re

import numpy as np
import pytest

from modaldecomp.tensor import concat, conv2d


def naive_conv2d(x, w, b, stride=1, padding=0):
    c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for c in range(c_in):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += w[o, c, di, dj] * xp[c, i * stride + di, j * stride + dj]
                out[o, i, j] = acc + b[o]
    return out


class TestConv2d:
    def test_one_by_one_identity(self, rng):
        x = rng.normal(size=(1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        out = conv2d(x, w, np.zeros(1))
        assert np.array_equal(out, x)

    def test_zero_input_gives_bias(self):
        out = conv2d(np.zeros((2, 4, 4)), np.zeros((3, 2, 3, 3)), np.array([1.0, 2.0, 3.0]), padding=1)
        for o, beta in enumerate([1.0, 2.0, 3.0]):
            assert np.all(out[o] == beta)

    def test_small_against_naive(self, rng):
        x = rng.normal(size=(1, 3, 3))
        w = rng.normal(size=(1, 1, 2, 2))
        b = rng.normal(size=1)
        out = conv2d(x, w, b)
        assert out.shape == (1, 2, 2)
        assert np.allclose(out, naive_conv2d(x, w, b), rtol=1e-12, atol=1e-12)

    def test_stride_padding_against_naive(self, rng):
        x = rng.normal(size=(3, 7, 7))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        out = conv2d(x, w, b, stride=2, padding=1)
        assert out.shape == (2, 4, 4)
        assert np.allclose(out, naive_conv2d(x, w, b, 2, 1), rtol=1e-12, atol=1e-12)

    def test_non_integral_extent(self):
        with pytest.raises(ValueError, match="not integral"):
            conv2d(np.zeros((1, 5, 5)), np.zeros((1, 1, 2, 2)), np.zeros(1), stride=2)

    @pytest.mark.parametrize(
        "c_in, c_out, k, stride, padding, size",
        [
            (3, 2, 1, 1, 0, 6),  # 1x1
            (1, 4, 3, 1, 1, 8),  # one input channel
            (3, 4, 3, 1, 1, 7),
            (3, 2, 3, 2, 1, 7),
            (2, 3, 3, 3, 2, 11),
            (2, 3, 2, 1, 0, 6),  # output narrower than the input
            (2, 1, 3, 1, 0, 7),  # one output channel
        ],
    )
    def test_stack_equals_per_slice_calls(self, rng, c_in, c_out, k, stride, padding, size):
        x = rng.normal(size=(5, c_in, size, size))
        w = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        out = conv2d(x, w, b, stride, padding)
        assert out.flags.c_contiguous
        assert np.array_equal(out, np.stack([conv2d(xs, w, b, stride, padding) for xs in x]))
        assert np.allclose(out[2], naive_conv2d(x[2], w, b, stride, padding), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kw, out_shape", [(3, (2, 3, 6, 5)), (2, (2, 3, 6, 6))])
    def test_output_larger_than_input_against_naive(self, rng, kw, out_shape):
        x = rng.normal(size=(2, 2, 4, 5))
        w = rng.normal(size=(3, 2, 1, kw))
        b = rng.normal(size=3)
        out = conv2d(x, w, b, padding=1)
        assert out.shape == out_shape
        for xs, o in zip(x, out):
            assert np.allclose(o, naive_conv2d(xs, w, b, 1, 1), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 1, 1, 4, 4)])
    def test_rank_other_than_map_or_stack(self, shape):
        with pytest.raises(ValueError, match=r"\(S,C,H,W\).*" + re.escape(str(shape))):
            conv2d(np.zeros(shape), np.zeros((1, 1, 3, 3)), np.zeros(1), padding=1)


class TestConcat:
    def test_scalars(self):
        assert np.array_equal(concat([np.array([1.0]), np.array([2.0])], 0), [1.0, 2.0])

    def test_empty_part(self, rng):
        x = rng.normal(size=(2, 3))
        out = concat([x, np.zeros((0, 3))], 0)
        assert np.array_equal(out, x)

    def test_shape_arithmetic(self):
        out = concat([np.zeros((2, 2)), np.zeros((3, 2))], 0)
        assert out.shape == (5, 2)

    def test_extent_mismatch(self):
        with pytest.raises(ValueError, match="extent mismatch"):
            concat([np.zeros((2, 2)), np.zeros((3, 3))], 0)

    @pytest.mark.parametrize("axis", [3, -4])
    def test_axis_out_of_range(self, axis):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for rank 3"):
            concat([np.zeros((2, 2, 2)), np.zeros((2, 2, 2))], axis)
