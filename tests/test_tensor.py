import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from modaldecomp import tensor
from modaldecomp.tensor import conv2d

STACK_CASES = [
    (3, 2, 1, 1, 0, 6),  # 1x1
    (1, 4, 3, 1, 1, 8),  # one input channel
    (3, 4, 3, 1, 1, 7),
    (3, 2, 3, 2, 1, 7),
    (2, 3, 3, 3, 2, 11),
    (2, 3, 2, 1, 0, 6),  # output narrower than the input
    (2, 1, 3, 1, 0, 7),  # one output channel
]


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

    @pytest.mark.parametrize("c_in, c_out, k, stride, padding, size", STACK_CASES)
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

    @pytest.mark.parametrize("stride, extent", [(1, 5), (2, 3)])
    def test_no_input_channels_gives_bias(self, stride, extent):
        out = conv2d(np.zeros((2, 0, 5, 5)), np.zeros((3, 0, 3, 3)), np.arange(3.0), stride, 1)
        assert np.array_equal(out, np.broadcast_to(np.arange(3.0)[:, None, None], (2, 3, extent, extent)))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 1, 1, 4, 4)])
    def test_rank_other_than_map_or_stack(self, shape):
        with pytest.raises(ValueError, match=r"\(S,C,H,W\).*" + re.escape(str(shape))):
            conv2d(np.zeros(shape), np.zeros((1, 1, 3, 3)), np.zeros(1), padding=1)



@pytest.fixture
def band_calls(monkeypatch):
    """Records each call of the band kernel."""
    calls, kernel = [], tensor._conv_bands
    monkeypatch.setattr(tensor, "_conv_bands", lambda *args: calls.append(1) or kernel(*args))
    return calls


@pytest.fixture
def bands(monkeypatch, band_calls):
    """Every map whose one output row of scratch fits its per-tap buffer runs on one-row bands."""
    monkeypatch.setattr(tensor, "_BAND_BYTES", 0)
    return band_calls


def einsum_conv2d(x, w, b, padding):
    """A stride-1 cross-correlation of one map as one einsum over its padded windows."""
    kh, kw = w.shape[2:]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    return np.einsum("ocij,chwij->ohw", w, sliding_window_view(xp, (kh, kw), axis=(1, 2))) + b[:, None, None]


class TestConv2dBands:
    @pytest.mark.parametrize(
        "c_in, c_out, k, stride, padding, size",
        STACK_CASES + [(1, 4, 3, 2, 1, 9), (1, 1, 3, 1, 1, 20)],  # stride 2 and one output channel on bands
    )
    def test_stack_equals_per_slice_calls(self, rng, bands, c_in, c_out, k, stride, padding, size):
        x = rng.normal(size=(5, c_in, size, size))
        w = rng.normal(size=(c_out, c_in, k, k))
        b = rng.normal(size=c_out)
        out = conv2d(x, w, b, stride, padding)
        # a map runs on bands if it is strided, its output is larger than its input, or one output row's
        # patches and input rows fit in its per-tap buffer
        fits = c_in * (k * k * out.shape[-1] + max(k, stride) * (size + 2 * padding)) <= c_out * size**2
        assert bool(bands) == (fits or stride > 1 or out.shape[-1] > size)
        assert out.flags.c_contiguous
        assert out.tobytes() == np.stack([conv2d(xs, w, b, stride, padding) for xs in x]).tobytes()
        for xs, o in zip(x, out):
            assert np.allclose(o, naive_conv2d(xs, w, b, stride, padding), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kw, out_shape", [(3, (2, 3, 6, 5)), (2, (2, 3, 6, 6))])
    def test_output_larger_than_input_against_naive(self, rng, bands, kw, out_shape):
        x = rng.normal(size=(2, 2, 4, 5))
        w = rng.normal(size=(3, 2, 1, kw))
        b = rng.normal(size=3)
        out = conv2d(x, w, b, padding=1)
        assert bands and out.shape == out_shape
        assert out.tobytes() == np.stack([conv2d(xs, w, b, padding=1) for xs in x]).tobytes()
        for xs, o in zip(x, out):
            assert np.allclose(o, naive_conv2d(xs, w, b, 1, 1), rtol=1e-12, atol=1e-12)

    def test_map_above_the_budget_runs_on_bands(self, rng, band_calls):
        """A 64x64x16 map (512 KiB per tap) is selected for bands, in several bands of rows, alone or stacked."""
        x = rng.normal(size=(16, 64, 64))
        w = rng.normal(size=(16, 16, 3, 3))
        b = rng.normal(size=16)
        out = conv2d(x, w, b, 1, 1)
        assert band_calls
        assert np.allclose(out, einsum_conv2d(x, w, b, 1), rtol=1e-12, atol=1e-12)
        stack = conv2d(np.stack([x] * 4), w, b, 1, 1)
        assert all(o.tobytes() == out.tobytes() for o in stack)

    @pytest.mark.parametrize("forced", [False, True])
    def test_no_bias_equals_zero_bias(self, rng, request, forced):
        calls = request.getfixturevalue("bands" if forced else "band_calls")
        w = -np.abs(rng.normal(size=(6, 3, 3, 3)))
        for x in (rng.normal(size=(2, 3, 9, 9)), np.zeros((2, 3, 9, 9))):
            for stride, padding in ((1, 1), (2, 0), (1, 2)):
                out = conv2d(x, w, None, stride, padding)
                assert out.tobytes() == conv2d(x, w, np.zeros(6), stride, padding).tobytes()
        assert not np.signbit(out).any()  # a zero input with negative weights sums to +0.0
        assert len(calls) == (12 if forced else 8)  # unforced, only the strided and the enlarged maps take bands
