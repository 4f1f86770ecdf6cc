"""Dense float64 tensor helpers for the network runtime: coercion and convolution.

as_tensor coerces nested lists or arrays to C-contiguous float64. conv2d is
a pure function with explicit shape checks and no broadcasting beyond its
optional per-channel bias, so that the decomposition arithmetic built on top
stays auditable.

conv2d has two kernels, chosen from one map's geometry alone. Small maps of
stride 1 and an output no larger than the input run per tap: each kernel
offset is one product with the whole input, added shifted into the output,
and every output element sums its offsets in kernel order. Every other map
runs in bands of output rows (im2col): a band's patches are lowered into one
(C_in*kH*kW, rows*W_out) matrix per map, and one GEMM sums every (c_in, kh,
kw) product of an output element. Strided and enlarged-output maps always run
on bands; the rest do when one map's per-tap buffer (C_out*H*W float64) is at
least _BAND_BYTES and one output row's scratch (its patches and the input rows
it reads) fits in it. A band holds at most _BAND_BYTES of scratch per map, or
one row. Neither choice reads the stack height and every map is its own
product, so a map's result does not depend on the maps stacked with it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "as_tensor",
    "conv2d",
]

# Per-call medians with one BLAS thread, (S, C_in, H, W) -> C_out, 3x3, per
# tap vs bands: (3,16,128,128)->16 16.6 vs 9.5 ms, (1,1,128,128)->16 2.9 vs
# 0.37, (3,16,64,64)->16 3.9 vs 1.7, but (1,32,64,64)->16 1.77 vs 1.95; at
# 128 KiB per map (1,32,32,32)->16 0.34 vs 0.45, and at 64 KiB
# (1,16,32,32)->8 0.14 vs 0.18: on small maps the patch matrix is
# 9*C_in/C_out times the tap buffer and call overhead dominates. The same
# bytes bound one band's scratch. Strided and enlarged-output maps run on
# bands at any size, per-tap window vs bands, best of 7: (3,4,9,9)->4 at
# stride 2 71 vs 34 us, (3,8,16,16)->8 pad 2 170 vs 90, but a 1x1 pad 1 13 vs 35.
_BAND_BYTES = 256 * 1024


def as_tensor(values) -> np.ndarray:
    """Coerce nested lists or arrays to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray | None = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-d cross-correlation with an optional per-channel bias, on one map or a stack.

    x is a (C_in, H, W) map or an (S, C_in, H, W) stack, w a (C_out, C_in,
    kH, kW) kernel stack and b a (C_out,) bias or None for no bias; the
    result has x's rank. The kernel must tile the padded input exactly for
    the given stride; a non-integral output extent is an error rather than a
    silent floor.

    A stride-1 map whose output is no larger than its input runs per tap if
    its per-tap buffer (C_out*H*W float64) is below _BAND_BYTES or too small
    for one output row of band scratch: each kernel offset is one product of
    its weights with the whole unpadded stack, added shifted into the output,
    so every output element sums its offsets in kernel order. Any other map
    runs in bands of output rows: each band is one GEMM of the flattened
    kernel with the band's (C_in*kH*kW, rows*W_out) patch matrix, which sums
    every (c_in, kh, kw) product at once; a 1x1, stride-1, unpadded kernel is
    one product with the input.
    Both paths accumulate from +0.0, so no -0.0 is left for a bias to clear.
    The choice and the band height read one map's geometry, never S, and
    each map is its own product, so a map's result does not depend on the
    maps stacked with it.
    """
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if x.ndim not in (3, 4) or w.ndim != 4 or (b is not None and b.ndim != 1):
        raise ValueError(
            f"conv2d expects (C,H,W) or (S,C,H,W), (O,C,kH,kW), (O,) or None "
            f"got {x.shape}, {w.shape}, {None if b is None else b.shape}"
        )
    s, c_in, h, wd = x.shape if x.ndim == 4 else (1,) + x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in_w != c_in:
        raise ValueError(f"conv2d channel mismatch: input {c_in}, kernel {c_in_w}")
    if b is not None and b.shape[0] != c_out:
        raise ValueError(f"conv2d bias length {b.shape[0]} != {c_out} output channels")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d invalid stride/padding: {stride}/{padding}")
    span_h = h + 2 * padding - kh
    span_w = wd + 2 * padding - kw
    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
        raise ValueError(
            f"conv2d output extent not integral for input {x.shape}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    h_out, w_out = span_h // stride + 1, span_w // stride + 1
    stack = x.reshape(s, c_in, h, wd)
    tap_bytes = c_out * h * wd * x.itemsize
    # one output row's patches and the input rows it reads bound a band's scratch per row (zero without input channels)
    row_bytes = c_in * (kh * kw * w_out + max(kh, stride) * (wd + 2 * padding)) * x.itemsize
    if stride == 1 and h_out <= h and w_out <= wd and (tap_bytes < _BAND_BYTES or row_bytes > tap_bytes):
        out = _conv_taps(stack, w, padding, h_out, w_out)
    else:
        out = _conv_bands(stack, w, stride, padding, h_out, w_out, max(1, _BAND_BYTES // max(1, row_bytes)))
    if b is not None:
        out += b[:, None, None]
    return out if x.ndim == 4 else out[0]


def _conv_taps(x: np.ndarray, w: np.ndarray, padding: int, h_out: int, w_out: int) -> np.ndarray:
    """conv2d's per-tap kernel on an (S, C_in, H, W) stack at stride 1 and an output within H x W, without bias."""
    s, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    src = x.reshape(s, c_in, h * wd)
    tap = np.empty((s, c_out, h, wd))  # one offset's product, on the input grid
    acc = np.zeros((s, c_out, h, wd))  # so each offset is one contiguous shifted add
    # one input channel: an outer product, which beats matmul over one element
    product = np.multiply if c_in == 1 else np.matmul
    for i in range(kh):
        for j in range(kw):
            dy, dx = i - padding, j - padding
            if not (-h_out < dy < h and -w_out < dx < wd):  # the shift misses every output element
                continue
            product(w[:, :, i, j], src, out=tap.reshape(s, c_out, -1))
            if dy:  # rows and columns a shift carries across a map edge are padding
                tap[..., slice(0, dy) if dy > 0 else slice(h + dy, h), :] = 0.0
            if dx:
                tap[..., slice(0, dx) if dx > 0 else slice(wd + dx, wd)] = 0.0
            d = dy * wd + dx
            lo, hi = max(0, -d), min(tap.size, tap.size - d)
            acc.reshape(-1)[lo:hi] += tap.reshape(-1)[lo + d : hi + d]
    return np.ascontiguousarray(acc[..., :h_out, :w_out])  # copies only a larger accumulator


def _conv_bands(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int, h_out: int, w_out: int, rows: int
) -> np.ndarray:
    """conv2d's banded im2col kernel on an (S, C_in, H, W) stack, rows output rows a band, without bias."""
    s, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    out = np.empty((s, c_out, h_out, w_out))
    if kh == kw == 1 and stride == 1 and padding == 0:
        np.matmul(w.reshape(c_out, c_in), x.reshape(s, c_in, -1), out=out.reshape(s, c_out, -1))
        return out
    flat_w = w.reshape(c_out, -1)
    # the input rows one band reads, with zero padding columns that are never written,
    # and its (S, C_in, kH, kW, rows, W_out) windows, which a prefix of rows keeps
    band = np.zeros((s, c_in, (rows - 1) * stride + kh, wd + 2 * padding))
    windows = sliding_window_view(band, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)
    patches = np.empty(s * flat_w.shape[1] * rows * w_out)
    for r0 in range(0, h_out, rows):
        n = min(rows, h_out - r0)
        top, span = r0 * stride - padding, (n - 1) * stride + kh
        if top < 0 or top + span > h:  # a band that reaches into the padding rows
            band[:, :, :span] = 0.0
        lo, hi = max(top, 0), min(top + span, h)
        if lo < hi:
            band[:, :, lo - top : hi - top, padding : padding + wd] = x[:, :, lo:hi]
        lowered = patches[: s * flat_w.shape[1] * n * w_out].reshape(s, c_in, kh, kw, n, w_out)
        np.copyto(lowered, windows[..., :n, :])
        np.matmul(flat_w, lowered.reshape(s, -1, n * w_out), out=out[:, :, r0 : r0 + n].reshape(s, c_out, -1))
    return out
