"""Dense float64 tensor kernels for the network runtime.

Everything here is a pure function over C-contiguous float64 arrays with
explicit shape checks. There is no broadcasting beyond multiplication by a
scalar; shape agreement is always verified so that the decomposition
arithmetic built on top stays auditable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_tensor",
    "conv2d",
    "concat",
]


def as_tensor(values) -> np.ndarray:
    """Coerce nested lists or arrays to a C-contiguous float64 array."""
    return np.ascontiguousarray(values, dtype=np.float64)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-d cross-correlation with per-channel bias, on one map or a stack.

    x is a (C_in, H, W) map or an (S, C_in, H, W) stack, w a (C_out, C_in,
    kH, kW) kernel stack and b a (C_out,) bias; the result has x's rank. The
    kernel must tile the padded input exactly for the given stride; a
    non-integral output extent is an error rather than a silent floor.

    Each kernel offset is one product of its weights with the whole unpadded
    stack, added shifted into the output, so no padded copy is made. Every
    output element sums its taps in kernel order, so a map's result does not
    depend on the maps stacked with it.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim not in (3, 4) or w.ndim != 4 or b.ndim != 1:
        raise ValueError(
            f"conv2d expects (C,H,W) or (S,C,H,W), (O,C,kH,kW), (O,) "
            f"got {x.shape}, {w.shape}, {b.shape}"
        )
    s, c_in, h, wd = x.shape if x.ndim == 4 else (1,) + x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in_w != c_in:
        raise ValueError(f"conv2d channel mismatch: input {c_in}, kernel {c_in_w}")
    if b.shape[0] != c_out:
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
    src = x.reshape(s, c_in, h * wd)
    tap = np.empty((s, c_out, h, wd))  # one offset's product, on the input grid
    # with stride 1 and an output no larger than the input, accumulate on the input's
    # grid so each offset is one contiguous shifted add; else add a strided window
    flat = stride == 1 and h_out <= h and w_out <= wd
    acc = np.zeros((s, c_out) + ((h, wd) if flat else (h_out, w_out)))
    # one input channel: an outer product, which beats matmul over one element
    product = np.multiply if c_in == 1 else np.matmul
    for i in range(kh):
        for j in range(kw):
            dy, dx = i - padding, j - padding
            rows = range(max(0, -(dy // stride)), min(h_out, (h - 1 - dy) // stride + 1))
            cols = range(max(0, -(dx // stride)), min(w_out, (wd - 1 - dx) // stride + 1))
            if not rows or not cols:
                continue
            product(w[:, :, i, j], src, out=tap.reshape(s, c_out, -1))
            if flat:
                if dy:  # rows and columns a shift carries across a map edge are padding
                    tap[..., slice(0, dy) if dy > 0 else slice(h + dy, h), :] = 0.0
                if dx:
                    tap[..., slice(0, dx) if dx > 0 else slice(wd + dx, wd)] = 0.0
                d = dy * wd + dx
                lo, hi = max(0, -d), min(tap.size, tap.size - d)
                acc.reshape(-1)[lo:hi] += tap.reshape(-1)[lo + d : hi + d]
            else:
                r, c = rows[0] * stride + dy, cols[0] * stride + dx
                window = tap[..., r::stride, c::stride][..., : len(rows), : len(cols)]
                acc[..., rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] += window
    out = np.ascontiguousarray(acc[..., :h_out, :w_out])  # copies only a larger accumulator
    out += b[:, None, None]
    return out if x.ndim == 4 else out[0]


def concat(parts: list[np.ndarray], axis: int = 0) -> np.ndarray:
    """Lay out tensors contiguously along one axis; a negative axis counts from the end."""
    if not parts:
        raise ValueError("concat of an empty list")
    arrs = [as_tensor(p) for p in parts]
    first = arrs[0]
    if not -first.ndim <= axis < first.ndim:
        raise ValueError(f"concat axis {axis} out of range for rank {first.ndim}")
    ax = axis % first.ndim
    for p in arrs[1:]:
        if p.ndim != first.ndim:
            raise ValueError(f"concat rank mismatch: {first.shape} vs {p.shape}")
        for d in range(first.ndim):
            if d != ax and p.shape[d] != first.shape[d]:
                raise ValueError(
                    f"concat extent mismatch off axis {ax}: {first.shape} vs {p.shape}"
                )
    return np.concatenate(arrs, axis=ax)
