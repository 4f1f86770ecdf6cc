"""Heatmap export of component maps: binary PGM (P5) or raw signed CSV.

Three normalizations map a component onto [0, 1] for PGM: 'max-positive'
keeps positive responses scaled by the peak, 'signed-symmetric' centers the
signed range on mid-gray, and 'sigmoid' squashes raw values. CSV writes the
untouched floats (RFC 4180, '.' decimal) and round-trips exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import expit

from .tensor import as_tensor

__all__ = [
    "NORMALIZATIONS",
    "normalize_map",
    "to_pgm",
    "to_csv",
    "parse_csv",
    "write_component_maps",
]

NORMALIZATIONS = ("max-positive", "signed-symmetric", "sigmoid")


def as_2d(x: np.ndarray) -> np.ndarray:
    """A component as a 2-d map: leading axes of size 1 dropped, 1-d data one row, a scalar one pixel."""
    x = as_tensor(x)
    if any(n != 1 for n in x.shape[:-2]):
        raise ValueError(f"heatmap export needs a 2-d map, got shape {x.shape}")
    return x.reshape(((1, 1) + x.shape)[-2:])


def _max_positive(x: np.ndarray, axis=None) -> np.ndarray:
    """max(x, 0) over its peak along axis (all of x by default); no positive peak divides by 1."""
    xp = np.maximum(x, 0.0)
    peak = xp.max(axis=axis, keepdims=True)
    return xp / np.where(peak > 0, peak, 1.0)


def normalize_map(x: np.ndarray, mode: str) -> np.ndarray:
    x = as_tensor(x)
    if mode == "max-positive":
        return _max_positive(x)
    if mode == "signed-symmetric":
        amp = np.abs(x).max()
        if amp == 0:
            return np.full_like(x, 0.5)
        return (x / amp + 1.0) / 2.0
    if mode == "sigmoid":
        return expit(x)
    raise ValueError(f"unknown normalization '{mode}', expected one of {NORMALIZATIONS}")


def to_pgm(x01: np.ndarray) -> bytes:
    """Encode a [0, 1] map as an 8-bit binary PGM (P5)."""
    x01 = as_2d(x01)
    levels = np.clip(np.rint(x01 * 255.0), 0, 255).astype(np.uint8)
    h, w = levels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + levels.tobytes()


def to_csv(x: np.ndarray) -> bytes:
    """Raw signed values, one row per line, shortest round-trip float format."""
    x = as_2d(x)
    lines = [",".join(repr(v) for v in row) for row in x.tolist()]
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


def parse_csv(data: bytes) -> np.ndarray:
    rows = [
        [float(tok) for tok in line.split(",")]
        for line in data.decode("ascii").split("\r\n")
        if line
    ]
    return as_tensor(rows)


def write_component_maps(
    directory,
    components: dict[str, np.ndarray],
    encoding: str = "positive-pgm",
    norm: str = "max-positive",
) -> list[Path]:
    """Write one file per component; returns the paths in label order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for label, comp in components.items():
        if encoding == "positive-pgm":
            path = directory / f"{label}.pgm"
            path.write_bytes(to_pgm(normalize_map(as_2d(comp), norm)))
        elif encoding == "signed-csv":
            path = directory / f"{label}.csv"
            path.write_bytes(to_csv(comp))
        else:
            raise ValueError(f"unknown encoding '{encoding}'")
        written.append(path)
    return written
