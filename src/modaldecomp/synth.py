"""Seeded generators for synthetic fusion models and input sample sets.

Models follow a concat-and-convolve pattern: one convolutional encoder per
modality, channel concatenation, a convolutional trunk with a residual skip
and optionally an attention-style bilinear block, then a single-channel head.
Sample inputs are smoothed random fields (sums of Gaussian blobs) so samples
at distant indices are uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LayerSpec, ModelGraph, ModelError, _dump_document, _load_document
from .tensor import as_tensor

__all__ = [
    "GenSpec",
    "gen_synthetic_model",
    "SampleSet",
    "gen_sample_set",
    "save_samples",
    "load_samples",
]

_NORM_KINDS = {"batchnorm": "BatchNorm", "layernorm": "LayerNorm", "instancenorm": "InstanceNorm"}
_ACT_KINDS = {"relu": "ReLU", "gelu": "GELU"}


@dataclass(frozen=True)
class GenSpec:
    """Architecture knobs for gen_synthetic_model.

    Empty norms/activations yield a purely affine network. Trunk blocks
    alternate between 3x3 convolutions and per-position channel mixers, and
    cycle through the given norm and activation kinds.
    """

    modalities: int = 2
    grid: int = 32
    channels: int = 8
    depth: int = 3
    norms: tuple[str, ...] = ("batchnorm", "layernorm", "instancenorm")
    activations: tuple[str, ...] = ("relu", "gelu")
    include_attention: bool = False


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape)


def _conv(rng, name, inputs, c_out, c_in, k):
    fan_in = c_in * k * k
    params = {
        "weight": _uniform(rng, (c_out, c_in, k, k), fan_in),
        "bias": _uniform(rng, c_out, fan_in),
        "stride": 1,
        "padding": k // 2,
    }
    return LayerSpec(name, "Conv2d", inputs, params)


def _dense(rng, name, inputs, c, scale=None):
    """Channel mixer; a set scale scales the weight and zeroes the bias."""
    weight = _uniform(rng, (c, c), c)
    if scale is None:
        bias = _uniform(rng, c, c)
    else:
        weight, bias = weight * scale, np.zeros(c)
    return LayerSpec(name, "Dense", inputs, {"weight": weight, "bias": bias})


def _norm_layer(rng, name, inputs, kind, shape):
    # LayerNorm's affine covers the whole shape, the others' one value per channel
    n = shape if kind == "LayerNorm" else shape[0]
    params = {}
    if kind == "BatchNorm":
        params = {"mean": rng.uniform(-0.2, 0.2, size=n), "var": rng.uniform(0.25, 1.0, size=n)}
    elif kind == "LayerNorm":
        params = {"axes": tuple(range(len(shape)))}
    params["gamma"] = rng.uniform(0.8, 1.2, size=n)
    params["beta"] = rng.uniform(-0.1, 0.1, size=n)
    params["eps"] = 1e-5
    return LayerSpec(name, kind, inputs, params)


def gen_synthetic_model(seed: int, spec: GenSpec | None = None) -> ModelGraph:
    """Deterministically build a fusion model from a seed.

    Layer count, with norms and activations present:
        4*M + 3*depth + 4 + (6 if include_attention else 0)
    i.e. per modality Input/Conv2d/BatchNorm/ReLU, then ConcatFusion and a
    fusion Conv2d, depth blocks of (Conv2d|Dense, norm, activation), one
    ResidualAdd, optionally Dense q/k/v + MatMul + Softmax + MatMul, and a
    1x1 head convolution. Dropping norms or activations removes the matching
    layers from every branch and block.
    """
    spec = spec or GenSpec()
    for size in ("modalities", "depth", "grid", "channels"):
        if getattr(spec, size) < 1:
            raise ValueError(f"{size} must be >= 1")
    for n in spec.norms:
        if n not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind '{n}'")
    for a in spec.activations:
        if a not in _ACT_KINDS:
            raise ValueError(f"unknown activation kind '{a}'")

    rng = np.random.default_rng(seed)
    g = spec.grid
    ch = spec.channels
    layers: list[LayerSpec] = []

    def add(layer):
        layers.append(layer)
        return layer.id

    branch_tips = []
    for m in range(spec.modalities):
        tip = add(LayerSpec(f"in{m}", "Input", [], {"modality": m, "shape": (1, g, g)}))
        tip = add(_conv(rng, f"branch{m}_conv", [tip], ch, 1, 3))
        if spec.norms:
            tip = add(_norm_layer(rng, f"branch{m}_norm", [tip], "BatchNorm", (ch, g, g)))
        if spec.activations:
            tip = add(LayerSpec(f"branch{m}_act", "ReLU", [tip], {}))
        branch_tips.append(tip)

    if len(branch_tips) == 1:
        # ConcatFusion needs two or more inputs; feed the single branch twice
        branch_tips = branch_tips * 2
    fuse = add(LayerSpec("fuse_concat", "ConcatFusion", list(branch_tips), {"axis": 0}))
    fuse = add(_conv(rng, "fuse_conv", [fuse], ch, ch * len(branch_tips), 3))

    tip = fuse
    for b in range(spec.depth):
        if b % 2 == 0:
            tip = add(_conv(rng, f"block{b}_conv", [tip], ch, ch, 3))
        else:
            tip = add(_dense(rng, f"block{b}_dense", [tip], ch))
        if spec.norms:
            kind = _NORM_KINDS[spec.norms[b % len(spec.norms)]]
            tip = add(_norm_layer(rng, f"block{b}_norm", [tip], kind, (ch, g, g)))
        if spec.activations:
            kind = _ACT_KINDS[spec.activations[b % len(spec.activations)]]
            tip = add(LayerSpec(f"block{b}_act", kind, [tip], {}))

    tip = add(LayerSpec("trunk_residual", "ResidualAdd", [fuse, tip], {}))

    if spec.include_attention:
        # row-token attention per channel: scores over the last spatial axis
        qk_scale = 1.0 / np.sqrt(g)
        q = add(_dense(rng, "attn_q", [tip], ch, qk_scale))
        k = add(_dense(rng, "attn_k", [tip], ch, qk_scale))
        v = add(_dense(rng, "attn_v", [tip], ch))
        s = add(LayerSpec("attn_scores", "MatMul", [q, k], {"transpose_b": True}))
        s = add(LayerSpec("attn_softmax", "Softmax", [s], {"axis": 2}))
        tip = add(LayerSpec("attn_out", "MatMul", [s, v], {"transpose_b": False}))

    tip = add(_conv(rng, "head", [tip], 1, ch, 1))
    return ModelGraph(layers, tip, spec.modalities)


@dataclass
class SampleSet:
    """Per-modality input tensors for N samples, indexed 0..N-1."""

    samples: list[dict[int, np.ndarray]]

    @property
    def n(self) -> int:
        return len(self.samples)

    def __getitem__(self, k: int) -> dict[int, np.ndarray]:
        return self.samples[k]


def _blob_field(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Smoothed random field: a handful of signed Gaussian blobs per map.

    A map spans the last two axes (the only axis of a 1-d shape); every map
    of a stacked shape gets its own blobs.
    """
    spatial = shape[-2:]
    grids = np.indices(spatial, dtype=float)
    out = np.zeros(shape)
    for idx in np.ndindex(shape[:-2]):
        f = out[idx]  # one map, a view
        for _ in range(4):
            amp = rng.uniform(0.5, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
            centres = [rng.uniform(0, n) for n in spatial]
            sg = rng.uniform(max(1.0, spatial[0] / 16), max(2.0, spatial[0] / 6))
            d2 = sum((x - c) ** 2 for x, c in zip(grids, centres))
            f += amp * np.exp(-d2 / (2 * sg * sg))
    return out


def gen_sample_set(seed: int, model: ModelGraph, n: int) -> SampleSet:
    """Draw n deterministic samples matching the model's input shapes.

    Each (seed, sample, modality) triple gets an independent RNG stream, so
    samples at different indices are statistically uncorrelated.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    samples = []
    for k in range(n):
        entry = {}
        for m in sorted(model.modality_inputs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, k, m]))
            entry[m] = _blob_field(rng, model.input_shape(m))
        samples.append(entry)
    return SampleSet(samples)


def save_samples(samples: SampleSet) -> bytes:
    entries = [{str(m): s[m].tolist() for m in sorted(s)} for s in samples.samples]
    return _dump_document({"n": samples.n, "samples": entries})


def load_samples(data: bytes) -> SampleSet:
    doc = _load_document(data, "sample")
    if "samples" not in doc:
        raise ModelError("sample document missing 'samples'")
    try:
        samples = [
            {int(m): as_tensor(v) for m, v in entry.items()} for entry in doc["samples"]
        ]
    except (AttributeError, TypeError, ValueError) as e:
        raise ModelError(f"sample document 'samples' is not a list of numeric maps: {e}") from e
    if len(samples) != doc.get("n"):
        raise ModelError("sample count does not match document header")
    return SampleSet(samples)
