"""Seeded generators for synthetic fusion models and input sample sets.

Models follow a concat-and-convolve pattern: one convolutional encoder per
modality, channel concatenation, a convolutional trunk with a residual skip
and optionally an attention-style bilinear block, then a single-channel head.
Sample inputs are smoothed random fields (sums of Gaussian blobs) so samples
at distant indices are uncorrelated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import LayerSpec, ModelGraph, ModelError
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


def _norm_layer(rng, name, kind, shape):
    c = shape[0]
    if kind == "BatchNorm":
        params = {
            "mean": rng.uniform(-0.2, 0.2, size=c),
            "var": rng.uniform(0.25, 1.0, size=c),
            "gamma": rng.uniform(0.8, 1.2, size=c),
            "beta": rng.uniform(-0.1, 0.1, size=c),
            "eps": 1e-5,
        }
    elif kind == "LayerNorm":
        params = {
            "axes": tuple(range(len(shape))),
            "gamma": rng.uniform(0.8, 1.2, size=shape),
            "beta": rng.uniform(-0.1, 0.1, size=shape),
            "eps": 1e-5,
        }
    elif kind == "InstanceNorm":
        params = {
            "gamma": rng.uniform(0.8, 1.2, size=c),
            "beta": rng.uniform(-0.1, 0.1, size=c),
            "eps": 1e-5,
        }
    else:  # pragma: no cover
        raise ValueError(kind)
    return LayerSpec(name, kind, [], params)


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

    def add(layer, prev=None):
        if prev is not None:
            layer.inputs = [prev]
        layers.append(layer)
        return layer.id

    branch_tips = []
    for m in range(spec.modalities):
        tip = add(LayerSpec(f"in{m}", "Input", [], {"modality": m, "shape": (1, g, g)}))
        tip = add(
            LayerSpec(
                f"branch{m}_conv",
                "Conv2d",
                [],
                {
                    "weight": _uniform(rng, (ch, 1, 3, 3), 9),
                    "bias": _uniform(rng, ch, 9),
                    "stride": 1,
                    "padding": 1,
                },
            ),
            tip,
        )
        if spec.norms:
            tip = add(_norm_layer(rng, f"branch{m}_norm", "BatchNorm", (ch, g, g)), tip)
        if spec.activations:
            tip = add(LayerSpec(f"branch{m}_act", "ReLU", [], {}), tip)
        branch_tips.append(tip)

    if len(branch_tips) == 1:
        # ConcatFusion needs two or more inputs; feed the single branch twice
        branch_tips = branch_tips * 2
    fuse = add(LayerSpec("fuse_concat", "ConcatFusion", list(branch_tips), {"axis": 0}))
    cat_ch = ch * len(branch_tips)
    fuse = add(
        LayerSpec(
            "fuse_conv",
            "Conv2d",
            [],
            {
                "weight": _uniform(rng, (ch, cat_ch, 3, 3), cat_ch * 9),
                "bias": _uniform(rng, ch, cat_ch * 9),
                "stride": 1,
                "padding": 1,
            },
        ),
        fuse,
    )

    tip = fuse
    for b in range(spec.depth):
        if b % 2 == 0:
            tip = add(
                LayerSpec(
                    f"block{b}_conv",
                    "Conv2d",
                    [],
                    {
                        "weight": _uniform(rng, (ch, ch, 3, 3), ch * 9),
                        "bias": _uniform(rng, ch, ch * 9),
                        "stride": 1,
                        "padding": 1,
                    },
                ),
                tip,
            )
        else:
            tip = add(
                LayerSpec(
                    f"block{b}_dense",
                    "Dense",
                    [],
                    {"weight": _uniform(rng, (ch, ch), ch), "bias": _uniform(rng, ch, ch)},
                ),
                tip,
            )
        if spec.norms:
            kind = _NORM_KINDS[spec.norms[b % len(spec.norms)]]
            tip = add(_norm_layer(rng, f"block{b}_norm", kind, (ch, g, g)), tip)
        if spec.activations:
            kind = _ACT_KINDS[spec.activations[b % len(spec.activations)]]
            tip = add(LayerSpec(f"block{b}_act", kind, [], {}), tip)

    tip = add(LayerSpec("trunk_residual", "ResidualAdd", [fuse, tip], {}))

    if spec.include_attention:
        # row-token attention per channel: scores over the last spatial axis
        qk_scale = 1.0 / np.sqrt(g)
        q = add(
            LayerSpec(
                "attn_q",
                "Dense",
                [tip],
                {"weight": _uniform(rng, (ch, ch), ch) * qk_scale, "bias": np.zeros(ch)},
            )
        )
        k = add(
            LayerSpec(
                "attn_k",
                "Dense",
                [tip],
                {"weight": _uniform(rng, (ch, ch), ch) * qk_scale, "bias": np.zeros(ch)},
            )
        )
        v = add(
            LayerSpec(
                "attn_v",
                "Dense",
                [tip],
                {"weight": _uniform(rng, (ch, ch), ch), "bias": _uniform(rng, ch, ch)},
            )
        )
        s = add(LayerSpec("attn_scores", "MatMul", [q, k], {"transpose_b": True}))
        s = add(LayerSpec("attn_softmax", "Softmax", [s], {"axis": 2}))
        tip = add(LayerSpec("attn_out", "MatMul", [s, v], {"transpose_b": False}))

    tip = add(
        LayerSpec(
            "head",
            "Conv2d",
            [tip],
            {
                "weight": _uniform(rng, (1, ch, 1, 1), ch),
                "bias": _uniform(rng, 1, ch),
                "stride": 1,
                "padding": 0,
            },
        )
    )
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
    """Smoothed random field: a handful of signed Gaussian blobs."""
    if len(shape) >= 2:
        lead = shape[:-2]
        h, w = shape[-2], shape[-1]
        yy, xx = np.mgrid[0:h, 0:w].astype(float)
        out = np.zeros(shape)
        for idx in np.ndindex(lead) if lead else [()]:
            f = np.zeros((h, w))
            for _ in range(4):
                amp = rng.uniform(0.5, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
                cy = rng.uniform(0, h)
                cx = rng.uniform(0, w)
                sg = rng.uniform(max(1.0, h / 16), max(2.0, h / 6))
                f += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sg * sg))
            out[idx] = f
        return out
    n = shape[0]
    t = np.arange(n, dtype=float)
    f = np.zeros(n)
    for _ in range(4):
        amp = rng.uniform(0.5, 2.0) * (1.0 if rng.integers(0, 2) else -1.0)
        c = rng.uniform(0, n)
        sg = rng.uniform(max(1.0, n / 16), max(2.0, n / 6))
        f += amp * np.exp(-((t - c) ** 2) / (2 * sg * sg))
    return f


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
    doc = {
        "version": 1,
        "n": samples.n,
        "samples": [
            {str(m): s[m].tolist() for m in sorted(s)} for s in samples.samples
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def load_samples(data: bytes) -> SampleSet:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"sample document is not valid JSON: {e}") from e
    if doc.get("version") != 1:
        raise ModelError(f"unsupported sample version {doc.get('version')!r}")
    if "samples" not in doc:
        raise ModelError("sample document missing 'samples'")
    samples = [
        {int(m): as_tensor(v) for m, v in entry.items()} for entry in doc["samples"]
    ]
    if len(samples) != doc.get("n"):
        raise ModelError("sample count does not match document header")
    return SampleSet(samples)
