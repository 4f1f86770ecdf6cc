"""Fusion-network graphs: typed layers, the plain forward pass, JSON serialization.

A model is a DAG of layers given in topological order. Input layers are
labeled with a modality index; every path from an input to the output must
cross a fusion layer (channel concatenation or a bilinear matmul), which is
where the modality streams meet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .tensor import as_tensor, concat, conv2d

__all__ = [
    "LayerSpec",
    "ModelGraph",
    "ModelError",
    "forward",
    "save_model",
    "load_model",
    "LAYER_KINDS",
]

# per kind: (min, max) consumed inputs, None meaning unbounded, and the fields a
# layer document must carry, in check order, each with its type: tuple (a list
# of integers, restored to a tuple), np.ndarray (a finite numeric array) or
# int/float (a scalar)
_KINDS = {
    "Input": ((0, 0), {"shape": tuple}),
    "Dense": ((1, 1), {"weight": np.ndarray, "bias": np.ndarray}),
    "Conv2d": ((1, 1), {"weight": np.ndarray, "bias": np.ndarray, "stride": int, "padding": int}),
    "BatchNorm": ((1, 1), {"mean": np.ndarray, "var": np.ndarray, "gamma": np.ndarray, "beta": np.ndarray, "eps": float}),
    "LayerNorm": ((1, 1), {"axes": tuple, "gamma": np.ndarray, "beta": np.ndarray, "eps": float}),
    "InstanceNorm": ((1, 1), {"gamma": np.ndarray, "beta": np.ndarray, "eps": float}),
    "ReLU": ((1, 1), {}),
    "GELU": ((1, 1), {}),
    "Softmax": ((1, 1), {"axis": int}),
    "ConcatFusion": ((2, None), {"axis": int}),
    "ResidualAdd": ((2, 2), {}),
    "MatMul": ((2, 2), {}),
}

LAYER_KINDS = frozenset(_KINDS)

# per kind, the vectors that must share one shape, which must be 1-D where the
# entries are per channel; a shorter vector would otherwise broadcast silently
_VECTORS = {
    "BatchNorm": ("mean", "var", "gamma", "beta"),
    "InstanceNorm": ("gamma", "beta"),
    "LayerNorm": ("gamma", "beta"),
}

FUSION_KINDS = frozenset({"ConcatFusion", "MatMul"})


class ModelError(ValueError):
    """Raised for malformed graphs or serialized model documents."""


@dataclass
class LayerSpec:
    """One node of the graph: unique id, kind, upstream ids and parameters."""

    id: str
    kind: str
    inputs: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)


class ModelGraph:
    """Validated, immutable-by-convention network description.

    layers must already be topologically ordered: every non-input layer may
    only reference layers that appear before it.
    """

    def __init__(self, layers: list[LayerSpec], output: str, modalities: int):
        if modalities < 1:
            raise ModelError(f"need at least one modality, got {modalities}")
        self.layers = list(layers)
        self.output = output
        self.modalities = modalities
        self.by_id: dict[str, LayerSpec] = {}
        self.modality_inputs: dict[int, str] = {}
        self._validate()

    def _validate(self) -> None:
        seen: set[str] = set()
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise ModelError(f"layer '{layer.id}': unknown kind '{layer.kind}'")
            if layer.id in seen:
                raise ModelError(f"duplicate layer id '{layer.id}'")
            lo, hi = _KINDS[layer.kind][0]
            n = len(layer.inputs)
            if n < lo or (hi is not None and n > hi):
                raise ModelError(
                    f"layer '{layer.id}' ({layer.kind}) takes "
                    f"{lo}{'+' if hi is None else f'..{hi}'} inputs, got {n}"
                )
            for up in layer.inputs:
                if up not in seen:
                    # catches dangling references, cycles and order violations alike
                    raise ModelError(
                        f"layer '{layer.id}' references '{up}' which does not precede it"
                    )
            _check_vectors(layer)
            if layer.kind == "Input":
                m = layer.params.get("modality")
                if not isinstance(m, int) or not 0 <= m < self.modalities:
                    raise ModelError(f"input layer '{layer.id}' has bad modality {m!r}")
                if m in self.modality_inputs:
                    raise ModelError(f"modality {m} declared twice ('{layer.id}')")
                self.modality_inputs[m] = layer.id
            seen.add(layer.id)
            self.by_id[layer.id] = layer
        if self.output not in self.by_id:
            raise ModelError(f"output layer '{self.output}' not defined")
        missing = set(range(self.modalities)) - set(self.modality_inputs)
        if missing:
            raise ModelError(f"missing input layers for modalities {sorted(missing)}")
        self._check_fusion_point()

    def _check_fusion_point(self) -> None:
        # walk backwards from the output without crossing fusion layers; no
        # Input may be reachable that way
        stack = [self.output]
        visited: set[str] = set()
        while stack:
            lid = stack.pop()
            if lid in visited:
                continue
            visited.add(lid)
            layer = self.by_id[lid]
            if layer.kind == "Input":
                raise ModelError(
                    f"input '{lid}' reaches the output without passing a fusion layer"
                )
            if layer.kind in FUSION_KINDS:
                continue
            stack.extend(layer.inputs)

    def input_shape(self, modality: int) -> tuple[int, ...]:
        return tuple(self.by_id[self.modality_inputs[modality]].params["shape"])


def _check_vectors(layer: LayerSpec) -> None:
    """Raise ModelError naming both fields where a layer's vectors disagree in shape (see _VECTORS)."""
    p, where = layer.params, f"layer '{layer.id}' ({layer.kind})"
    if layer.kind == "Dense":
        bias, weight = np.shape(p.get("bias")), np.shape(p.get("weight"))
        if len(bias) != 1 or bias != weight[:1]:
            raise ModelError(f"{where} 'bias' shape {bias} must be 1-D with one entry per row of 'weight' {weight}")
        return
    names = _VECTORS.get(layer.kind, ())
    for key in names[1:]:
        a, b = np.shape(p.get(names[0])), np.shape(p.get(key))
        if a != b or (layer.kind != "LayerNorm" and len(a) != 1):
            rule = "one shape" if layer.kind == "LayerNorm" else "1-D of one length"
            raise ModelError(f"{where} '{names[0]}' shape {a} and '{key}' shape {b} must be {rule}")


def _gelu(x: np.ndarray) -> np.ndarray:
    # exact erf form, not the tanh approximation
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def channel_shape(vec: np.ndarray, ndim: int) -> np.ndarray:
    # reshape a per-channel vector so it broadcasts over trailing axes
    return vec.reshape(vec.shape + (1,) * (ndim - 1))


def dense_apply(weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear map over the leading feature axis, broadcast over trailing axes."""
    if x.ndim < 1 or weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ModelError(f"dense shape mismatch: weight {weight.shape}, input {x.shape}")
    return np.tensordot(weight, x, axes=(1, 0))


def matmul_pair(a: np.ndarray, b: np.ndarray, transpose_b: bool = False) -> np.ndarray:
    """Matrix product of two rank-2 tensors or batched rank-3 tensors."""
    if transpose_b:
        b = np.swapaxes(b, -1, -2)
    if a.ndim == b.ndim == 2:
        pass
    elif a.ndim == b.ndim == 3:
        if a.shape[0] != b.shape[0]:
            raise ModelError(f"matmul batch extents differ: {a.shape} vs {b.shape}")
    else:
        raise ModelError(f"matmul expects matching rank 2 or 3: {a.shape} vs {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ModelError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    return np.matmul(a, b)


def norm_axes(layer: LayerSpec, ndim: int) -> tuple[int, ...]:
    """Non-negative normalization axes: LayerNorm's own, every non-channel axis for InstanceNorm."""
    if layer.kind != "LayerNorm":
        return tuple(range(1, ndim))
    axes = layer.params["axes"]
    if not all(-ndim <= ax < ndim for ax in axes):
        raise ModelError(f"layer '{layer.id}' axes {list(axes)} out of range for rank {ndim}")
    return tuple(ax % ndim for ax in axes)


def layer_axis(layer: LayerSpec, ndim: int) -> int:
    """A ConcatFusion's or Softmax's non-negative axis on rank-ndim maps."""
    axis = layer.params["axis"]
    if not -ndim <= axis < ndim:
        name = "concat" if layer.kind == "ConcatFusion" else "softmax"
        raise ModelError(f"layer '{layer.id}' {name} axis {axis} out of range for rank {ndim}")
    return axis % ndim


def norm_affine(layer: LayerSpec, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """(gamma, beta) shaped to broadcast over a rank-ndim activation."""
    p = layer.params
    if layer.kind == "LayerNorm":
        return p["gamma"], p["beta"]
    return channel_shape(p["gamma"], ndim), channel_shape(p["beta"], ndim)


def norm_stats(x: np.ndarray, axes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and variance over axes (two-pass), with kept dims."""
    mean = x.mean(axis=axes, keepdims=True)
    return mean, ((x - mean) ** 2).mean(axis=axes, keepdims=True)


def eval_layer(layer: LayerSpec, upstream: list[np.ndarray], inputs=None) -> np.ndarray:
    """Evaluate one layer on its upstream activations."""
    kind = layer.kind
    p = layer.params
    if kind == "Input":
        if inputs is None or p["modality"] not in inputs:
            raise ModelError(f"missing input tensor for modality {p['modality']}")
        x = as_tensor(inputs[p["modality"]])
        want = tuple(p["shape"])
        if x.shape != want:
            raise ModelError(
                f"input '{layer.id}' expects shape {want}, got {x.shape}"
            )
        return x
    if kind == "Dense":
        return dense_apply(p["weight"], upstream[0]) + channel_shape(
            p["bias"], upstream[0].ndim
        )
    if kind == "Conv2d":
        return conv2d(upstream[0], p["weight"], p["bias"], p["stride"], p["padding"])
    if kind == "BatchNorm":
        x = upstream[0]
        s = p["gamma"] / np.sqrt(p["var"] + p["eps"])
        return (x - channel_shape(p["mean"], x.ndim)) * channel_shape(s, x.ndim) + channel_shape(p["beta"], x.ndim)
    if kind in ("LayerNorm", "InstanceNorm"):
        x = upstream[0]
        mean, var = norm_stats(x, norm_axes(layer, x.ndim))
        g, b = norm_affine(layer, x.ndim)
        return (x - mean) / np.sqrt(var + p["eps"]) * g + b
    if kind == "ReLU":
        return np.maximum(upstream[0], 0.0)
    if kind == "GELU":
        return _gelu(upstream[0])
    if kind == "Softmax":
        return _softmax(upstream[0], layer_axis(layer, upstream[0].ndim))
    if kind == "ConcatFusion":
        return concat(upstream, layer_axis(layer, upstream[0].ndim))
    if kind == "ResidualAdd":
        a, b = upstream
        if a.shape != b.shape:
            raise ModelError(f"residual add shape mismatch: {a.shape} vs {b.shape}")
        return a + b
    if kind == "MatMul":
        return matmul_pair(upstream[0], upstream[1], p.get("transpose_b", False))
    raise ModelError(f"unhandled kind '{kind}'")  # pragma: no cover


def _check_inputs(model: ModelGraph, inputs: dict[int, np.ndarray]) -> None:
    """Raise ModelError unless inputs holds a tensor for every modality of model."""
    for m in model.modality_inputs:
        if m not in inputs:
            raise ModelError(f"missing input for modality {m}")


def forward(model: ModelGraph, inputs: dict[int, np.ndarray]) -> dict[str, np.ndarray]:
    """Run the plain forward pass; returns every layer's activation by id."""
    _check_inputs(model, inputs)
    acts: dict[str, np.ndarray] = {}
    for layer in model.layers:
        acts[layer.id] = eval_layer(layer, [acts[i] for i in layer.inputs], inputs)
    return acts


def _layer_to_doc(layer: LayerSpec) -> dict:
    doc = {"id": layer.id, "kind": layer.kind, "inputs": list(layer.inputs)}
    for key, val in layer.params.items():
        if isinstance(val, np.ndarray):
            doc[key] = val.tolist()
        elif isinstance(val, tuple):
            doc[key] = list(val)
        else:
            doc[key] = val
    return doc


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _layer_from_doc(doc: dict) -> LayerSpec:
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), str) for k in ("id", "kind"))):
        raise ModelError(f"layer document missing id/kind: {doc}")
    kind = doc["kind"]
    params = {k: v for k, v in doc.items() if k not in ("id", "kind", "inputs")}
    where = f"layer '{doc['id']}' ({kind})"
    for key, typ in _KINDS.get(kind, ((), {}))[1].items():
        if key not in params:
            raise ModelError(f"{where} missing '{key}'")
        val = params[key]
        if typ is tuple:
            if not isinstance(val, list) or not all(_is_int(v) for v in val):
                raise ModelError(f"{where} '{key}' must be a list of integers, got {val!r}")
            if kind == "Input" and not (val and min(val) > 0):
                raise ModelError(f"{where} '{key}' must be a non-empty list of positive integers, got {val!r}")
            params[key] = tuple(val)
        elif typ is np.ndarray:
            try:
                params[key] = as_tensor(val)
            except (TypeError, ValueError) as e:
                raise ModelError(f"{where} '{key}' is not a numeric array: {e}") from e
            if not np.isfinite(params[key]).all():
                raise ModelError(f"{where} '{key}' holds a non-finite value")
        elif not (_is_int(val) or (typ is float and isinstance(val, float))):
            raise ModelError(f"{where} '{key}' must be {typ.__name__}, got {val!r}")
    if kind == "MatMul" and not isinstance(params.get("transpose_b", False), bool):
        raise ModelError(f"{where} 'transpose_b' must be bool, got {params['transpose_b']!r}")
    inputs = doc.get("inputs", [])
    if not (isinstance(inputs, list) and all(isinstance(i, str) for i in inputs)):
        raise ModelError(f"{where} 'inputs' must be a list of layer ids, got {inputs!r}")
    return LayerSpec(doc["id"], kind, inputs, params)


def save_model(model: ModelGraph) -> bytes:
    """Serialize to a UTF-8 JSON document; weights inline as number lists."""
    doc = {
        "version": 1,
        "modalities": model.modalities,
        "layers": [_layer_to_doc(l) for l in model.layers],
        "output": model.output,
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def load_model(data: bytes) -> ModelGraph:
    """Parse a document produced by save_model; round-trips bit-exactly."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelError(f"model document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelError("model document is not a JSON object")
    if doc.get("version") != 1:
        raise ModelError(f"unsupported model version {doc.get('version')!r}")
    if "modalities" not in doc or "layers" not in doc or "output" not in doc:
        raise ModelError("model document missing modalities/layers/output")
    modalities, layer_docs, output = doc["modalities"], doc["layers"], doc["output"]
    if not (_is_int(modalities) and isinstance(layer_docs, list) and isinstance(output, str)):
        raise ModelError("model document needs integer modalities, a layers list and an output id")
    return ModelGraph([_layer_from_doc(d) for d in layer_docs], output, modalities)
