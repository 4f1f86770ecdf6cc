import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from modaldecomp import (
    DecomposedTensor,
    GenSpec,
    LayerSpec,
    ModelGraph,
    SplitConfig,
    forward,
    gen_synthetic_model,
    propagate,
    record,
)
from modaldecomp.decompose import _frozen_rule, _push
from modaldecomp.shapley import _shapley_from_values

# CLI tests run `python -m modaldecomp` in temporary directories, where a
# relative PYTHONPATH entry such as `src` no longer resolves.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def small_model(seed=7, **overrides):
    """Quick fusion net on an 8x8 grid for unit tests."""
    kw = dict(grid=8, channels=4, depth=2)
    kw.update(overrides)
    return gen_synthetic_model(seed, GenSpec(**kw))


def push(layer, d, state=None, cfg=SplitConfig()):
    """A single-input layer's frozen rule on d: bound as a sweep binds it, applied by _push."""
    rule = _frozen_rule(layer, state, cfg, d.parts.ndim - 1)
    return DecomposedTensor(_push(rule, d.parts, cfg.epsilon, d.parts.shape[0]))


def scalar_pair_model(w0=2.0, w1=3.0, bias=1.0):
    """Two scalar inputs fused by concat into one Dense output: w0*a + w1*b + bias."""
    layers = [
        LayerSpec("a", "Input", [], {"modality": 0, "shape": (1,)}),
        LayerSpec("b", "Input", [], {"modality": 1, "shape": (1,)}),
        LayerSpec("cat", "ConcatFusion", ["a", "b"], {"axis": 0}),
        LayerSpec(
            "head",
            "Dense",
            ["cat"],
            {"weight": np.array([[w0, w1]]), "bias": np.array([bias])},
        ),
    ]
    return ModelGraph(layers, "head", 2)


def every_kind_suffix_model(modalities, seed=3):
    """A hand-built net on (2, 4, 4) maps whose suffix, after a first MatMul, holds every layer kind.

    Each modality's Conv2d branch is concatenated and mapped by three Dense
    layers to q, k and v; MatMul(q, k^T) starts the suffix: Dense, Conv2d,
    BatchNorm, LayerNorm, InstanceNorm, ReLU, GELU, Softmax, a ConcatFusion,
    a Dense, a ResidualAdd onto the BatchNorm, and a second MatMul with v.
    """
    rng = np.random.default_rng(seed)

    def conv(lid, src, c_in):
        w = rng.uniform(-0.5, 0.5, (2, c_in, 3, 3))
        return LayerSpec(lid, "Conv2d", [src], {"weight": w, "bias": rng.normal(size=2), "stride": 1, "padding": 1})

    def dense(lid, src, c_in):
        return LayerSpec(lid, "Dense", [src], {"weight": rng.uniform(-0.7, 0.7, (2, c_in)), "bias": rng.normal(size=2)})

    def vectors(*names, shape=(2,)):
        return {name: rng.uniform(0.5, 1.5, shape) if name in ("gamma", "var") else rng.normal(size=shape)
                for name in names}

    layers = []
    for m in range(modalities):
        layers.append(LayerSpec(f"in{m}", "Input", [], {"modality": m, "shape": (2, 4, 4)}))
        layers.append(conv(f"branch{m}", f"in{m}", 2))
    c = 2 * modalities
    layers += [
        LayerSpec("cat", "ConcatFusion", [f"branch{m}" for m in range(modalities)], {"axis": 0}),
        dense("q", "cat", c),
        dense("k", "cat", c),
        dense("v", "cat", c),
        LayerSpec("scores", "MatMul", ["q", "k"], {"transpose_b": True}),
        dense("mix", "scores", 2),
        conv("conv", "mix", 2),
        LayerSpec("bn", "BatchNorm", ["conv"], {**vectors("mean", "var", "gamma", "beta"), "eps": 1e-5}),
        LayerSpec("ln", "LayerNorm", ["bn"], {"axes": (1, 2), **vectors("gamma", "beta", shape=(4, 4)), "eps": 1e-5}),
        LayerSpec("inorm", "InstanceNorm", ["ln"], {**vectors("gamma", "beta"), "eps": 1e-5}),
        LayerSpec("relu", "ReLU", ["inorm"]),
        LayerSpec("gelu", "GELU", ["relu"]),
        LayerSpec("softmax", "Softmax", ["gelu"], {"axis": -1}),
        LayerSpec("cat2", "ConcatFusion", ["softmax", "relu"], {"axis": 0}),
        dense("mix2", "cat2", 4),
        LayerSpec("res", "ResidualAdd", ["mix2", "bn"]),
        LayerSpec("out", "MatMul", ["res", "v"]),
    ]
    return ModelGraph(layers, "out", modalities)


def full_propagate_hybrid(model, inputs, cfg, state=None):
    """The hybrid coalition game as one full propagate per coalition."""
    m = model.modalities
    if state is None:
        state = record(model, inputs, cfg)
    out = propagate(model, state, inputs, cfg)[model.output]
    zeros = {i: np.zeros(model.input_shape(i)) for i in range(m)}
    bias_values = {}
    for mask in range(1 << m):
        coalition = {i: inputs[i] if mask & (1 << i) else zeros[i] for i in range(m)}
        bias_values[mask] = propagate(model, state, coalition, cfg)[model.output].bias
    phis = _shapley_from_values(bias_values, m)
    per = {i: out.modality(i) + phis[i] for i in range(m)}
    return bias_values[0], per, out.total()


def forward_shapley(model, inputs):
    """The plain coalition game as one plain forward per coalition: (base, per-modality values, total)."""
    m = model.modalities
    zeros = {i: np.zeros(model.input_shape(i)) for i in range(m)}
    values = {}
    for mask in range(1 << m):
        coalition = {i: inputs[i] if mask & (1 << i) else zeros[i] for i in range(m)}
        values[mask] = forward(model, coalition)[model.output]
    return values[0], _shapley_from_values(values, m), values[(1 << m) - 1]


def count_calls(monkeypatch, modules, names):
    """Count the calls of each of names in every module (a dotted name) that binds it; returns the live counts."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for mod in map(sys.modules.get, modules):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return counts


def peak(fn) -> int:
    """The tracemalloc peak, in bytes, over one call of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
