import os
from pathlib import Path

import numpy as np
import pytest

from modaldecomp import DecomposedTensor, GenSpec, LayerSpec, ModelGraph, SplitConfig, gen_synthetic_model
from modaldecomp.decompose import _frozen_rule, _push

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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
