"""Additivity of the frozen layer rules.

Two facets: (a) on modality streams the default rules are strictly linear,
so pushing a sum of tensors through equals the sum of individual pushes;
(b) for every rule and delta scheme, the componentwise outputs sum to the
frozen layer applied to the summed input, with caches held fixed.
"""

import numpy as np
import pytest

from modaldecomp import (
    DecomposedTensor,
    LayerSpec,
    RecordedState,
    SplitConfig,
    gen_sample_set,
    lin_matmul,
    propagate,
    record,
)
from modaldecomp.decompose import (
    _chord_ratio,
    lin_activation,
    lin_affine,
    lin_batchnorm,
    lin_concat,
    lin_instancenorm,
    lin_layernorm,
    lin_residual_add,
    lin_softmax,
)
from modaldecomp.model import eval_layer

from conftest import push, small_model

EPS = 1e-6
SHAPE = (2, 4, 4)


def build_case(kind, rng):
    """A layer of the given kind, a state recorded at a random input, and that input."""
    pre = rng.normal(size=SHAPE)
    if kind == "Dense":
        layer = LayerSpec("y", "Dense", ["x"], {"weight": rng.normal(size=(3, 2)), "bias": rng.normal(size=3)})
    elif kind == "Conv2d":
        layer = LayerSpec(
            "y", "Conv2d", ["x"],
            {"weight": rng.normal(size=(2, 2, 3, 3)), "bias": rng.normal(size=2), "stride": 1, "padding": 1},
        )
    elif kind == "BatchNorm":
        layer = LayerSpec(
            "y", "BatchNorm", ["x"],
            {"mean": rng.normal(size=2), "var": rng.uniform(0.5, 1.5, 2),
             "gamma": rng.uniform(0.8, 1.2, 2), "beta": rng.normal(size=2), "eps": 1e-5},
        )
    elif kind == "LayerNorm":
        layer = LayerSpec(
            "y", "LayerNorm", ["x"],
            {"axes": (0, 1, 2), "gamma": rng.uniform(0.8, 1.2, SHAPE),
             "beta": rng.normal(size=SHAPE), "eps": 1e-5},
        )
    elif kind == "InstanceNorm":
        layer = LayerSpec(
            "y", "InstanceNorm", ["x"],
            {"gamma": rng.uniform(0.8, 1.2, 2), "beta": rng.normal(size=2), "eps": 1e-5},
        )
    elif kind in ("ReLU", "GELU"):
        layer = LayerSpec("y", kind, ["x"], {})
    elif kind == "Softmax":
        layer = LayerSpec("y", "Softmax", ["x"], {"axis": 2})
    elif kind == "ResidualAdd":
        layer = LayerSpec("y", "ResidualAdd", ["x", "x2"], {})
    elif kind == "ConcatFusion":
        layer = LayerSpec("y", "ConcatFusion", ["x", "x2"], {"axis": 0})
    else:
        raise ValueError(kind)

    caches = {}
    if kind in ("ReLU", "GELU", "Softmax"):
        out = eval_layer(layer, [pre])
        c, r = _chord_ratio(pre, out, EPS)
        caches["y"] = {"ratio": c, "residual": r}
    elif kind == "LayerNorm":
        mean = pre.mean(axis=(0, 1, 2), keepdims=True)
        var = ((pre - mean) ** 2).mean(axis=(0, 1, 2), keepdims=True)
        caches["y"] = {"mean": mean, "var": var}
    elif kind == "InstanceNorm":
        mean = pre.mean(axis=(1, 2), keepdims=True)
        var = ((pre - mean) ** 2).mean(axis=(1, 2), keepdims=True)
        caches["y"] = {"mean": mean, "var": var}
    return layer, RecordedState({}, caches, EPS), pre


def run_rule(layer, state, cfg, d):
    return push(layer, d, state, cfg)


ELEMENT_KINDS = ["Dense", "Conv2d", "BatchNorm", "LayerNorm", "InstanceNorm", "ReLU", "GELU", "Softmax"]

# the single-input lin_* functions, each called with the arguments it takes
WRAPPERS = {
    "Dense": lambda layer, d, state, cfg: lin_affine(layer, d),
    "Conv2d": lambda layer, d, state, cfg: lin_affine(layer, d),
    "BatchNorm": lambda layer, d, state, cfg: lin_batchnorm(layer, d, cfg),
    "LayerNorm": lin_layernorm,
    "InstanceNorm": lin_instancenorm,
    "ReLU": lin_activation,
    "GELU": lin_activation,
    "Softmax": lambda layer, d, state, cfg: lin_softmax(layer, d, state),
}


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
def test_lin_wrappers_match_push(kind, rng):
    layer, state, _ = build_case(kind, rng)
    for cfg in (SplitConfig(), SplitConfig("uniform", "identity")):
        d = DecomposedTensor(rng.normal(size=(3,) + SHAPE))
        assert np.array_equal(WRAPPERS[kind](layer, d, state, cfg).parts, push(layer, d, state, cfg).parts)


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
def test_modality_stream_additivity(kind, rng):
    """f(a + b + c) = f(a) + f(b) + f(c) on a modality stream, caches fixed."""
    layer, state, _ = build_case(kind, rng)
    cfg = SplitConfig()
    for _ in range(30):
        a, b, c = rng.normal(size=(3,) + SHAPE)

        def modality0_out(x):
            d = DecomposedTensor(np.stack([x, np.zeros(SHAPE), np.zeros(SHAPE)]))
            return run_rule(layer, state, cfg, d).modality(0)

        lhs = modality0_out(a + b + c)
        rhs = modality0_out(a) + modality0_out(b) + modality0_out(c)
        scale = 1.0 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9


CONFIGS = [
    SplitConfig("identity", "ratio"),
    SplitConfig("uniform", "identity"),
    SplitConfig("identity", "uniform"),
    SplitConfig("uniform", "uniform"),
]


def frozen_layer(layer, state, cfg, x):
    """The frozen linearized layer on a plain tensor: its rule on a one-modality stack."""
    return push(layer, DecomposedTensor(np.stack([x, np.zeros_like(x)])), state, cfg).total()


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_component_sum_matches_frozen_layer(kind, cfg, rng):
    """Summing rule outputs over components equals the frozen map on the sum."""
    layer, state, _ = build_case(kind, rng)
    for _ in range(10):
        d = DecomposedTensor(rng.normal(size=(3,) + SHAPE))
        out = run_rule(layer, state, cfg, d)
        ref = frozen_layer(layer, state, cfg, d.total())
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(out.total() - ref)) / scale <= 1e-9


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_frozen_layer_matches_plain_layer_at_recorded_input(kind, cfg, rng):
    """The frozen layer reproduces the original layer at the recorded point."""
    layer, state, pre = build_case(kind, rng)
    ref = eval_layer(layer, [pre])
    got = frozen_layer(layer, state, cfg, pre)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_softmax_stack_ignores_act_rule():
    """act_rule re-routes ReLU/GELU bias mass only, never a Softmax's."""
    model = small_model(seed=5, include_attention=True, activations=())
    kinds = {layer.kind for layer in model.layers}
    assert "Softmax" in kinds and not kinds & {"ReLU", "GELU"}
    x = gen_sample_set(1, model, 1)[0]
    state = record(model, x)
    base = propagate(model, state, x, SplitConfig())
    upstream = model.by_id["attn_softmax"].inputs[0]
    for rule in ("sum", "ratio"):
        comp = propagate(model, state, x, SplitConfig(act_rule=rule))
        assert np.array_equal(comp[upstream].parts, base[upstream].parts)
        assert np.array_equal(comp["attn_softmax"].parts, base["attn_softmax"].parts)


def test_structural_rules_additive(rng):
    for _ in range(10):
        a, b, c = rng.normal(size=(3, 3, 4))
        lhs = lin_residual_add(lin_residual_add(a, b), c)
        rhs = a + b + c
        assert np.allclose(lhs, rhs, rtol=1e-12)
        cat = lin_concat([a, b], 0)
        assert np.allclose(cat.sum(axis=0), np.concatenate([a.sum(axis=0), b.sum(axis=0)]), rtol=1e-12)


def test_matmul_additive_per_operand(rng):
    fixed = rng.normal(size=(3, 4, 4))
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 3, 4, 4))
        summed = a + b + c
        lhs = lin_matmul(summed, fixed)
        rhs = lin_matmul(a, fixed) + lin_matmul(b, fixed) + lin_matmul(c, fixed)
        scale = 1.0 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9
        # and in the right operand
        lhs = lin_matmul(fixed, summed)
        rhs = lin_matmul(fixed, a) + lin_matmul(fixed, b) + lin_matmul(fixed, c)
        assert np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs))) <= 1e-9
