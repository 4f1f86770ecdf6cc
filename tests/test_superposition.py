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
    apply_frozen,
    gen_sample_set,
    lin_matmul,
    propagate,
    record,
)
from modaldecomp.decompose import _chord_ratio
from modaldecomp.model import eval_layer

from conftest import small_model

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
    from modaldecomp.decompose import (
        lin_activation,
        lin_affine,
        lin_batchnorm,
        lin_concat,
        lin_instancenorm,
        lin_layernorm,
        lin_residual_add,
        lin_softmax,
    )

    kind = layer.kind
    if kind in ("Dense", "Conv2d"):
        return lin_affine(layer, d)
    if kind in ("ReLU", "GELU"):
        return lin_activation(layer, d, state, cfg)
    if kind == "Softmax":
        return lin_softmax(layer, d, state)
    if kind == "BatchNorm":
        return lin_batchnorm(layer, d, cfg)
    if kind == "LayerNorm":
        return lin_layernorm(layer, d, state, cfg)
    if kind == "InstanceNorm":
        return lin_instancenorm(layer, d, state, cfg)
    raise ValueError(kind)


ELEMENT_KINDS = ["Dense", "Conv2d", "BatchNorm", "LayerNorm", "InstanceNorm", "ReLU", "GELU", "Softmax"]


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


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_component_sum_matches_frozen_layer(kind, cfg, rng):
    """Summing rule outputs over components equals the frozen map on the sum."""
    layer, state, _ = build_case(kind, rng)
    for _ in range(10):
        d = DecomposedTensor(rng.normal(size=(3,) + SHAPE))
        out = run_rule(layer, state, cfg, d)
        ref = apply_frozen(layer, state, cfg, [d.total()])
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(out.total() - ref)) / scale <= 1e-9


@pytest.mark.parametrize("kind", ELEMENT_KINDS)
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_frozen_layer_matches_plain_layer_at_recorded_input(kind, cfg, rng):
    """The frozen layer reproduces the original layer at the recorded point."""
    layer, state, pre = build_case(kind, rng)
    ref = eval_layer(layer, [pre])
    got = apply_frozen(layer, state, cfg, [pre])
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
    from modaldecomp.decompose import lin_concat, lin_residual_add

    for _ in range(10):
        a = DecomposedTensor(rng.normal(size=(3, 4)))
        b = DecomposedTensor(rng.normal(size=(3, 4)))
        c = DecomposedTensor(rng.normal(size=(3, 4)))
        lhs = lin_residual_add(lin_residual_add(a, b), c).parts
        rhs = a.parts + b.parts + c.parts
        assert np.allclose(lhs, rhs, rtol=1e-12)
        cat = lin_concat([a, b], 0)
        assert np.allclose(cat.total(), np.concatenate([a.total(), b.total()]), rtol=1e-12)


def test_matmul_additive_per_operand(rng):
    fixed = DecomposedTensor(rng.normal(size=(3, 4, 4)))
    for _ in range(20):
        a, b, c = (DecomposedTensor(rng.normal(size=(3, 4, 4))) for _ in range(3))
        summed = DecomposedTensor(a.parts + b.parts + c.parts)
        lhs = lin_matmul(summed, fixed).parts
        rhs = lin_matmul(a, fixed).parts + lin_matmul(b, fixed).parts + lin_matmul(c, fixed).parts
        scale = 1.0 + np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9
        # and in the right operand
        lhs = lin_matmul(fixed, summed).parts
        rhs = lin_matmul(fixed, a).parts + lin_matmul(fixed, b).parts + lin_matmul(fixed, c).parts
        assert np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(lhs))) <= 1e-9
