"""Invariants of the decomposition on generated fusion graphs (hypothesis).

One strategy draws a small GenSpec, a SplitConfig valid for its model, a
sample x, a replacement sample y and a set of member modalities. Every draw
must keep the equality contract at every layer, and splicing two runs at the
separable frontier must reproduce, bit for bit, a full propagate of the
spliced inputs: the full and the empty run give x with the non-members
zeroed (a Shapley coalition), the run of y and the clean run give x with the
members replaced by y's (a replacement of the protocol). And, unless a layer
re-routes bias mass, x and y swept together under x's state as one stacked
run must give, in each one's modality rows at every layer and in the shared
bias row outside the suffix, its own propagate bit for bit. The hybrid
Shapley game, played on splices, must equal the same game
played with one full propagate per coalition, bit for bit, for x and for y
under x's state.

The equality contract, and the hybrid game's efficiency, are asserted on
draws whose components cancel by at most 1e6 (the largest component over
the largest total, at any layer). Beyond about 1e7, float64 rounding of the components alone exceeds 1e-9 of
the total: a few draws in a thousand get there under the identity and
uniform ln_rule, where a norm with a small recorded variance scales every
component by up to gamma/sqrt(eps) while their sum stays small.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modaldecomp import (
    EQUALITY_TOL,
    GenSpec,
    SplitConfig,
    decompose,
    equality_residuals,
    gen_sample_set,
    gen_synthetic_model,
    hybrid_shapley,
    propagate,
)
from modaldecomp.decompose import _decompose, _Plan, _splice

from conftest import full_propagate_hybrid


def _ordered_subset(names):
    return st.lists(st.sampled_from(names), unique=True, max_size=len(names)).map(tuple)


@st.composite
def cases(draw, separable=False):
    """A draw as the module docstring says; separable ones have no attention and act_rule 'none'."""
    spec = GenSpec(
        modalities=draw(st.integers(1, 4)),
        grid=draw(st.integers(1, 6)),
        channels=draw(st.integers(1, 3)),
        depth=draw(st.integers(1, 3)),
        norms=draw(_ordered_subset(["batchnorm", "layernorm", "instancenorm"])),
        activations=draw(_ordered_subset(["relu", "gelu"])),
        include_attention=not separable and draw(st.booleans()),
    )
    act_rules = ["none", "sum", "ratio"] if spec.modalities == 2 and not separable else ["none"]
    cfg = SplitConfig(
        draw(st.sampled_from(["identity", "uniform"])),
        draw(st.sampled_from(["ratio", "identity", "uniform"])),
        draw(st.sampled_from(act_rules)),
    )
    model = gen_synthetic_model(draw(st.integers(0, 2**16)), spec)
    x, y = gen_sample_set(draw(st.integers(0, 2**16)), model, 2).samples
    mask = draw(st.integers(0, (1 << spec.modalities) - 1))
    return model, cfg, x, y, {m for m in range(spec.modalities) if mask >> m & 1}


@settings(max_examples=200, deadline=None)
@given(cases())
def test_equality_and_splice_on_generated_graphs(case):
    model, cfg, x, y, members = case
    M = model.modalities
    res = decompose(model, x, cfg)
    zeros = {m: np.zeros_like(x[m]) for m in range(M)}
    empty = propagate(model, res.state, zeros, cfg)
    replaced = propagate(model, res.state, y, cfg)
    plan = _Plan(model, cfg)
    full, empty, replaced = ({lid: d.parts for lid, d in c.items()} for c in (res.components, empty, replaced))
    for take, rest, src, dst in ((full, empty, x, zeros), (replaced, full, y, x)):
        spliced = _splice(plan, res.state, take, rest, members)
        spliced_inputs = {m: src[m] if m in members else dst[m] for m in range(M)}
        ref = propagate(model, res.state, spliced_inputs, cfg)
        assert model.output in spliced
        for lid, h in spliced.items():
            assert np.array_equal(h, ref[lid].parts), lid

    # x and y in one sweep under x's state: unless a layer re-routes, run j's modality rows at every layer, and
    # its bias row outside the suffix, are its own propagate's
    if not plan.reroutes:
        stacked, _ = _decompose(plan, [x, y], state=res.state)
        suffix = {layer.id for layer in plan.suffix}
        for j, run in enumerate((x, y)):
            for lid, d in propagate(model, res.state, run, cfg).items():
                h = stacked[lid]
                assert h.shape[0] == 2 * M + 1
                assert h[j * M : (j + 1) * M].tobytes() == d.parts[:-1].tobytes(), lid
                if lid not in suffix:
                    assert h[-1].tobytes() == d.parts[-1].tobytes(), lid

    assume(_cancellation(res.components) <= 1e6)
    residuals = equality_residuals(model, res.components, res.state)
    assert max(residuals.values()) <= 1e-9, residuals


def _cancellation(components):
    """The largest component over the largest total, at any layer."""
    return max(np.abs(d.parts).max() / (1.0 + np.abs(d.total()).max()) for d in components.values())


@settings(max_examples=200, deadline=None)
@given(cases())
def test_hybrid_shapley_equals_full_propagate_game(case):
    model, cfg, x, y, _ = case
    res = decompose(model, x, cfg)
    fresh = hybrid_shapley(model, x, cfg)
    replaced = hybrid_shapley(model, y, cfg, state=res.state)
    for attr, inputs, state in ((fresh, x, None), (replaced, y, res.state)):
        base, per, total = full_propagate_hybrid(model, inputs, cfg, state)
        assert np.array_equal(attr.base, base)
        assert np.array_equal(attr.total, total)
        for m in range(model.modalities):
            assert np.array_equal(attr.per_modality[m], per[m]), m

    assume(_cancellation(res.components) <= 1e6)
    assert fresh.efficiency_residual() <= EQUALITY_TOL


@settings(max_examples=100, deadline=None)
@given(cases(separable=True))
def test_rows_separate_on_separable_graphs(case):
    """With every layer row-separable, replacing modality m's input leaves every other row and the bias row untouched."""
    model, cfg, x, y, _ = case
    state = decompose(model, x, cfg).state
    clean = propagate(model, state, x, cfg)
    for m in range(model.modalities):
        replaced = propagate(model, state, {**x, m: y[m]}, cfg)
        kept = [o for o in range(model.modalities + 1) if o != m]
        for lid, d in replaced.items():
            assert np.array_equal(d.parts[kept], clean[lid].parts[kept]), (m, lid)
