"""Invariants of the decomposition on generated fusion graphs (hypothesis).

One strategy draws a small GenSpec, a SplitConfig valid for its model, a
sample x, a replacement sample y and a set of member modalities. Every draw
must keep the equality contract at every layer, and splicing two runs at the
separable frontier must reproduce, bit for bit, a full propagate of the
spliced inputs: the full and the empty run give x with the non-members
zeroed (a Shapley coalition), the run of y and the clean run give x with the
members replaced by y's (a replacement of the protocol).

The equality contract is asserted on draws whose components cancel by at
most 1e6 (the largest component over the largest total, at any layer).
Beyond about 1e7, float64 rounding of the components alone exceeds 1e-9 of
the total: a few draws in a thousand get there under the identity and
uniform ln_rule, where a norm with a small recorded variance scales every
component by up to gamma/sqrt(eps) while their sum stays small.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modaldecomp import (
    GenSpec,
    SplitConfig,
    decompose,
    equality_residuals,
    gen_sample_set,
    gen_synthetic_model,
    propagate,
)
from modaldecomp.decompose import _splice


def _ordered_subset(names):
    return st.lists(st.sampled_from(names), unique=True, max_size=len(names)).map(tuple)


@st.composite
def cases(draw):
    spec = GenSpec(
        modalities=draw(st.integers(1, 4)),
        grid=draw(st.integers(1, 6)),
        channels=draw(st.integers(1, 3)),
        depth=draw(st.integers(1, 3)),
        norms=draw(_ordered_subset(["batchnorm", "layernorm", "instancenorm"])),
        activations=draw(_ordered_subset(["relu", "gelu"])),
        include_attention=draw(st.booleans()),
    )
    act_rules = ["none", "sum", "ratio"] if spec.modalities == 2 else ["none"]
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
    for take, rest, src, dst in ((res.components, empty, x, zeros), (replaced, res.components, y, x)):
        spliced = _splice(model, res.state, cfg, take, rest, members)
        spliced_inputs = {m: src[m] if m in members else dst[m] for m in range(M)}
        ref = propagate(model, res.state, spliced_inputs, cfg)
        assert model.output in spliced
        for lid, d in spliced.items():
            assert np.array_equal(d.parts, ref[lid].parts), lid

    cancellation = max(
        np.abs(d.parts).max() / (1.0 + np.abs(d.total()).max()) for d in res.components.values()
    )
    assume(cancellation <= 1e6)
    residuals = equality_residuals(model, res.components, res.state)
    assert max(residuals.values()) <= 1e-9, residuals
