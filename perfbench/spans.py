"""Span tracer that times modaldecomp's public functions from outside the library.

A traced run replaces each function listed in TRACED by a wrapper, in every
``modaldecomp`` namespace that binds it (``conv2d``, for instance, is bound in
both ``modaldecomp.model`` and ``modaldecomp.decompose``). A wrapper records a
span only while a root span (one set-up or one op) is open, so the
benchmark's own correctness checks between ops stay untraced.

A function that a refactor removes is reported absent; a function that stops
being called reports zero calls. Neither fails the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager

# (submodule, function) pairs; the metric prefix is "<submodule>.<function>"
TRACED = (
    ("tensor", "conv2d"),
    ("model", "forward"),
    ("model", "load_model"),
    ("synth", "gen_synthetic_model"),
    ("synth", "gen_sample_set"),
    ("synth", "load_samples"),
    ("decompose", "decompose"),
    ("decompose", "record"),
    ("decompose", "propagate"),
    ("decompose", "lin_affine"),
    ("decompose", "lin_activation"),
    ("decompose", "lin_batchnorm"),
    ("decompose", "lin_layernorm"),
    ("decompose", "lin_instancenorm"),
    ("decompose", "lin_concat"),
    ("decompose", "lin_residual_add"),
    ("decompose", "lin_matmul"),
    ("decompose", "lin_softmax"),
    ("decompose", "equality_residuals"),
    ("metrics", "perturbation_protocol"),
    ("metrics", "pearson"),
    ("metrics", "pearson_degenerate"),
    ("metrics", "mse"),
    ("shapley", "hybrid_shapley"),
    ("shapley", "shapley"),
    ("heatmap", "write_component_maps"),
    ("cli", "main"),
    ("parallel", "ordered_map"),
)

# called during set-up, so their metrics are per set-up rather than per op
SETUP_FUNCTIONS = frozenset({"synth.gen_synthetic_model", "synth.gen_sample_set"})

# span fields
NAME, PARENT, START, END, EXTRA, ROOT = range(6)


def _conv2d_work(args, kwargs, result):
    """Computed FLOP and bytes of one conv2d call, from array shapes only."""
    try:
        x = args[0] if args else kwargs["x"]
        w = args[1] if len(args) > 1 else kwargs["w"]
        flop = 2 * w.shape[1] * w.shape[2] * w.shape[3] * result.size
        return flop, x.nbytes + w.nbytes + result.nbytes
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _stack_sizes(args, kwargs, result):
    """Computed bytes and leading-axis length of the stacks propagate returns."""
    try:
        stacks = [d.parts for d in result.values()]
        return sum(s.nbytes for s in stacks), max(s.shape[0] for s in stacks)
    except (AttributeError, TypeError, ValueError):
        return None


PROBES = {"tensor.conv2d": _conv2d_work, "decompose.propagate": _stack_sizes}


class Tracer:
    """Keeps spans in memory; install() wraps the library, uninstall() restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        found = []
        for mod_name, fn_name in TRACED:
            try:
                mod = importlib.import_module(f"modaldecomp.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, fn_name, None)
            if callable(fn):
                found.append((f"{mod_name}.{fn_name}", fn))
            else:
                self.absent.append(f"{mod_name}.{fn_name}")
        # scan only after every submodule is imported, so no binding is missed
        namespaces = [
            ns
            for name, ns in list(sys.modules.items())
            if name == "modaldecomp" or name.startswith("modaldecomp.")
        ]
        for name, fn in found:
            wrapper = self._wrap(name, fn, PROBES.get(name))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is fn:
                        self._bindings.append((ns, attr, fn, wrapper))

    def _wrap(self, name, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, parent, clock(), 0.0, None, spans[parent][ROOT]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[EXTRA] = probe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._bindings:
            setattr(ns, attr, fn)

    @contextmanager
    def root(self, kind: str):
        """Open a root span ('setup' or 'op'); spans inside it belong to it."""
        idx = len(self.spans)
        span = [kind, -1, time.perf_counter(), 0.0, None, idx]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def write(self, path) -> None:
        """Write every span as one JSON line: op id, name, parent, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[ROOT], s[NAME], s[PARENT], s[START], s[END]]) + "\n")
