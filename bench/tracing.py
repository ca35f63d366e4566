"""Outside-in tracer for the ballspec layers.

The tracer never edits ``ballspec``: it swaps each public function of the
layer modules for a timing wrapper, under every name the function is bound
to in any loaded ``ballspec`` module (several callers import by value, e.g.
``first_root`` in ``spectrum`` and ``bounds``), plus the public methods of
``InducedGraph`` on the class and ``numpy.linalg.eigh`` while
``hamming.oracle_spectrum`` runs.  ``uninstall`` restores every binding.

Each call becomes one span ``(name, start, end, parent, command)`` kept in
memory; self time is computed from the spans afterwards.  Counts that the
layers do not expose (Sturm steps, vertices, dense bytes, oracle residual
ratio, certified radius) are read from the arguments and return values at
the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layer modules, in the order the report lists them.
LAYERS = ("tridiagonal", "krawtchouk", "hamming", "spectrum", "eigenfunctions", "bounds", "cli")
# The CLI's command handlers and parser builder are the body of ``main``, so
# only ``main`` is a span and its self time is argparse, formatting and printing.
CLI_ENTRY_POINTS = ("main",)
GRAPH_METHODS = ("dense_adjacency", "apply_adjacency", "edge_lines", "degree", "weight_of", "sphere_slice")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its direct children cover.

    ``spans`` is a sequence of ``(name, start, end, parent, command)`` with
    ``parent`` the index of the causing span or -1.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and boundary counts for every call into ballspec."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        materialize = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    # A generator does its work while the caller iterates;
                    # running it out here keeps that work inside the span.
                    result = list(result)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if after is not None:
                after(args, result)
            return iter(result) if materialize else result

        return wrapper

    def _after_hooks(self):
        counts, maxima = self.counts, self.maxima

        def sturm(args, _result):
            counts["tridiagonal.sturm_steps"] += len(args[0])

        def graph(_args, g):
            counts["hamming.vertices"] += g.vertex_count

        def dense(_args, a):
            counts["hamming.dense_bytes"] += a.nbytes

        def oracle(_args, spec):
            ratio = spec.residual_bound / spec.tolerance
            maxima["hamming.oracle_residual_ratio"] = max(maxima["hamming.oracle_residual_ratio"], ratio)

        def radius(_args, roots):
            biggest = max(roots.radius, default=0.0)
            maxima["spectrum.max_radius"] = max(maxima["spectrum.max_radius"], biggest)

        return {
            "tridiagonal.count_below": sturm,
            "hamming.build_graph": graph,
            "hamming.dense_adjacency": dense,
            "hamming.oracle_spectrum": oracle,
            "spectrum.lambda_set": radius,
        }

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._after_hooks()
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"ballspec.{layer}")
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or (layer == "cli" and attr not in CLI_ENTRY_POINTS):
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(name, obj, hooks.get(name)))
        packages = [m for key, m in sys.modules.items() if key == "ballspec" or key.startswith("ballspec.")]
        for mod in packages:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])

        graph_cls = importlib.import_module("ballspec.hamming").InducedGraph
        for attr in GRAPH_METHODS:
            name = f"hamming.{attr}"
            self._set(graph_cls, attr, self._span(name, getattr(graph_cls, attr), hooks.get(name)))

        eigh = np.linalg.eigh
        traced_eigh = self._span("hamming.eigh", eigh)
        stack = self._stack

        @functools.wraps(eigh)
        def eigh_in_oracle(*args, **kwargs):
            if stack and stack[-1][1] == "hamming.oracle_spectrum":
                return traced_eigh(*args, **kwargs)
            return eigh(*args, **kwargs)

        self._set(np.linalg, "eigh", eigh_in_oracle)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop the recorded spans and counts, keeping the wrappers installed."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.maxima.clear()


def summarize(spans) -> dict[str, float]:
    """``<layer>.<fn>.calls``, ``.busy_s`` and ``.self_s`` for every span name."""
    out: dict[str, float] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[name + ".calls"] += 1
        out[name + ".busy_s"] += span[2] - span[1]
        out[name + ".self_s"] += own
    return out
