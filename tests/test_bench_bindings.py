"""The library names that the benchmark under bench/ reads or wraps.

``bench/run.py`` counts ``spectrum.AmbiguousMergeWarning``; the tracer in
``bench/tracing.py`` wraps each function under every name a module binds it
to, and the ``InducedGraph`` methods in ``GRAPH_METHODS``.  A rename here
would break ``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ballspec.hamming import InducedGraph
from ballspec.spectrum import AmbiguousMergeWarning

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_merge_warning_is_a_warning():
    assert issubclass(AmbiguousMergeWarning, Warning)


@pytest.mark.parametrize("module,name,home", [
    ("spectrum", "first_root", "krawtchouk"),
    ("bounds", "first_root", "krawtchouk"),
    ("cli", "build_graph", "hamming"),
    ("cli", "incidence_matrix", "hamming"),
    ("eigenfunctions", "lambda_set", "spectrum"),
])
def test_bindings_are_the_defining_function(module, name, home):
    # the tracer wraps a binding only if it is the defining module's own function
    bound = getattr(importlib.import_module(f"ballspec.{module}"), name)
    assert bound is getattr(importlib.import_module(f"ballspec.{home}"), name)


def test_graph_methods_the_tracer_wraps_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.GRAPH_METHODS:
        assert callable(getattr(InducedGraph, name, None)), name
