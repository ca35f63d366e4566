"""The library names that the benchmark under bench/ reads or wraps.

``bench/run.py`` counts ``spectrum.AmbiguousMergeWarning``, which the
library no longer raises (lines merge only when proven equal) but keeps so
that the count, now always 0, still runs; the tracer in
``bench/tracing.py`` wraps each function under every name a module binds it
to, and the ``InducedGraph`` methods in ``GRAPH_METHODS``; it counts Sturm
rows as the length of the first argument of ``tridiagonal.count_below``, and
reads the residual ratio off the one ``OracleSpectrum`` that
``hamming.oracle_spectrum`` returns; ``bench/run.py`` reports the spans of
``krawtchouk.roots``, which ``spectrum.lambda_set`` calls by that name.  A
rename here, or a scalar first argument there, would break
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ballspec import cli
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


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_oracle_the_tracer_hooks_returns_one_spectrum_with_its_residual():
    # the tracer wraps hamming.oracle_spectrum by name and reads the residual ratio from its result
    assert "hamming.oracle_spectrum" in load_tracing().Tracer()._after_hooks()
    hamming = importlib.import_module("ballspec.hamming")
    spec = hamming.oracle_spectrum(hamming.build_graph(6, 0, 3))
    assert isinstance(spec, hamming.OracleSpectrum)
    assert 0.0 <= spec.residual_bound <= spec.tolerance == 1e-10 * 42


def test_graph_methods_the_tracer_wraps_exist():
    for name in load_tracing().GRAPH_METHODS:
        assert callable(getattr(InducedGraph, name, None)), name


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "8", "--r", "3"],
    ["krawtchouk", "--n", "2000", "--k", "700", "--first-root"],
    ["eigenfunction", "--n", "6", "--r", "3", "--t", "1"],
])
def test_traced_commands_count_sturm_rows(argv, capsys):
    # the tracer counts Sturm rows from the first argument of count_below, the couplings
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["tridiagonal.sturm_steps"] > 0


def test_traced_spectrum_records_the_krawtchouk_roots(capsys):
    # lambda_set's cross-check calls krawtchouk.roots by the public name the tracer wraps, so the
    # per-layer metrics krawtchouk.roots.calls and .busy_s see it
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["spectrum", "--n", "8", "--r", "3"]) == 0
    finally:
        tracer.uninstall()
    assert any(span[0] == "krawtchouk.roots" for span in tracer.spans)


def test_traced_bounds_prints_what_the_untraced_run_prints(capsys):
    # the first-root path hands eigenvalue_k the couplings' array by keyword; the tracer's wrappers
    # must pass it through and still see the list as the first argument of count_below
    argv = ["bounds", "--n", "10000", "--log2s", "5000"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert tracer.counts["tridiagonal.sturm_steps"] > 0
    assert any(span[0] == "tridiagonal.eigenvalue_k" for span in tracer.spans)
