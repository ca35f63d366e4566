"""The stdout of the benchmark's four workloads, pinned.

``bench/workloads.py`` lists the command lines that ``bench/run.py`` times.
This test runs each list at seed 1 through ``cli.main``, in-process as the
benchmark does, and hashes every command's argv, exit code and stdout into
one SHA-256.  A change that claims to keep every output the same keeps this
digest; one that changes output on purpose updates it and says why.
``eigenfunction_synth`` is also pinned at seeds 2 and 3: it is the only
workload whose outputs depend on the seed, through its ``--y`` masks.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from ballspec import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def digest_of(workloads, names, seed):
    digest = hashlib.sha256()
    for name in names:
        for argv in workloads.commands(name, seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            digest.update(repr((argv, code, out.getvalue())).encode())
    return digest.hexdigest()


def test_the_benchmark_workloads_keep_their_stdout():
    workloads = load_workloads()
    # pinned at the oracle that splits its large blocks by a pair exchange, on which only oracle_verify's
    # max_deviation digits depend
    assert digest_of(workloads, sorted(workloads.WORKLOADS), 1) == \
        "925810134427a58d6afb9f20ef115afe592cfb0517b5cb60fcf10a2ad8e3102a"


@pytest.mark.parametrize("seed,expected", [
    (2, "be45e9a6910cc550a948c0eac7f7bc829ad961f17b72e30f09966ceb20720b49"),
    (3, "049ffc7ac5be9089bea9ba7afaefa9b4f98b734ca292b38a232775eb0cebc3e6"),
])
def test_the_eigenfunction_workload_keeps_its_stdout_at_other_seeds(seed, expected):
    assert digest_of(load_workloads(), ["eigenfunction_synth"], seed) == expected


def test_the_sweep_past_the_workload_keeps_its_stdout():
    # verify --all --max-n 12 (140 bands) reaches the 2,510-vertex hull of n = 12, which serves 28 bands;
    # the SHA-256 of its stdout, pinned at the oracle that splits its large blocks by a pair exchange
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--all", "--max-n", "12"]) == 0
    assert len(out.getvalue().splitlines()) == 140
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        "76ae75652f2fd5c6d5a7e5b078d268a400bbda7cae993069a5d15978102b06f5"
