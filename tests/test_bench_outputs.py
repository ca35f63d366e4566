"""The stdout of the benchmark's four workloads, pinned.

``bench/workloads.py`` lists the command lines that ``bench/run.py`` times.
This test runs each list at seed 1 through ``cli.main``, in-process as the
benchmark does, and hashes every command's argv, exit code and stdout into
one SHA-256.  A change that claims to keep every output the same keeps this
digest; one that changes output on purpose updates it and says why.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from ballspec import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_the_benchmark_workloads_keep_their_stdout():
    workloads = load_workloads()
    digest = hashlib.sha256()
    for name in sorted(workloads.WORKLOADS):
        for argv in workloads.commands(name, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            digest.update(repr((argv, code, out.getvalue())).encode())
    assert digest.hexdigest() == "fca61a7a0951351a4f11c51d25ab889cec59ccdc6a5c0c86cecaffee2afff868"
