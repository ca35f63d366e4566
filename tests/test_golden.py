"""Golden stdout: exact bytes and exit code of a fixed list of CLI commands.

Each ``tests/golden/<name>.txt`` holds two header lines (``# ballspec
<argv>`` and ``# exit <code>``) followed by the command's stdout, byte for
byte.  The list covers every subcommand and every ``--format`` of each.

The goldens change only in a change that means to change output and says
so in CHANGES.md.  To rewrite them after such a change, run
``python tests/test_golden.py --update`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from ballspec.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "spectrum_ball_text": "spectrum --n 4 --r 1",
    "spectrum_ball_json": "spectrum --n 30 --r 15 --format json",
    "spectrum_band_csv": "spectrum --n 30 --r1 5 --r2 15 --format csv",
    "spectrum_band_text": "spectrum --n 21 --r1 3 --r2 10 --format text",
    "spectrum_band_near_40": "spectrum --n 46 --r1 1 --r2 22",
    "spectrum_ball_1e18": "spectrum --n 1000000000000000000 --r 2",
    "spectrum_ball_1e19": "spectrum --n 10000000000000000000 --r 2",
    "spectrum_ball_1e21_radius_1": "spectrum --n 1000000000000000000000 --r 1",
    "spectrum_bad_radius": "spectrum --n 4 --r 3",
    "incidence_text": "incidence --n 30 --r 15",
    "incidence_json": "incidence --n 9 --r 4 --format json",
    "incidence_csv": "incidence --n 10 --r 3 --format csv",
    "incidence_show_matrix": "incidence --n 5 --r 2 --show-matrix",
    "verify_ball": "verify --n 8 --r 2",
    "verify_band": "verify --n 9 --r1 2 --r2 4",
    "verify_all": "verify --all --max-n 7",
    "verify_budget": "verify --n 20 --r 10",
    "krawtchouk_default": "krawtchouk --n 12 --k 5",
    "krawtchouk_roots_tol": "krawtchouk --n 30 --k 7 --roots --tol 1e-6",
    "krawtchouk_coeffs": "krawtchouk --n 9 --k 4 --coeffs",
    "krawtchouk_eval": "krawtchouk --n 9 --k 4 --eval 3",
    "krawtchouk_first_root_small": "krawtchouk --n 40 --k 6 --first-root",
    "krawtchouk_first_root_large": "krawtchouk --n 1000 --k 120 --first-root",
    "krawtchouk_first_root_huge": "krawtchouk --n 100000 --k 44120 --first-root",
    "krawtchouk_first_root_past_half": "krawtchouk --n 1000 --k 781 --first-root",
    "krawtchouk_first_root_zero_dimension": "krawtchouk --n 0 --k 5 --first-root",
    "bounds_json": "bounds --n 100 --log2s 50",
    "bounds_csv": "bounds --n 300 --log2s 100.5 --format csv",
    "bounds_csv_large": "bounds --n 100000 --log2s 99000.0 --format csv",
    "bounds_text": "bounds --n 1000 --s 1000000000000000000000000000000 --format text",
    "eigenfunction_json": "eigenfunction --n 8 --r 3 --t 1 --which 1",
    "eigenfunction_text":
        "eigenfunction --n 8 --r1 1 --r2 4 --t 2 --y 00100100 --which 2 --format text",
    "eigenfunction_single_sphere_text": "eigenfunction --n 6 --r 3 --t 3 --format text",
    "eigenfunction_origin_below_band_json": "eigenfunction --n 12 --r1 2 --r2 6 --t 1 --which 3",
    "export_band": "export --n 6 --r1 1 --r2 2",
}


def run(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(shlex.split(argv))
    return code, out.getvalue()


def render(argv: str) -> str:
    code, out = run(argv)
    return f"# ballspec {argv}\n# exit {code}\n{out}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert render(COMMANDS[name]) == expected


def test_no_stray_goldens():
    assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == set(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.txt"):
        stale.unlink()
    for name, argv in COMMANDS.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render(argv))
