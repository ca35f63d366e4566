"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (a dimension
too large for a float included), 3 resource budget exceeded.  Text and CSV
output print floats with 15 significant digits; JSON uses Python's
shortest-roundtrip float repr.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from . import eigenfunctions, krawtchouk, spectrum
from .errors import BudgetExceededError, InvalidParameterError
from .hamming import build_graph, incidence_matrix

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
# Lines per write of ``export`` and of a json table: one joined string each, not one print per line.
_CHUNK_LINES = 1 << 14


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _radii(args) -> tuple[int, int]:
    if args.r is not None:
        if args.r1 is not None or args.r2 is not None:
            raise InvalidParameterError("give either --r or --r1/--r2, not both")
        return 0, args.r
    if args.r1 is None or args.r2 is None:
        raise InvalidParameterError("need --r or both --r1 and --r2")
    return args.r1, args.r2


def _emit_table(table: spectrum.SpectrumTable, fmt: str) -> None:
    if fmt == "json":  # the bytes of json.dumps(table.to_dict()), a chunk of lines at a time
        head = json.dumps(dataclasses.replace(table, lines=()).to_dict())
        sys.stdout.write(head.removesuffix("]}"))
        lines, sep = iter(table.lines), ""
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            sys.stdout.write(sep + ", ".join(json.dumps(line.to_dict()) for line in chunk))
            sep = ", "
        sys.stdout.write("]}\n")
    elif fmt == "csv":
        print("\n".join(table.csv_lines()))
    else:
        for line in table.lines:
            ts = ";".join(str(t) for t in line.contributors)
            print(f"{_fmt(line.value)} {line.multiplicity} {ts}")


def cmd_spectrum(args) -> int:
    r1, r2 = _radii(args)
    _emit_table(spectrum.full_spectrum(args.n, r1, r2), args.format)
    return EXIT_OK


def cmd_incidence(args) -> int:
    if args.r < 1:
        raise InvalidParameterError("incidence needs r >= 1")
    if args.show_matrix:
        mat = incidence_matrix(args.n, args.r)
        line = np.full(2 * mat.shape[1], ord(" "), dtype=np.uint8)  # "c c ... c\n", one digit per cell
        line[-1] = ord("\n")
        for row in mat:
            line[::2] = ord("0") + row
            sys.stdout.write(line.tobytes().decode("ascii"))
        return EXIT_OK
    _emit_table(spectrum.full_spectrum(args.n, args.r - 1, args.r), args.format)
    return EXIT_OK


def _verify_cases(max_n: int) -> list[tuple[int, int, int]]:
    """Every band with 1 <= n <= max_n, in (n, r1, r2) order."""
    cases = []
    for n in range(1, max_n + 1):
        for r1 in range(n // 2 + 1):
            for r2 in range(r1, n // 2 + 1):
                cases.append((n, r1, r2))
    return cases


def cmd_verify(args) -> int:
    if args.dense_limit is not None and args.dense_limit <= 0:
        raise InvalidParameterError("the dense limit must be positive")
    if args.all:
        if args.max_n is None:
            raise InvalidParameterError("--all requires --max-n")
        if args.max_n < 1:
            raise InvalidParameterError(f"--max-n must be at least 1, got {args.max_n}")
        if any(value is not None for value in (args.n, args.r, args.r1, args.r2)):
            raise InvalidParameterError("--all sweeps every band; give no --n, --r, --r1 or --r2")
        reports = spectrum.verify_bands(_verify_cases(args.max_n), tol=args.tol, dense_limit=args.dense_limit)
        print("n,r1,r2,vertices,max_deviation,passed")
        ok = True
        for rep in reports:
            ok = ok and rep.passed
            print(
                f"{rep.n},{rep.r1},{rep.r2},{rep.vertex_count},"
                f"{_fmt(rep.max_deviation)},{str(rep.passed).lower()}"
            )
        return EXIT_OK if ok else EXIT_VERIFY_FAIL

    if args.n is None:
        raise InvalidParameterError("need --n or --all")
    r1, r2 = _radii(args)
    rep = spectrum.verify_against_oracle(
        args.n, r1, r2, tol=args.tol, dense_limit=args.dense_limit
    )
    print(rep.summary())
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL


def cmd_krawtchouk(args) -> int:
    if args.eval is not None:
        p = krawtchouk.build(args.n, args.k)
        print(krawtchouk.eval_exact(p, args.eval))
    elif args.coeffs:
        p = krawtchouk.build(args.n, args.k)
        print(f"scale {p.scale}")
        print(" ".join(str(c) for c in p.coeffs))
    elif args.first_root:
        print(_fmt(krawtchouk.first_root(args.n, args.k, args.tol)))
    else:
        rl = krawtchouk.roots(args.n, args.k, args.tol)
        print(" ".join(_fmt(v) for v in rl.values))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.log2s is not None:
        log2_s = args.log2s
    else:
        log2_s = bounds_mod.log2_big(int(args.s))
    report = bounds_mod.ball_bound(args.n, log2_s)
    if args.format == "csv":
        print(bounds_mod.BoundsReport.CSV_HEADER)
        print(report.csv_row())
    elif args.format == "text":
        for key, value in report.to_dict().items():
            print(f"{key} {_fmt(value) if isinstance(value, float) else value}")
    else:
        print(json.dumps(report.to_dict()))
    return EXIT_OK


def cmd_eigenfunction(args) -> int:
    r1, r2 = _radii(args)
    if args.y is not None:
        if not args.y or len(args.y) != args.n or args.y.strip("01"):
            raise InvalidParameterError(f"--y must be a string of n = {args.n} 0s and 1s, got {args.y!r}")
        y = int(args.y, 2)
    else:
        y = (1 << args.t) - 1
    fn = eigenfunctions.synthesize(args.n, r1, r2, args.t, y, args.which)
    if args.format == "text":
        print(f"lambda {_fmt(fn.eigenvalue)}")
        print(f"residual {_fmt(fn.residual)}")
        print("coeffs " + " ".join(_fmt(c) for c in fn.coeffs))
    else:
        print(json.dumps(fn.to_dict()))
    return EXIT_OK


def cmd_export(args) -> int:
    r1, r2 = _radii(args)
    lines = build_graph(args.n, r1, r2).edge_lines()
    while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
        chunk.append("")
        sys.stdout.write("\n".join(chunk))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="ballspec",
        description="Spectra and eigenfunctions of weight-band subgraphs of the binary cube",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_band(p, n_required=True):
        p.add_argument("--n", type=int, required=n_required)
        p.add_argument("--r", type=int, default=None, help="ball radius (r1=0)")
        p.add_argument("--r1", type=int, default=None)
        p.add_argument("--r2", type=int, default=None)

    p = sub.add_parser("spectrum", help="closed-form spectrum table")
    p.set_defaults(func=cmd_spectrum)
    add_band(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("verify", help="cross-check the table against the dense oracle")
    p.set_defaults(func=cmd_verify)
    add_band(p, n_required=False)
    p.add_argument("--all", action="store_true", help="sweep all bands up to --max-n")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--tol", type=float, default=spectrum.VERIFY_TOL)
    p.add_argument("--dense-limit", type=int, default=None,
                   help="cap the oracle at this many vertices per graph and per batch of --all; "
                        "without it, the oracle is budgeted by the cells of its blocks")

    p = sub.add_parser("krawtchouk", help="exact polynomial operations")
    p.set_defaults(func=cmd_krawtchouk)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    what = p.add_mutually_exclusive_group()
    what.add_argument("--roots", action="store_true", help="certified roots (default)")
    what.add_argument("--first-root", action="store_true")
    what.add_argument("--eval", type=int, default=None, metavar="X")
    what.add_argument("--coeffs", action="store_true")
    p.add_argument("--tol", type=float, default=krawtchouk.DEFAULT_TOL)

    p = sub.add_parser("bounds", help="entropy/eigenvalue bounds report")
    p.set_defaults(func=cmd_bounds)
    p.add_argument("--n", type=int, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--log2s", type=float, default=None)
    size.add_argument("--s", type=str, default=None, help="cardinality (integer, any size)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("eigenfunction", help="synthesize an explicit eigenfunction")
    p.set_defaults(func=cmd_eigenfunction)
    add_band(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--y", type=str, default=None, help="origin mask as a bitstring")
    p.add_argument("--which", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("incidence", help="spectrum of two adjacent spheres")
    p.set_defaults(func=cmd_incidence)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--show-matrix", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("export", help="edge list of a band graph, one 'u v' per line")
    p.set_defaults(func=cmd_export)
    add_band(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # an integer that no float can hold
        print(f"error: the dimension is too large for floating point: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
