import json
import subprocess
import sys

import pytest

from ballspec import cli, spectrum
from ballspec.cli import build_parser, main
from ballspec.hamming import ORACLE_CELL_BUDGET, ORACLE_VERTEX_BUDGET, build_graph, build_graphs, incidence_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_ball_text(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--r", "1")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-10)
    assert [int(r[1]) for r in rows] == [1, 3, 1]


def test_spectrum_json_schema(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "5", "--r1", "1", "--r2", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "r1", "r2", "total_dim", "lines"}
    assert doc["total_dim"] == 15
    for line in doc["lines"]:
        assert set(line) == {"value", "multiplicity", "t"}


@pytest.mark.parametrize("argv,band", [
    (["spectrum", "--n", "12", "--r", "5"], (12, 0, 5)),
    (["spectrum", "--n", "9", "--r1", "2", "--r2", "4"], (9, 2, 4)),
    (["incidence", "--n", "10", "--r", "3"], (10, 2, 3)),
    (["spectrum", "--n", "3", "--r", "0"], (3, 0, 0)),  # one line
])
@pytest.mark.parametrize("chunk", [None, 1, 2])
def test_json_table_is_written_in_chunks_with_the_bytes_of_to_dict(capsys, monkeypatch, argv, band, chunk):
    if chunk:
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
    code, out, _ = run(capsys, *argv, "--format", "json")
    table = spectrum.full_spectrum(*band)
    assert code == 0 and out == json.dumps(table.to_dict()) + "\n"
    assert (len(table.lines) == 1) == (band == (3, 0, 0))  # the others span several chunks of 1 or 2


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--r", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,t"
    assert lines[3].endswith(",3,0;2")  # the zero line, origins 0 and 2


def test_spectrum_usage_error(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "4", "--r", "3")
    assert code == 2 and "error" in err


def test_spectrum_conflicting_radii(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "4", "--r", "1", "--r1", "0", "--r2", "1")
    assert code == 2


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "8", "--r", "2")
    assert code == 0 and "pass" in out


def test_verify_budget_exit(capsys):
    code, _, err = run(capsys, "verify", "--n", "20", "--r", "10")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("n,r", [(40, 3), (60, 3), (64, 3), (16, 7)])
def test_verify_runs_bands_of_many_vertices_within_the_cell_budget(capsys, n, r):
    # 10,701 to 43,745 vertices, and 0.40 M to 4.02 M cells
    code, out, err = run(capsys, "verify", "--n", str(n), "--r", str(r))
    assert (code, err) == (0, "") and out.startswith(f"n={n} r1=0 r2={r} ") and out.endswith(" pass\n")


def test_verify_budget_exit_gives_the_cells_and_the_budget(capsys):
    assert run(capsys, "verify", "--n", "20", "--r", "10") == (
        3, "", f"budget exceeded: band (20,0,10) has 825193160 oracle cells, budget {ORACLE_CELL_BUDGET}\n"
    )


@pytest.mark.parametrize("n,vertices", [(22, 705_432), (23, 1_352_078)])
def test_verify_refuses_a_sphere_over_the_vertex_budget_before_building_it(capsys, monkeypatch, n, vertices):
    # a band of one sphere has no oracle cells, so only the vertex budget bounds it
    built = []
    monkeypatch.setattr(spectrum, "build_graphs", lambda bands: built.extend(bands) or build_graphs(bands))
    assert run(capsys, "verify", "--n", str(n), "--r1", "11", "--r2", "11") == (
        3, "", f"budget exceeded: band ({n},11,11) has {vertices} vertices, budget {ORACLE_VERTEX_BUDGET}\n"
    )
    assert built == []


def test_verify_all_up_to_11_takes_one_oracle_call(capsys, monkeypatch):
    calls = []
    batched = spectrum.oracle_spectra
    monkeypatch.setattr(spectrum, "oracle_spectra", lambda bands, **kw: calls.append(bands) or batched(bands, **kw))
    code, out, _ = run(capsys, "verify", "--all", "--max-n", "11")
    assert (code, len(calls), len(calls[0])) == (0, 1, 111)
    hulls = list(dict.fromkeys((g.n, g.r1, g.r2) for g, _, _ in calls[0]))
    assert hulls == [(n, 0, n // 2) for n in range(1, 12)]
    assert out.count("\n") == 112 and "false" not in out


def test_verify_all_checks_every_budget_before_solving(capsys, monkeypatch):
    solved = []
    table, oracle = spectrum._table, spectrum.oracle_spectra
    monkeypatch.setattr(spectrum, "_table", lambda *args: solved.append(args) or table(*args))
    monkeypatch.setattr(spectrum, "oracle_spectra",
                        lambda *args, **kwargs: solved.append(args) or oracle(*args, **kwargs))
    # (6,0,2) is the first band over 20 vertices; the 20 bands with n <= 5 fit
    code, out, err = run(capsys, "verify", "--all", "--max-n", "6", "--dense-limit", "20")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: band (6,0,2) has 22 vertices, budget 20\n"
    assert solved == []


def test_verify_all_csv(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r1,r2,vertices,max_deviation,passed"
    assert all(line.endswith("true") for line in lines[1:])
    # deterministic case ordering
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys)


def test_verify_all_is_one_sweep_and_prints_the_same_at_any_dense_limit_that_fits(capsys, monkeypatch):
    sweeps = []
    verify = spectrum.verify_bands
    monkeypatch.setattr(spectrum, "verify_bands",
                        lambda *args, **kwargs: sweeps.append(args) or verify(*args, **kwargs))
    code, out, _ = run(capsys, "verify", "--all", "--max-n", "11")
    # (11, 0, 5) has 1,024 vertices, the largest band here
    assert (code, len(sweeps)) == (0, 1)
    assert run(capsys, "verify", "--all", "--max-n", "11", "--dense-limit", "1024") == (0, out, "")
    assert out.count("\n") == 112 and "false" not in out


def test_export_prints_every_edge_line_once_across_its_writes(capsys):
    # (20, 0, 4) has 23,200 edges: more than one joined write and more than one chunk of rows
    code, out, _ = run(capsys, "export", "--n", "20", "--r", "4")
    lines = list(build_graph(20, 0, 4).edge_lines())
    assert code == 0 and len(lines) == 23200
    assert out == "".join(f"{line}\n" for line in lines)


# A dimension, or a first-root coupling, too large for a float.
TOO_LARGE_FOR_A_FLOAT = [
    ["spectrum", "--n", str(10**400), "--r", "1"],
    ["incidence", "--n", str(10**400), "--r", "1"],
    ["eigenfunction", "--n", str(10**400), "--r", "1", "--t", "0"],
    ["krawtchouk", "--n", str(10**400), "--k", "2", "--first-root"],
    ["krawtchouk", "--n", str(10**308), "--k", "3", "--first-root"],
    ["bounds", "--n", str(10**400), "--log2s", "5"],
]


@pytest.mark.parametrize("argv", [
    ["verify", "--r", "2"],
    ["verify", "--n", "4", "--r", "2", "--tol", "nan"],
    ["verify", "--n", "4", "--r", "2", "--tol", "0"],
    ["verify", "--all", "--max-n", "0"],
    ["verify", "--all", "--max-n", "-3"],
    ["verify", "--all", "--max-n", "3", "--n", "5"],
    ["verify", "--all", "--max-n", "3", "--r", "1"],
    ["verify", "--all", "--max-n", "3", "--r1", "0"],
    ["verify", "--all", "--max-n", "3", "--r2", "1"],
    ["krawtchouk", "--n", "100", "--k", "5", "--first-root", "--tol", "nan"],
    ["krawtchouk", "--n", "100", "--k", "5", "--first-root", "--tol", "inf"],
    ["krawtchouk", "--n", "5", "--k", "2", "--tol", "-1"],
    ["spectrum", "--n", "8"],
    ["spectrum", "--n", "8", "--r1", "1"],
    ["spectrum", "--n", "8", "--r", "3", "--r1", "0"],
    ["incidence", "--n", "8", "--r", "0"],
    ["krawtchouk", "--n", "0", "--k", "5", "--first-root"],
    ["krawtchouk", "--n", "0", "--k", "0", "--first-root"],
    ["krawtchouk", "--n", "0", "--k", "-3", "--first-root"],
    ["krawtchouk", "--n", "0", "--k", "1", "--first-root", "--tol", "nan"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "1_0"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "0b0"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "1"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "000000000001"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", ""],
    *TOO_LARGE_FOR_A_FLOAT,
    # a bad --tol is a usage error even where a band is over the budget, one band or a sweep
    ["verify", "--n", "6", "--r", "2", "--dense-limit", "20", "--tol", "nan"],
    ["verify", "--all", "--max-n", "6", "--dense-limit", "20", "--tol", "nan"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", TOO_LARGE_FOR_A_FLOAT)
def test_dimension_too_large_for_a_float_says_so(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: the dimension is too large for floating point")


def test_verify_workers_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--r", "1", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["krawtchouk", "--n", "5", "--k", "2", "--first-root", "--eval", "3"],
    ["krawtchouk", "--n", "5", "--k", "2", "--roots", "--first-root"],
    ["krawtchouk", "--n", "5", "--k", "2", "--coeffs", "--eval", "0"],
    ["bounds", "--n", "100", "--log2s", "10", "--s", "5"],
    ["bounds", "--n", "100"],
])
def test_conflicting_or_missing_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["krawtchouk", "--n", "5", "--k", "2", "--tol", "nan"],
    ["krawtchouk", "--n", "40", "--k", "3", "--first-root", "--tol", "nan"],
])
def test_nan_tolerance_on_exact_roots_exits_2(argv):
    # a NaN tolerance never ends the exact-root bisection, so run it with a timeout
    proc = subprocess.run(
        [sys.executable, "-m", "ballspec.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error: ")


def test_krawtchouk_roots(capsys):
    code, out, _ = run(capsys, "krawtchouk", "--n", "4", "--k", "2", "--roots")
    assert code == 0 and out.strip() == "1 3"


def test_krawtchouk_eval_and_coeffs(capsys):
    code, out, _ = run(capsys, "krawtchouk", "--n", "4", "--k", "3", "--eval", "2")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "krawtchouk", "--n", "4", "--k", "2", "--coeffs")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "scale 2"
    assert [int(c) for c in lines[1].split()] == [12, -16, 4]


def test_krawtchouk_first_root_large_n(capsys):
    code, out, _ = run(capsys, "krawtchouk", "--n", "1000", "--k", "1", "--first-root")
    assert code == 0 and float(out) == 500.0


def test_krawtchouk_invalid_degree(capsys):
    code, _, err = run(capsys, "krawtchouk", "--n", "4", "--k", "5", "--roots")
    assert code == 2


@pytest.mark.parametrize("argv,err", [
    (["--n", "5", "--k", "0"], "error: roots requires degree >= 1\n"),
    (["--n", "5", "--k", "9"], "error: need 0 <= k <= N, got k=9, N=5\n"),
    (["--n", "-1", "--k", "1"], "error: need 0 <= k <= N, got k=1, N=-1\n"),
])
def test_krawtchouk_roots_words_a_bad_degree_as_before(capsys, argv, err):
    # the roots take N and k, not the coefficients, and check them as the coefficient build did
    code, out, got = run(capsys, "krawtchouk", *argv)
    assert (code, out, got) == (2, "", err)


def test_incidence(capsys):
    code, out, _ = run(capsys, "incidence", "--n", "4", "--r", "2")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    values = [float(r[0]) for r in rows]
    mults = [int(r[1]) for r in rows]
    s2, s6 = 2**0.5, 6**0.5
    assert values == pytest.approx([-s6, -s2, 0.0, s2, s6], abs=1e-10)
    assert mults == [1, 3, 2, 3, 1]


@pytest.mark.parametrize("n,r", [(5, 2), (8, 3), (9, 4)])
def test_incidence_show_matrix_prints_the_cells_of_each_row(capsys, n, r):
    # the reference: each cell of the 0/1 matrix formatted on its own, joined by spaces
    expected = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in incidence_matrix(n, r))
    assert run(capsys, "incidence", "--n", str(n), "--r", str(r), "--show-matrix") == (0, expected, "")


def test_incidence_matrix_is_budgeted_by_its_cells(capsys):
    # C(20, 7) x C(20, 8) doubles are 72.8 GiB; the budget is checked before anything is allocated
    code, out, err = run(capsys, "incidence", "--n", "20", "--r", "8", "--show-matrix")
    assert (code, out) == (3, "")
    assert err == (
        "budget exceeded: incidence (20,8) needs 77520 x 125970 = 9765194400 cells, budget 25000000\n"
    )


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "100", "--log2s", "50")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "n", "log2_s", "r", "t", "lambda_lower", "delta_upper",
        "modls_lower", "subcube_delta", "log_lower",
    ]
    assert doc["lambda_lower"] + doc["delta_upper"] == 100


def test_bounds_big_integer_cardinality(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "1000", "--s", str(2**968))
    assert code == 0
    assert json.loads(out)["log2_s"] == 968.0


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "40", "--log2s", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,log2_s,r,t,")
    assert len(lines) == 2


def test_eigenfunction_json(capsys):
    code, out, _ = run(capsys, "eigenfunction", "--n", "4", "--r", "2", "--t", "1",
                       "--which", "0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"lambda", "t", "y", "spheres"}
    assert doc["t"] == 1 and doc["y"] == "0001"


def test_export_edges(capsys):
    code, out, _ = run(capsys, "export", "--n", "4", "--r", "1")
    assert code == 0
    assert out.splitlines() == ["0 1", "0 2", "0 3", "0 4"]


def test_output_determinism(capsys):
    args = ("spectrum", "--n", "6", "--r1", "1", "--r2", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ballspec.cli", "krawtchouk", "--n", "6", "--k", "1", "--roots"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "3"


MIXED_COMMANDS = [
    ["spectrum", "--n", "6", "--r1", "1", "--r2", "3", "--format", "json"],
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "1"],  # a usage error in the command
    ["krawtchouk", "--n", "9", "--k", "4", "--roots"],
    ["bounds", "--n", "100"],  # an argparse usage error
    ["eigenfunction", "--n", "4", "--r", "2", "--t", "1", "--y", "0011", "--format", "text"],
    ["krawtchouk", "--n", "5", "--k", "2", "--first-root", "--eval", "3"],
    ["bounds", "--n", "100", "--log2s", "10", "--format", "csv"],
    ["spectrum", "--n", "6", "--r1", "1", "--r2", "3", "--format", "json"],
]


def test_one_parser_serves_many_commands_as_fresh_processes_do(capsys):
    assert build_parser() is build_parser()
    for argv in MIXED_COMMANDS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "ballspec.cli", *argv], capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
