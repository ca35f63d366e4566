"""Checks every command's output against references built here with numpy only.

Nothing in this module calls ``ballspec``.  Comparisons use tolerances, not
hashes of stdout, so output that changes only in printed digits still
passes.  ``Checker.check`` returns ``None`` for a correct output and a short
reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

VERIFY_TOL = 1e-8  # the CLI's default --tol for verify
RESIDUAL_LIMIT = 1e-8  # eigenfunction residual bound the library documents
DENSE_JACOBI_LIMIT = 1000  # largest Jacobi matrix given to a dense eigvalsh
BOUNDS_KEYS = ("n", "log2_s", "r", "t", "lambda_lower", "delta_upper",
               "modls_lower", "subcube_delta", "log_lower")


def options(argv: list[str]) -> dict[str, str | bool]:
    """``--key value`` pairs of a command line; bare flags map to True."""
    out: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def band(opts) -> tuple[int, int, int]:
    n = int(opts["n"])
    if "r" in opts:
        return n, 0, int(opts["r"])
    return n, int(opts["r1"]), int(opts["r2"])


def spectrum_tol(n: int) -> float:
    # The CLI merges values of different origins closer than 1e-9 * (n + 1)
    # and prints their mean, so a printed value may sit that far from each.
    return 2e-9 * (n + 1)


def block_eigenvalues(n: int, r1: int, r2: int, t: int) -> np.ndarray:
    """Dense eigvalsh of the zero-diagonal block of origin weight t."""
    tstar = max(t, r1)
    off = np.sqrt([float((k - 1) * (n - 2 * t - k + 2)) for k in range(tstar - t + 2, r2 - t + 2)])
    a = np.diag(off, 1) + np.diag(off, -1) if len(off) else np.zeros((1, 1))
    return np.linalg.eigvalsh(a)


def origin_multiplicity(n: int, t: int) -> int:
    return math.comb(n, t) - (math.comb(n, t - 1) if t >= 1 else 0)


def band_dimension(n: int, r1: int, r2: int) -> int:
    return sum(math.comb(n, i) for i in range(r1, r2 + 1))


def popcount(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64)
    out = np.zeros_like(a)
    while a.any():
        out += a & 1
        a = a >> 1
    return out


def sturm_count(diag: float, off_sq: np.ndarray, x: float) -> int:
    """Eigenvalues below x of a constant-diagonal tridiagonal (LDL^T pivots)."""
    tiny = 1e-300
    q = diag - x
    count = int(q < 0.0)
    for e2 in off_sq.tolist():
        q = diag - x - e2 / (q if q != 0.0 else -tiny)
        count += q < 0.0
    return count


class BandGraph:
    """Vertex masks (ascending weight, then mask) and edges of a weight band."""

    def __init__(self, n: int, r1: int, r2: int):
        masks = np.arange(1 << n, dtype=np.int64)
        weights = popcount(masks)
        keep = (weights >= r1) & (weights <= r2)
        order = np.lexsort((masks[keep], weights[keep]))
        self.masks = masks[keep][order]
        self.weights = weights[keep][order]
        by_mask = np.argsort(self.masks)
        ascending = self.masks[by_mask]
        rows, cols = [], []
        for b in range(n):
            nb = self.masks ^ (1 << b)
            pos = np.minimum(np.searchsorted(ascending, nb), len(ascending) - 1)
            hit = ascending[pos] == nb
            rows.append(np.nonzero(hit)[0])
            cols.append(by_mask[pos[hit]])
        self.rows = np.concatenate(rows)
        self.cols = np.concatenate(cols)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=f[self.cols], minlength=len(self.masks))


class Checker:
    """Reference data is built on first use and cached for the run."""

    def __init__(self):
        self._blocks: dict = {}
        self._graphs: dict = {}
        self._roots: dict = {}

    # -- references -------------------------------------------------------

    def block(self, n, r1, r2, t) -> np.ndarray:
        key = (n, r1, r2, t)
        if key not in self._blocks:
            self._blocks[key] = block_eigenvalues(n, r1, r2, t)
        return self._blocks[key]

    def graph(self, n, r1, r2) -> BandGraph:
        key = (n, r1, r2)
        if key not in self._graphs:
            self._graphs[key] = BandGraph(n, r1, r2)
        return self._graphs[key]

    def first_root_ok(self, n: int, k: int, x: float) -> bool:
        """Is x the smallest root of K_k over {0..n}, to 1e-9 * n?

        The roots are the eigenvalues of the k x k Jacobi matrix with
        diagonal n/2 and squared off-diagonals (j-1)(n-j+2)/4.  Up to
        DENSE_JACOBI_LIMIT rows that matrix goes to eigvalsh; above it an
        independent Sturm count must put no eigenvalue below x - tol and at
        least one below x + tol.
        """
        tol = 1e-9 * max(1, n)
        off_sq = np.array([(j - 1) * (n - j + 2) / 4.0 for j in range(2, k + 1)])
        if k <= DENSE_JACOBI_LIMIT:
            key = (n, k)
            if key not in self._roots:
                off = np.sqrt(off_sq)
                a = np.diag(np.full(k, n / 2.0)) + np.diag(off, 1) + np.diag(off, -1)
                self._roots[key] = float(np.linalg.eigvalsh(a)[0])
            return abs(x - self._roots[key]) <= tol
        return sturm_count(n / 2.0, off_sq, x - tol) == 0 and sturm_count(n / 2.0, off_sq, x + tol) >= 1

    # -- per command ------------------------------------------------------

    def check(self, argv: list[str], code: int, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            return getattr(self, "_" + argv[0])(options(argv), out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _spectrum(self, opts, out):
        n, r1, r2 = band(opts)
        return self.spectrum_lines(n, r1, r2, opts.get("format", "text"), out)

    def _incidence(self, opts, out):
        r = int(opts["r"])
        return self.spectrum_lines(int(opts["n"]), r - 1, r, opts.get("format", "text"), out)

    def spectrum_lines(self, n, r1, r2, fmt, out) -> str | None:
        rows = out.splitlines()
        if fmt == "json":
            doc = json.loads(out)
            if (doc["n"], doc["r1"], doc["r2"]) != (n, r1, r2):
                return "json header names another band"
            if doc["total_dim"] != band_dimension(n, r1, r2):
                return "wrong total_dim"
            lines = [(float(d["value"]), int(d["multiplicity"]), list(d["t"])) for d in doc["lines"]]
        else:
            sep = "," if fmt == "csv" else " "
            if fmt == "csv":
                if rows[0] != "value,multiplicity,t":
                    return "bad csv header"
                rows = rows[1:]
            lines = []
            for row in rows:
                value, mult, ts = row.split(sep)
                lines.append((float(value), int(mult), [int(t) for t in ts.split(";")]))

        tol = spectrum_tol(n)
        used = {t: np.zeros(len(self.block(n, r1, r2, t)), dtype=bool) for t in range(r2 + 1)}
        prev = -math.inf
        for value, mult, ts in lines:
            if value <= prev:
                return "values not strictly increasing"
            prev = value
            if len(set(ts)) != len(ts) or mult != sum(origin_multiplicity(n, t) for t in ts):
                return f"wrong multiplicity or origins at {value!r}"
            for t in ts:
                ref = self.block(n, r1, r2, t)
                k = int(np.argmin(np.abs(ref - value)))
                if abs(ref[k] - value) > tol or used[t][k]:
                    return f"value {value!r} of origin {t} is not in the reference spectrum"
                used[t][k] = True
        if not all(u.all() for u in used.values()):
            return "reference eigenvalues missing from the table"
        if sum(mult for _, mult, _ in lines) != band_dimension(n, r1, r2):
            return "multiplicities do not sum to the band dimension"
        return None

    def _verify(self, opts, out):
        rows = out.splitlines()
        if opts.get("all"):
            max_n = int(opts["max-n"])
            # The CLI prints the cases in (n, r1, r2) order.
            expected = sorted((n, r1, r2) for n in range(1, max_n + 1)
                              for r2 in range(n // 2 + 1) for r1 in range(r2 + 1))
            if rows[0] != "n,r1,r2,vertices,max_deviation,passed":
                return "bad verify header"
            seen = []
            for row in rows[1:]:
                n, r1, r2, vertices, dev, passed = row.split(",")
                case = (int(n), int(r1), int(r2))
                seen.append(case)
                if passed != "true" or float(dev) > VERIFY_TOL:
                    return f"case {case} did not pass"
                if int(vertices) != band_dimension(*case):
                    return f"case {case} has the wrong vertex count"
            return None if seen == expected else "verify --all covered the wrong cases"
        n, r1, r2 = band(opts)
        if len(rows) != 1:
            return "expected one summary line"
        fields = dict(f.split("=") for f in rows[0].split()[:-1])
        if rows[0].split()[-1] != "pass" or fields["multiplicities"] != "ok":
            return "verify summary is not a pass"
        if (int(fields["n"]), int(fields["r1"]), int(fields["r2"])) != (n, r1, r2):
            return "summary names another band"
        if int(fields["vertices"]) != band_dimension(n, r1, r2):
            return "wrong vertex count"
        return None if float(fields["max_deviation"]) <= VERIFY_TOL else "deviation above tolerance"

    def _bounds(self, opts, out):
        n = int(opts["n"])
        log2_s = float(opts["log2s"]) if "log2s" in opts else math.log2(int(opts["s"]))
        fmt = opts.get("format", "json")
        if fmt == "json":
            rep = json.loads(out)
        elif fmt == "csv":
            header, row = out.splitlines()
            rep = dict(zip(header.split(","), row.split(",")))
        else:
            rep = dict(line.split(" ") for line in out.splitlines())
        if tuple(rep) != BOUNDS_KEYS:
            return "wrong bounds fields"
        rep = {k: float(v) for k, v in rep.items()}
        scale = 1e-9 * n
        u = rep["r"] / n
        entropy = -(u * math.log2(u) + (1 - u) * math.log2(1 - u))
        checks = {
            "n": rep["n"] == n,
            "log2_s": abs(rep["log2_s"] - log2_s) <= 1e-12 * n,
            "r": abs(n * entropy - log2_s) <= scale,
            "t": rep["t"] == math.floor(rep["r"]),
            "identity": abs(rep["lambda_lower"] + rep["delta_upper"] - n) <= scale,
            "modls": abs(rep["modls_lower"] - n * (1 - 2 * math.sqrt(u * (1 - u)))) <= scale,
            "subcube": abs(rep["subcube_delta"] - (n - log2_s)) <= scale,
            "log": abs(rep["log_lower"] - (n - log2_s) * math.log(2.0)) <= scale,
            "first_root": self.first_root_ok(n, int(rep["t"]) + 1, rep["delta_upper"] / 2.0),
        }
        bad = [k for k, ok in checks.items() if not ok]
        return f"bounds check failed: {bad}" if bad else None

    def _krawtchouk(self, opts, out):
        if not opts.get("first-root"):
            return "only --first-root is checked"
        n, k = int(opts["n"]), int(opts["k"])
        return None if self.first_root_ok(n, k, float(out)) else "first root off the reference"

    def _eigenfunction(self, opts, out):
        n, r1, r2 = band(opts)
        t, which = int(opts["t"]), int(opts["which"])
        ref = self.block(n, r1, r2, t)
        if opts.get("format", "json") == "text":
            fields = dict(line.split(" ", 1) for line in out.splitlines())
            lam = float(fields["lambda"])
            residual = float(fields["residual"])
            if len(fields["coeffs"].split()) != len(ref):
                return "wrong number of coefficients"
        else:
            doc = json.loads(out)
            lam = float(doc["lambda"])
            if doc["t"] != t or int(doc["y"], 2) != int(opts["y"], 2):
                return "eigenfunction names another origin"
            residual = self.eigenfunction_residual(n, r1, r2, int(opts["y"], 2), lam, doc["spheres"])
        if abs(lam - ref[which]) > spectrum_tol(n):
            return f"lambda {lam!r} is not eigenvalue {which} of block {t}"
        return None if residual <= RESIDUAL_LIMIT else f"residual {residual:.3e} above {RESIDUAL_LIMIT}"

    def eigenfunction_residual(self, n, r1, r2, y, lam, spheres) -> float:
        """max |A f - lam f| / max |f| for f given by its per-class values."""
        g = self.graph(n, r1, r2)
        overlap = popcount(g.masks & y)
        f = np.zeros(len(g.masks))
        for sphere in spheres:
            for cls in sphere["classes"]:
                f[(g.weights == sphere["i"]) & (overlap == cls["c"])] = cls["value"]
        return float(np.abs(g.apply(f) - lam * f).max() / np.abs(f).max())

    def _export(self, opts, out):
        n, r1, r2 = band(opts)
        edges = np.array([line.split(" ") for line in out.splitlines()], dtype=np.int64)
        expected = sum(i * math.comb(n, i) for i in range(r1 + 1, r2 + 1))
        if edges.shape != (expected, 2):
            return f"expected {expected} edges, got {edges.shape[0]}"
        u, v = edges[:, 0], edges[:, 1]
        masks = self.graph(n, r1, r2).masks
        if not (u < v).all() or v.max() >= len(masks):
            return "edge endpoints out of order or range"
        if len(np.unique(u * len(masks) + v)) != expected:
            return "duplicate edges"
        return None if (popcount(masks[u] ^ masks[v]) == 1).all() else "edge joins non-neighbours"
