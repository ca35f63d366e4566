"""Command lists of the benchmark workloads.

Each workload is a fixed list of ``ballspec`` command lines that one caller
runs in sequence.  The seed sets only the order of the list and the origin
masks ``--y`` of ``eigenfunction`` commands, never a problem size, so every
seed does the same work.

Why each workload exists:

* ``closed_form``: ball and band spectra plus two-sphere incidence spectra.
  Nearly all time is in the ``tridiagonal`` block solves, plus the
  ``krawtchouk`` exact-root cross-check where ``n - 2t <= 64``; ``hamming``
  is never touched.  The band case emits 8 ``AmbiguousMergeWarning``s, so a
  numerical edge is part of the workload.
* ``oracle_verify``: the dense oracle (``hamming`` adjacency, ``eigh`` and
  the residual) against the closed form, up to 2,510 vertices.
* ``bounds_large_n``: one extreme eigenvalue of a single Jacobi block with
  up to 44,120 rows, reached through ``krawtchouk.first_root`` -- the other
  way of using ``tridiagonal``.
* ``eigenfunction_synth``: eigenfunction synthesis on 12,616 vertices and an
  edge-list export; the only workload that runs ``eigenfunctions`` and the
  sparse neighbour lists of ``hamming``.
"""

from __future__ import annotations

import random

FORMATS = ("text", "csv", "json")
BOUNDS_DIMS = (1000, 10**4, 10**5)
BOUNDS_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
# An exact cardinality given as an integer (log2 is about 634 at n = 1000).
EXACT_CARDINALITY = 3**400
EIGENFUNCTION_BAND = (18, 5)


def _closed_form(rng: random.Random) -> list[list[str]]:
    cmds = [
        ["spectrum", "--n", str(n), "--r", str(n // 2), "--format", fmt]
        for n, fmt in zip((60, 100, 150), FORMATS)
    ]
    cmds.append(["spectrum", "--n", "200", "--r1", "50", "--r2", "100"])
    cmds.append(["incidence", "--n", "120", "--r", "60"])
    cmds.append(["incidence", "--n", "160", "--r", "80"])
    return cmds


def _oracle_verify(rng: random.Random) -> list[list[str]]:
    return [
        ["verify", "--all", "--max-n", "11"],
        ["verify", "--n", "12", "--r", "6"],
        ["verify", "--n", "12", "--r1", "4", "--r2", "6"],
    ]


def _bounds_large_n(rng: random.Random) -> list[list[str]]:
    cmds = []
    for i, (n, frac) in enumerate((n, f) for n in BOUNDS_DIMS for f in BOUNDS_FRACTIONS):
        cmds.append(["bounds", "--n", str(n), "--log2s", repr(frac * n), "--format", FORMATS[i % 3]])
    cmds.append(["bounds", "--n", "1000", "--s", str(EXACT_CARDINALITY)])
    cmds.append(["krawtchouk", "--n", "100000", "--k", "44120", "--first-root"])
    return cmds


def _eigenfunction_synth(rng: random.Random) -> list[list[str]]:
    n, r = EIGENFUNCTION_BAND
    cmds = []
    for t in range(r + 1):
        for which in range(r - t + 1):
            bits = rng.sample(range(n), t)
            y = "".join("1" if n - 1 - i in bits else "0" for i in range(n))
            # text prints the library's residual; json prints the class values,
            # from which the checker recomputes the residual itself.
            fmt = "text" if (t + which) % 2 == 0 else "json"
            cmds.append(["eigenfunction", "--n", str(n), "--r", str(r), "--t", str(t),
                         "--which", str(which), "--y", y, "--format", fmt])
    cmds.append(["export", "--n", "20", "--r", "4"])
    return cmds


WORKLOADS = {
    "closed_form": _closed_form,
    "oracle_verify": _oracle_verify,
    "bounds_large_n": _bounds_large_n,
    "eigenfunction_synth": _eigenfunction_synth,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines, in the order the seed gives them."""
    rng = random.Random(seed)
    cmds = WORKLOADS[workload](rng)
    rng.shuffle(cmds)
    return cmds
