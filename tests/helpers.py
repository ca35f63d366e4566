"""Shared cached builders so sweeps don't rebuild graphs and spectra."""

import dataclasses
import functools

import numpy as np

from ballspec.hamming import build_graph, oracle_spectrum
from ballspec.tridiagonal import exact_count


@functools.lru_cache(maxsize=None)
def cached_graph(n, r1, r2):
    return build_graph(n, r1, r2)


@functools.lru_cache(maxsize=None)
def cached_oracle(n, r1, r2):
    return oracle_spectrum(cached_graph(n, r1, r2))


@functools.lru_cache(maxsize=None)
def cached_eigh(n, r1, r2):
    """``np.linalg.eigh`` of the dense adjacency, (w, x) with x[:, i] a unit eigenvector of w[i].

    A reference independent of the oracle, for the tests that check eigenspaces.
    """
    return np.linalg.eigh(cached_graph(n, r1, r2).dense_adjacency())


def band_cases(max_n, include_equal=True):
    """All (n, r1, r2) with n <= max_n, 0 <= r1 <= r2 <= n//2."""
    for n in range(1, max_n + 1):
        for r2 in range(n // 2 + 1):
            for r1 in range(r2 + 1):
                if include_equal or r1 < r2:
                    yield n, r1, r2


def neighbour_lists(g):
    """The rows of the graph's CSR adjacency, as lists of vertex indices."""
    bounds, indices = g.indptr.tolist(), g.indices.tolist()
    return [indices[a:b] for a, b in zip(bounds, bounds[1:])]


def with_neighbour_lists(g, lists, edge_count):
    """The graph with its CSR adjacency rebuilt from per-vertex neighbour lists."""
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in lists])
    indices = np.array([v for nbrs in lists for v in nbrs], dtype=np.int64)
    return dataclasses.replace(g, indptr=indptr, indices=indices, edge_count=edge_count)


def exact_count_at(couplings, d, x):
    """``tridiagonal.exact_count`` at a dyadic float or Fraction x = num / 2^e."""
    num, den = x.as_integer_ratio()
    return exact_count(couplings, d, num, den.bit_length() - 1)
