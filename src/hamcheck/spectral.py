"""Largest-eigenvalue computation for A(G) and Q(G) = D(G) + A(G).

This module computes radii and nothing else: whether a radius meets a
theorem's threshold is ``conditions.Condition.judge``'s rule.

``matrix_stack`` is the one place that builds A or Q: every route, the
verify scan's enclosures included, gets its matrices from it. Graph
objects' rows are unpacked by ``graphs.bit_matrix``, which ``write_graph6``
and ``analyze`` share; a scan slice's uint32 rows by ``graphs.unpack_rows``.
0/1 matrices pass as they are: a record's, a bipartite view's in side
order, or either flipped by ``conditions.RADII``'s ``bits_of`` for the
radius of a complement or a quasi-complement. ``radius_stack`` is the one
place that computes a spectral radius: the top eigenvalue by
``np.linalg.eigvalsh``, values only, of each matrix of a (B, n, n) stack.
``rho`` and ``q_radius`` are a stack of one, of a graph object or of a 0/1
matrix, which give the same matrix for the same graph; the verify scan
hands ``radius_stack`` the matrices of the graphs its enclosures leave
open, of its exception candidates, and of every representative its
tightness search walks. LAPACK takes each matrix of a stack on its own, so a radius has
the same bits in any stack, and every number the scan prints is the one
``analyze`` prints. ``eigen_oracle`` gives all eigenvalues of one graph's
matrix from the same driver, so its last one is that radius too.

``cw_bounds`` encloses the spectral radius of each matrix of a stack
between rigorous lower and upper bounds (Collatz-Wielandt and Rayleigh,
Horn & Johnson section 8.1) from a few batched matrix-vector products,
with no LAPACK call. The verify scan drops the graphs whose bounds already
miss the hypothesis, and where both ends of an enclosure get the same
status off the line, that status is the graph's; no printed number ever
comes from the bounds.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .graphs import BipartiteGraph, Graph, bit_matrix

DENSE_CAP = 64
CW_STEPS = 8        # power steps before cw_bounds reads its ratios
CW_SLACK = 1e-9     # cw_bounds widens each bound by this times 1 + the bound

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless_laplacian"


class SpectralEstimate(NamedTuple):
    value: float      # the top eigenvalue by eigvalsh, same bits in any stack
    iterations: int   # always 0 since no route iterates; perfbench's tracing reads it


def matrix_stack(graphs: Sequence[Graph | BipartiteGraph] | np.ndarray, which: str) -> np.ndarray:
    """A, or Q = A + D, of each same-size graph as a (B, n, n) float stack.
    The graphs are objects or a (B, n, n) array of 0/1 adjacency matrices."""
    if which not in (ADJACENCY, SIGNLESS_LAPLACIAN):
        raise ValueError(f"unknown matrix kind {which!r}")
    if isinstance(graphs, np.ndarray):
        bits = graphs
    else:
        graphs = [g.to_graph() for g in graphs]
        n = graphs[0].n if graphs else 0
        bits = bit_matrix([row for g in graphs for row in g.adj], n).reshape(len(graphs), n, n)
    matrices = bits.astype(float, order="C")
    if which == SIGNLESS_LAPLACIAN:
        # A has a zero diagonal, so writing the degrees there adds D
        count, n = matrices.shape[:2]
        matrices.reshape(count, n * n)[:, ::n + 1] = np.einsum("bij->bi", matrices)
    return matrices


def radius_stack(matrices: np.ndarray) -> list[SpectralEstimate]:
    """The spectral radius of each matrix of a (B, n, n) stack of A or Q
    matrices, as ``matrix_stack`` builds them: its top eigenvalue by
    ``eigvalsh``, same bits in any stack."""
    count, n = matrices.shape[:2]
    if n == 0:
        return [SpectralEstimate(0.0, 0)] * count
    return [SpectralEstimate(value, 0) for value in np.linalg.eigvalsh(matrices)[:, -1].tolist()]


def _cw_iterates(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = (M + I)^CW_STEPS 1 and y = (M + I) x for each matrix M of a
    (B, n, n) stack, in float64."""
    x = np.ones(matrices.shape[:2])
    for _ in range(CW_STEPS):
        x = np.einsum("bij,bj->bi", matrices, x) + x
    return x, np.einsum("bij,bj->bi", matrices, x) + x


def cw_bounds(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on the spectral radius of each matrix M of a
    (B, n, n) stack of nonnegative symmetric matrices, as ``matrix_stack``
    builds them. CW_STEPS power steps on M + I from x = 1 keep x > 0, also
    when M has a zero row or is bipartite. For B = M + I and y = Bx,
    rho(B) = rho(M) + 1 lies between max(min_i y_i / x_i, x.y / x.x) and
    max_i y_i / x_i: the Collatz-Wielandt bounds, which hold for any
    nonnegative matrix and positive x, and the Rayleigh quotient, which is
    the tighter lower bound when M is reducible.

    The bounds are rigorous, not estimates. M + I has integer entries, so
    x = (M + I)^k 1 and y are integer vectors, and every entry of them, and
    every partial sum of a product, is at most r^(CW_STEPS + 1), r being
    M + I's largest row sum. On the scan's matrices r <= 15 (Q + I of K_8;
    of K_{5,5}, 11), and 15^9 < 2^53, so float64 holds x and y exactly.
    Only the ratios y_i / x_i, the dot products x.y and x.x, and the
    subtraction of 1 round, each by at most n units in the last place; both
    bounds are widened outward by CW_SLACK times 1 + the bound, which
    covers that many times over."""
    count, n = matrices.shape[:2]
    if n == 0:
        return np.zeros(count), np.zeros(count)
    x, y = _cw_iterates(matrices)
    # as B >= I, every entry of x is at least 1 and every ratio too, so both bounds are >= 0
    ratio = y / x
    upper = ratio.max(axis=1) - 1
    rayleigh = np.einsum("bi,bi->b", x, y) / np.einsum("bi,bi->b", x, x)
    lower = np.maximum(ratio.min(axis=1), rayleigh) - 1
    return lower - CW_SLACK * (1 + lower), upper + CW_SLACK * (1 + upper)


def _one(g: Graph | BipartiteGraph | np.ndarray) -> Sequence[Graph | BipartiteGraph] | np.ndarray:
    """g as a stack of one for ``matrix_stack``."""
    return g[None] if isinstance(g, np.ndarray) else [g]


def rho(g: Graph | BipartiteGraph | np.ndarray) -> SpectralEstimate:
    """Spectral radius of the adjacency matrix of a graph object or of a
    graph's (n, n) 0/1 adjacency matrix."""
    return radius_stack(matrix_stack(_one(g), ADJACENCY))[0]


def q_radius(g: Graph | BipartiteGraph | np.ndarray) -> SpectralEstimate:
    """Signless Laplacian spectral radius of a graph object or of a graph's
    (n, n) 0/1 adjacency matrix."""
    return radius_stack(matrix_stack(_one(g), SIGNLESS_LAPLACIAN))[0]


def eigen_oracle(g: Graph | BipartiteGraph, which: str = ADJACENCY) -> list[float]:
    """All eigenvalues of the chosen matrix, ascending (dense route, n <= 64)."""
    if (g.p + g.q if isinstance(g, BipartiteGraph) else g.n) > DENSE_CAP:
        raise ValueError(f"dense oracle capped at n <= {DENSE_CAP}")
    return np.linalg.eigvalsh(matrix_stack([g], which)[0]).tolist()
