"""Largest-eigenvalue computation for A(G) and Q(G) = D(G) + A(G).

Two independent routes: deterministic power iteration (the production
path) and a dense symmetric eigendecomposition used only as an oracle.

``matrix_stack`` is the one place that turns bitset rows into a matrix:
every route, the verify scan's eigvalsh screen included, gets A or Q from
it. Power iteration comes in two forms that run the same steps on those
matrices: ``rho`` and ``q_radius`` on one graph, and ``radius_stack`` on a
(B, n, n) stack of matrices of one kind. ``_SHIFT`` alone says which
shift each kind runs with. ``rho_stack`` and ``q_radius_stack`` are
``matrix_stack`` plus ``radius_stack`` for a list of graphs of one size;
the verify scan instead hands ``radius_stack`` the matrices its screen
built, kept for the graphs that pass it. The stacked form pays numpy's
per-call overhead once per step for the whole stack, so soundness scans
use it; for a single graph it is slower, so everything else keeps the
scalar form. Each matrix of a stack gets the same estimate, bit for bit,
whatever else is in the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .graphs import BipartiteGraph, Graph

DEFAULT_TOL = 1e-10
DEFAULT_CMP_TOL = 1e-8
MAX_ITERATIONS = 1_000_000
DENSE_CAP = 64

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless_laplacian"


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpectralEstimate:
    value: float
    residual: float
    iterations: int


class Relation(str, Enum):
    ABOVE = "above"
    BELOW = "below"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class ThresholdOutcome:
    relation: Relation
    margin: float


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite number > 0")


def _power_iteration(matrix: np.ndarray, tol: float, shift: float) -> SpectralEstimate:
    """Power iteration on matrix + shift*I; the shift is subtracted again.

    Start vector 1 + i*1e-6 keeps the run deterministic without being
    orthogonal to the Perron vector.
    """
    _check_tol(tol)
    n = matrix.shape[0]
    if n == 0:
        return SpectralEstimate(0.0, 0.0, 0)
    work = matrix + shift * np.eye(n)
    x = 1.0 + np.arange(n) * 1e-6
    x /= np.linalg.norm(x)
    for iteration in range(1, MAX_ITERATIONS + 1):
        y = work @ x
        lam = float(x @ y)
        residual = float(np.max(np.abs(y - lam * x)))
        value = lam - shift
        if residual <= tol * max(1.0, abs(value)):
            return SpectralEstimate(max(value, 0.0), residual, iteration)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return SpectralEstimate(0.0, 0.0, iteration)
        x = y / norm
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} in {MAX_ITERATIONS} steps"
    )


def _power_iteration_stack(
    matrices: np.ndarray, tol: float, shift: float
) -> list[SpectralEstimate]:
    """``_power_iteration`` on every matrix of a (B, n, n) stack.

    Each row keeps its own start vector, stopping test, zero-norm exit and
    iteration count; a row leaves the stack at the step it stops on.
    """
    _check_tol(tol)
    count, n = matrices.shape[:2]
    if count == 0 or n == 0:
        return [SpectralEstimate(0.0, 0.0, 0)] * count
    # per row: value, residual, iteration count, filled in when it stops
    value_of = np.zeros(count)
    residual_of = np.zeros(count)
    steps_of = np.zeros(count, dtype=np.int64)
    work = matrices + shift * np.eye(n)
    start = 1.0 + np.arange(n) * 1e-6
    x = np.tile(start / np.linalg.norm(start), (count, 1))
    live = np.arange(count)
    for iteration in range(1, MAX_ITERATIONS + 1):
        y = np.einsum("bij,bj->bi", work, x)
        lam = np.einsum("bi,bi->b", x, y)
        residual = np.abs(y - lam[:, None] * x).max(axis=1)
        value = lam - shift
        converged = residual <= tol * np.maximum(1.0, np.abs(value))
        norm = np.sqrt(np.einsum("bi,bi->b", y, y))
        stopped = converged | (norm == 0.0)
        if stopped.any():
            # a row that vanished without converging reports (0, 0)
            rows = live[stopped]
            value_of[rows] = np.where(converged, np.maximum(value, 0.0), 0.0)[stopped]
            residual_of[rows] = np.where(converged, residual, 0.0)[stopped]
            steps_of[rows] = iteration
            if stopped.all():
                return [SpectralEstimate(*row) for row in
                        zip(value_of.tolist(), residual_of.tolist(), steps_of.tolist())]
            going = ~stopped
            live, work, y, norm = live[going], work[going], y[going], norm[going]
        x = y / norm[:, None]
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} in {MAX_ITERATIONS} steps"
    )


def matrix_stack(graphs: Sequence[Graph | BipartiteGraph], which: str) -> np.ndarray:
    """A, or Q = A + D, of each same-size graph as a (B, n, n) float stack."""
    if which not in (ADJACENCY, SIGNLESS_LAPLACIAN):
        raise ValueError(f"unknown matrix kind {which!r}")
    graphs = [g.to_graph() if isinstance(g, BipartiteGraph) else g for g in graphs]
    n = graphs[0].n if graphs else 0
    width = -(-n // 8)   # bytes per row, so no n overflows a fixed-width integer
    rows = chain.from_iterable(g.adj for g in graphs)
    raw = b"".join(map(int.to_bytes, rows, repeat(width), repeat("little")))
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(graphs), n, width)
    matrices = np.unpackbits(packed, axis=2, count=n, bitorder="little").astype(float)
    if which == SIGNLESS_LAPLACIAN:
        # A has a zero diagonal, so writing the degrees there adds D
        diagonal = np.arange(n)
        matrices[:, diagonal, diagonal] = matrices.sum(axis=2)
    return matrices


# the shift each matrix kind's power iteration runs with: A + I, so that the
# +/-rho oscillation of bipartite spectra cannot stall convergence; Q is PSD,
# so it needs none
_SHIFT = {ADJACENCY: 1.0, SIGNLESS_LAPLACIAN: 0.0}


def radius_stack(
    matrices: np.ndarray, which: str, tol: float = DEFAULT_TOL
) -> list[SpectralEstimate]:
    """The spectral radius of each matrix of a (B, n, n) stack of ``which``
    matrices (ADJACENCY or SIGNLESS_LAPLACIAN), as ``matrix_stack`` builds
    them; ``rho`` or ``q_radius`` of each graph the stack came from."""
    if which not in _SHIFT:
        raise ValueError(f"unknown matrix kind {which!r}")
    return _power_iteration_stack(matrices, tol, _SHIFT[which])


def rho_stack(
    graphs: Sequence[Graph | BipartiteGraph], tol: float = DEFAULT_TOL
) -> list[SpectralEstimate]:
    """``rho`` of each graph; all graphs have the same number of vertices."""
    return radius_stack(matrix_stack(graphs, ADJACENCY), ADJACENCY, tol)


def q_radius_stack(
    graphs: Sequence[Graph | BipartiteGraph], tol: float = DEFAULT_TOL
) -> list[SpectralEstimate]:
    """``q_radius`` of each graph; all graphs have the same number of vertices."""
    return radius_stack(matrix_stack(graphs, SIGNLESS_LAPLACIAN), SIGNLESS_LAPLACIAN, tol)


def rho(g: Graph | BipartiteGraph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """Spectral radius of the adjacency matrix."""
    return _power_iteration(matrix_stack([g], ADJACENCY)[0], tol, _SHIFT[ADJACENCY])


def q_radius(g: Graph | BipartiteGraph, tol: float = DEFAULT_TOL) -> SpectralEstimate:
    """Signless Laplacian spectral radius."""
    return _power_iteration(matrix_stack([g], SIGNLESS_LAPLACIAN)[0], tol,
                            _SHIFT[SIGNLESS_LAPLACIAN])


def eigen_oracle(g: Graph | BipartiteGraph, which: str = ADJACENCY) -> list[float]:
    """All eigenvalues of the chosen matrix, ascending (dense route, n <= 64)."""
    matrix = matrix_stack([g], which)[0]
    if len(matrix) > DENSE_CAP:
        raise ValueError(f"dense oracle capped at n <= {DENSE_CAP}")
    return [float(v) for v in np.linalg.eigvalsh(matrix)]


def compare_threshold(
    est: SpectralEstimate | float, threshold: float, tol: float = DEFAULT_CMP_TOL
) -> ThresholdOutcome:
    _check_tol(tol)
    value = est.value if isinstance(est, SpectralEstimate) else float(est)
    margin = value - threshold
    if abs(margin) <= tol:
        return ThresholdOutcome(Relation.BOUNDARY, margin)
    return ThresholdOutcome(Relation.ABOVE if margin > 0 else Relation.BELOW, margin)


def q_upper_bound(g: Graph) -> float:
    """2m/(n-1) + n - 2, an upper bound for q(G) on any graph with n >= 2."""
    if g.n < 2:
        raise ValueError("q upper bound needs n >= 2")
    return 2 * g.edge_count() / (g.n - 1) + g.n - 2
