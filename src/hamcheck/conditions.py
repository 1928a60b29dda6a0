"""One checker per sufficient condition, each returning a Verdict.

A checker re-validates its own preconditions (minimum degree, size,
balance) and answers NotApplicable rather than assuming callers
filtered. Exceptional-family recognizers only run once the numeric
hypothesis holds; below the threshold the verdict is Inconclusive even
for exceptional inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .families import (
    FamilyId,
    FamilyTag,
    NC_GRAPHS,
    NP_GRAPHS,
    make_family,
    nc_member,
    np_member,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    bits,
    complement,
    connected_components,
    induced_subgraph,
    is_connected,
    quasi_complement,
    transpose,
)
from .iso import is_isomorphic
from .spectral import (
    DEFAULT_CMP_TOL,
    DEFAULT_TOL,
    Relation,
    SpectralEstimate,
    compare_threshold,
    q_radius,
    rho,
)

HAMILTONIAN = "hamiltonian"
TRACEABLE = "traceable"


class Status(str, Enum):
    GUARANTEED = "guaranteed"
    EXCEPTION = "exception"
    BOUNDARY = "boundary"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not_applicable"


Certificate = tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class Verdict:
    status: Status
    prop: str
    certificate: Certificate = ()
    family: Optional[FamilyId] = None
    note: str = ""


# a spectral checker's ``estimate``: the radius already computed, or a
# function that computes it, called only once the preconditions hold
EstimateArg = Optional[Union[SpectralEstimate, Callable[[], SpectralEstimate]]]


def _estimate(given: EstimateArg, compute: Callable[[], SpectralEstimate]) -> SpectralEstimate:
    if given is None:
        return compute()
    return given() if callable(given) else given


class JoinWitness(NamedTuple):
    kind: str
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


def _na(prop: str, reason: str, *cert: tuple[str, float]) -> Verdict:
    return Verdict(Status.NOT_APPLICABLE, prop, tuple(cert), note=reason)


# ---------------------------------------------------------------- degree
#
# Each degree inequality is written once, over a stack of graphs: row i of
# ``degrees`` is graph i's degree table (for bipartite graphs side X first,
# then side Y) and, for Moon-Moser, ``adjacent[i]`` is its 0/1 biadjacency
# matrix. The checkers run it on a one-row stack; soundness scans run it on
# a whole slice of masks, so that only the graphs whose hypothesis holds are
# built and checked. The arithmetic is exact integer arithmetic.

def _first_k(blocked: np.ndarray) -> np.ndarray:
    """Per row, 1 + the index of the first True column, or 0 if none is."""
    return np.where(blocked.any(axis=1), blocked.argmax(axis=1) + 1, 0)


def chvatal_blocking(degrees: np.ndarray) -> np.ndarray:
    """The smallest k < n/2 with d_k <= k and d_{n-k} <= n-k-1, where
    d_1 <= ... <= d_n are a row's sorted degrees, or 0 where there is none
    (then the graph is Hamiltonian). Needs n >= 3."""
    d = np.sort(degrees, axis=1)
    n = d.shape[1]
    k = np.arange(1, (n + 1) // 2)
    return _first_k((d[:, k - 1] <= k) & (d[:, n - k - 1] <= n - k - 1))


def bipartite_degree_blocking(degrees: np.ndarray) -> np.ndarray:
    """For balanced bipartite graphs with side n: the smallest k <= n/2 with
    d_k <= k and d_n <= n-k, where d_1 <= ... <= d_2n are a row's sorted
    degrees, or 0 where there is none. Needs n >= 2."""
    d = np.sort(degrees, axis=1)
    n = d.shape[1] // 2
    k = np.arange(1, n // 2 + 1)
    return _first_k((d[:, k - 1] <= k) & (d[:, [n - 1]] <= n - k))


def moon_moser_blocking(
    degrees: np.ndarray, adjacent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For balanced bipartite graphs with side n: per row, the smallest
    degree sum d(x) + d(y) over the non-adjacent cross pairs (n + 1 if every
    pair is adjacent), and, if it is below n + 1, the first pair reaching it
    in x-major order as x*n + y, else -1. Needs n >= 1."""
    count, n = adjacent.shape[:2]
    above = 2 * n + 1  # more than any degree sum
    sums = degrees[:, :n, None] + degrees[:, None, n:]
    sums = np.where(adjacent > 0, above, sums).reshape(count, n * n)
    cell = sums.argmin(axis=1)
    worst = sums[np.arange(count), cell]
    worst = np.where(worst == above, n + 1, worst)
    return worst, np.where(worst < n + 1, cell, -1)


def chvatal_hamiltonian(g: Graph) -> Verdict:
    """d_k <= k and d_{n-k} <= n-k-1 for no integer k < n/2 forces a cycle."""
    n = g.n
    if n < 3:
        return _na(HAMILTONIAN, "needs n >= 3", ("n", n))
    d = sorted(g.degrees())
    k = int(chvatal_blocking(np.array([d]))[0])
    if k:
        return Verdict(
            Status.INCONCLUSIVE,
            HAMILTONIAN,
            (("k", k), ("d_k", d[k - 1]), ("d_n_minus_k", d[n - k - 1])),
        )
    return Verdict(Status.GUARANTEED, HAMILTONIAN, (("margin", 0.0),))


def bipartite_degree_hamiltonian(b: BipartiteGraph) -> Verdict:
    """Balanced bipartite version: no k <= n/2 with d_k <= k and d_n <= n-k."""
    if b.p != b.q:
        return _na(HAMILTONIAN, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
    n = b.p
    if n < 2:
        return _na(HAMILTONIAN, "needs side size n >= 2", ("n", n))
    d = sorted(b.degree_sequence())
    k = int(bipartite_degree_blocking(np.array([d]))[0])
    if k:
        return Verdict(
            Status.INCONCLUSIVE,
            HAMILTONIAN,
            (("k", k), ("d_k", d[k - 1]), ("d_n", d[n - 1])),
        )
    return Verdict(Status.GUARANTEED, HAMILTONIAN, (("margin", 0.0),))


def moon_moser_hamiltonian(b: BipartiteGraph) -> Verdict:
    """Nonadjacent cross pairs with degree sum >= n+1 force a cycle."""
    if b.p != b.q:
        return _na(HAMILTONIAN, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
    n = b.p
    if n < 2:
        return _na(HAMILTONIAN, "needs side size n >= 2", ("n", n))
    adjacent = np.array([[[row >> y & 1 for y in range(n)] for row in b.rows]])
    worst, cell = moon_moser_blocking(np.array([b.degrees_x() + b.degrees_y()]), adjacent)
    worst, cell = int(worst[0]), int(cell[0])
    if cell >= 0:
        return Verdict(
            Status.INCONCLUSIVE,
            HAMILTONIAN,
            (("x", cell // n), ("y", cell % n), ("degree_sum", worst), ("required", n + 1)),
        )
    return Verdict(Status.GUARANTEED, HAMILTONIAN, (("margin", float(worst - (n + 1))),))


# ------------------------------------------------------------ edge bounds

EDGE_BIPARTITE_TARGETS = ("hamiltonian_min_deg1", "hamiltonian_min_deg2", "traceable")


def edge_bound_bipartite(b: BipartiteGraph, target: str) -> Verdict:
    if target == "hamiltonian_min_deg1":
        prop, min_n, min_delta = HAMILTONIAN, 2, 1
        bound = lambda n: n * n - n + 1
        exception = lambda n: FamilyId(FamilyTag.KNN1_PLUS_EDGE, (n,))
    elif target == "hamiltonian_min_deg2":
        prop, min_n, min_delta = HAMILTONIAN, 4, 2
        bound = lambda n: n * n - 2 * n + 4
        exception = lambda n: FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n))
    elif target == "traceable":
        prop, min_n, min_delta = TRACEABLE, 3, 1
        bound = lambda n: n * n - 2 * n + 3
        exception = None
    else:
        raise ValueError(f"unknown target {target!r}")
    if b.p != b.q:
        return _na(prop, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
    n = b.p
    if n < min_n:
        return _na(prop, f"needs side size n >= {min_n}", ("n", n))
    delta = b.min_degree()
    if delta < min_delta:
        return _na(prop, f"needs min degree >= {min_delta}", ("min_degree", delta))
    m = b.edge_count()
    cert = (("m", m), ("bound", bound(n)), ("margin", m - bound(n)))
    if m < bound(n):
        return Verdict(Status.INCONCLUSIVE, prop, cert)
    if exception is not None:
        fid = exception(n)
        if recognize_family(b, fid):
            return Verdict(Status.EXCEPTION, prop, cert, family=fid)
    return Verdict(Status.GUARANTEED, prop, cert)


EDGE_GENERAL_TARGETS = (HAMILTONIAN, TRACEABLE)


def edge_bound_general(g: Graph, target: str) -> Verdict:
    """Strict edge bound with the NC (cycle) / NP (path) exception lists."""
    n = g.n
    if target == HAMILTONIAN:
        min_n, min_delta = 3, 2
        threshold2m = n * n - 4 * n + 6  # hypothesis: 2m > this
    elif target == TRACEABLE:
        min_n, min_delta = 2, 1
        threshold2m = n * n - 4 * n + 3
    else:
        raise ValueError(f"unknown target {target!r}")
    if n < min_n:
        return _na(target, f"needs n >= {min_n}", ("n", n))
    delta = g.min_degree()
    if delta < min_delta:
        return _na(target, f"needs min degree >= {min_delta}", ("min_degree", delta))
    m = g.edge_count()
    cert = (("m", m), ("bound", threshold2m / 2), ("margin", m - threshold2m / 2))
    if 2 * m <= threshold2m:
        return Verdict(Status.INCONCLUSIVE, target, cert)
    if target == HAMILTONIAN:
        index = _match_member(g, NC_GRAPHS)
        fid = nc_member(index) if index is not None else None
    else:
        index = _match_member(g, NP_GRAPHS)
        fid = np_member(index) if index is not None else None
    if fid is not None:
        return Verdict(Status.EXCEPTION, target, cert, family=fid)
    return Verdict(Status.GUARANTEED, target, cert)


# -------------------------------------------------------------- spectral

SPECTRAL_BIPARTITE_TARGETS = (
    "hamiltonian_balanced",
    "traceable_balanced",
    "traceable_unbalanced",
)


def spectral_bipartite(
    b: BipartiteGraph,
    target: str,
    tol: float = DEFAULT_TOL,
    cmp_tol: float = DEFAULT_CMP_TOL,
    estimate: EstimateArg = None,
) -> Verdict:
    """Adjacency spectral radius against the sqrt edge-bound thresholds.

    ``estimate``, when given, is rho(b) or a function returning it; the
    checkers below take theirs the same way, for the matrix they would
    build.
    """
    if target == "hamiltonian_balanced":
        prop = HAMILTONIAN
        if b.p != b.q:
            return _na(prop, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
        n = b.p
        if n < 4:
            return _na(prop, "needs side size n >= 4", ("n", n))
        if b.min_degree() < 2:
            return _na(prop, "needs min degree >= 2", ("min_degree", b.min_degree()))
        threshold = math.sqrt(n * n - 2 * n + 4)
        exceptions = [FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n))]
    elif target == "traceable_balanced":
        prop = TRACEABLE
        if b.p != b.q:
            return _na(prop, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
        n = b.p
        if n < 3:
            return _na(prop, "needs side size n >= 3", ("n", n))
        if b.min_degree() < 1:
            return _na(prop, "needs min degree >= 1", ("min_degree", 0))
        threshold = math.sqrt(n * n - 2 * n + 3)
        exceptions = []
    elif target == "traceable_unbalanced":
        prop = TRACEABLE
        if b.q == b.p + 1:  # normalize: side X is the larger one
            b = transpose(b)
        if b.p != b.q + 1:
            return _na(prop, "needs sides (n+1, n)", ("p", b.p), ("q", b.q))
        n = b.q
        if n < 3:
            return _na(prop, "needs smaller side n >= 3", ("n", n))
        dx, dy = min(b.degrees_x()), min(b.degrees_y())
        if dx < 1 or dy < 2:
            return _na(prop, "needs delta_X >= 1 and delta_Y >= 2",
                       ("delta_X", dx), ("delta_Y", dy))
        threshold = math.sqrt(n * n - n + 2)
        exceptions = [
            FamilyId(FamilyTag.KPN2_PLUS_4E, (n, n + 1)),
            FamilyId(FamilyTag.KNN1_PLUS_2E, (n,)),
        ]
    else:
        raise ValueError(f"unknown target {target!r}")
    est = _estimate(estimate, lambda: rho(b, tol))
    outcome = compare_threshold(est, threshold, cmp_tol)
    cert = (("rho", est.value), ("threshold", threshold), ("margin", outcome.margin))
    if outcome.relation is Relation.BELOW:
        return Verdict(Status.INCONCLUSIVE, prop, cert)
    # threshold is non-strict, so a matching exception stands even at the line
    for fid in exceptions:
        if recognize_family(b, fid):
            return Verdict(Status.EXCEPTION, prop, cert, family=fid)
    if outcome.relation is Relation.BOUNDARY:
        return Verdict(Status.BOUNDARY, prop, cert)
    return Verdict(Status.GUARANTEED, prop, cert)


def quasi_complement_hamiltonian(
    b: BipartiteGraph,
    tol: float = DEFAULT_TOL,
    cmp_tol: float = DEFAULT_CMP_TOL,
    estimate: EstimateArg = None,
) -> Verdict:
    """Small quasi-complement spectral radius forces a Hamiltonian cycle."""
    if b.p != b.q:
        return _na(HAMILTONIAN, "needs a balanced bipartition", ("p", b.p), ("q", b.q))
    n = b.p
    if n < 2:
        return _na(HAMILTONIAN, "needs side size n >= 2", ("n", n))
    est = _estimate(estimate, lambda: rho(quasi_complement(b), tol))
    threshold = math.sqrt((n - 2) / 2)
    outcome = compare_threshold(est, threshold, cmp_tol)
    cert = (("rho_star", est.value), ("threshold", threshold), ("margin", outcome.margin))
    if outcome.relation is Relation.BELOW:
        return Verdict(Status.GUARANTEED, HAMILTONIAN, cert)
    if outcome.relation is Relation.BOUNDARY:
        return Verdict(Status.BOUNDARY, HAMILTONIAN, cert)
    return Verdict(Status.INCONCLUSIVE, HAMILTONIAN, cert)


Q_GENERAL_TARGETS = (
    "hamiltonian_tight",
    "traceable_tight",
    "yu_fan_hamiltonian",
    "yu_fan_traceable",
    "yu_connected_traceable",
)


def _q_target_profile(g: Graph, target: str):
    """(prop, threshold, strict, exception family ids, precondition failure)."""
    n = g.n
    if target == "hamiltonian_tight":
        if n < 4:
            return None, _na(HAMILTONIAN, "needs n >= 4", ("n", n))
        if g.min_degree() < 2:
            return None, _na(HAMILTONIAN, "needs min degree >= 2",
                             ("min_degree", g.min_degree()))
        exceptions = []
        if n == 7:
            exceptions.append(nc_member(2))   # K3 v 4K1
        if n == 6:
            # the published statement omits this graph, but its own table
            # has q(K2 v (K2 + 2K1)) = 7.7588 >= 7.6 = 2n-5+3/(n-1), and it
            # is non-Hamiltonian; without this exception the condition is
            # unsound at n = 6 (exhaustively verified)
            exceptions.append(nc_member(5))   # K2 v (K2 + 2K1)
        if n == 5:
            exceptions.append(nc_member(8))   # K2 v 3K1
        return (HAMILTONIAN, 2 * n - 5 + 3 / (n - 1), False, exceptions), None
    if target == "traceable_tight":
        if n < 4:
            return None, _na(TRACEABLE, "needs n >= 4", ("n", n))
        if g.min_degree() < 1:
            return None, _na(TRACEABLE, "needs min degree >= 1", ("min_degree", 0))
        exceptions = []
        if n == 6:
            exceptions.append(np_member(2))   # K2 v 4K1
        if n == 5:
            exceptions.append(np_member(5))   # K1 v (K2 + 2K1)
            exceptions.append(FamilyId(FamilyTag.STAR, (5,)))  # K_{1,4}
        if n == 4:
            exceptions.append(np_member(7))   # K1,3
        return (TRACEABLE, float(2 * n - 5), False, exceptions), None
    if target == "yu_fan_hamiltonian":
        if n < 3:
            return None, _na(HAMILTONIAN, "needs n >= 3", ("n", n))
        exceptions = [FamilyId(FamilyTag.KN1_PLUS_EDGE, (n,))]
        if n == 5:
            exceptions.append(nc_member(8))   # K2 v 3K1
        return (HAMILTONIAN, float(2 * n - 4), True, exceptions), None
    if target == "yu_fan_traceable":
        if n < 3:
            return None, _na(TRACEABLE, "needs n >= 3", ("n", n))
        exceptions = [FamilyId(FamilyTag.KN1_PLUS_VERTEX, (n,))]
        if n == 4:
            exceptions.append(FamilyId(FamilyTag.STAR, (4,)))  # K1,3
        return (TRACEABLE, float(2 * n - 4), False, exceptions), None
    if target == "yu_connected_traceable":
        if n < 4:
            return None, _na(TRACEABLE, "needs n >= 4", ("n", n))
        if not is_connected(g):
            return None, _na(TRACEABLE, "needs a connected graph", ("components", 2))
        # the statement is usually quoted without exceptions, but three
        # connected nontraceable graphs meet the bound: K_{1,3} at n=4
        # (q = 4 = threshold), K2 v 4K1 at n=6 (q = 7.4641 >= 7.2) and
        # K3 v 5K1 at n=8 (q = 10.8990 >= 76/7); verified exhaustively
        # for n <= 7 and by edge-count analysis at n = 8
        exceptions = []
        if n == 4:
            exceptions.append(FamilyId(FamilyTag.STAR, (4,)))  # K1,3
        if n == 6:
            exceptions.append(np_member(2))   # K2 v 4K1
        if n == 8:
            exceptions.append(np_member(0))   # K3 v 5K1
        return (TRACEABLE, (2 * (n - 2) ** 2 + 4) / (n - 1), False, exceptions), None
    raise ValueError(f"unknown target {target!r}")


def q_spectral_general(
    g: Graph,
    target: str,
    tol: float = DEFAULT_TOL,
    cmp_tol: float = DEFAULT_CMP_TOL,
    estimate: EstimateArg = None,
) -> Verdict:
    """Signless Laplacian spectral radius against the 2n-ish thresholds.

    Strict (>) thresholds cannot be certified at the line, so those report
    Boundary there; non-strict (>=) ones still honor exception matches.
    """
    profile, failure = _q_target_profile(g, target)
    if profile is None:
        return failure
    prop, threshold, strict, exceptions = profile
    est = _estimate(estimate, lambda: q_radius(g, tol))
    outcome = compare_threshold(est, threshold, cmp_tol)
    cert = (("q", est.value), ("threshold", threshold), ("margin", outcome.margin))
    if outcome.relation is Relation.BELOW:
        return Verdict(Status.INCONCLUSIVE, prop, cert)
    if outcome.relation is Relation.BOUNDARY and strict:
        return Verdict(Status.BOUNDARY, prop, cert)
    for fid in exceptions:
        if recognize_family(g, fid):
            return Verdict(Status.EXCEPTION, prop, cert, family=fid)
    if outcome.relation is Relation.BOUNDARY:
        return Verdict(Status.BOUNDARY, prop, cert)
    return Verdict(Status.GUARANTEED, prop, cert)


ZHOU_TARGETS = (HAMILTONIAN, TRACEABLE)


def zhou_complement(
    g: Graph,
    target: str,
    tol: float = DEFAULT_TOL,
    cmp_tol: float = DEFAULT_CMP_TOL,
    estimate: EstimateArg = None,
) -> Verdict:
    """Zhou's complement condition with the structured EC/EP exceptions."""
    n = g.n
    if target == HAMILTONIAN:
        if n < 3:
            return _na(HAMILTONIAN, "needs n >= 3", ("n", n))
        threshold = float(n - 1)
        family = "EC"
    elif target == TRACEABLE:
        if n < 1:
            return _na(TRACEABLE, "needs n >= 1", ("n", n))
        threshold = float(n)
        family = "EP"
    else:
        raise ValueError(f"unknown target {target!r}")
    est = _estimate(estimate, lambda: q_radius(complement(g), tol))
    outcome = compare_threshold(est, threshold, cmp_tol)
    cert = (("q_complement", est.value), ("threshold", threshold), ("margin", outcome.margin))
    if outcome.relation is Relation.ABOVE:
        return Verdict(Status.INCONCLUSIVE, target, cert)
    witness = ec_ep_membership(g, family)
    if witness is not None:
        return Verdict(
            Status.EXCEPTION,
            target,
            cert,
            family=FamilyId(FamilyTag.JOIN_EXPR),
            note=f"{witness.kind}: sides {witness.side_a} | {witness.side_b}",
        )
    if outcome.relation is Relation.BOUNDARY:
        return Verdict(Status.BOUNDARY, target, cert)
    return Verdict(Status.GUARANTEED, target, cert)


# ------------------------------------------------------------ recognizers

def _is_complete_mask(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask != mask ^ (1 << v):
            return False
    return True


def _regular_join_witness(g: Graph, target_deg: int, r_max: int, kind: str):
    """g = H v F with H regular of degree target_deg - r on n - r vertices.

    Every H-vertex then has full degree target_deg in g, so candidate B
    sides are exactly unions of complement components covering all
    vertices of other degrees.
    """
    degrees = g.degrees()
    odd_mask = 0
    for v in range(g.n):
        if degrees[v] != target_deg:
            odd_mask |= 1 << v
    comps = connected_components(complement(g))
    b_mask = 0
    for comp in comps:
        if comp & odd_mask:
            b_mask |= comp
    if b_mask == 0:
        if len(comps) < 2:
            return None
        comp = min(comps, key=lambda c: c.bit_count())
        b_mask = comp
    if not 1 <= b_mask.bit_count() <= r_max:
        return None
    a_mask = ((1 << g.n) - 1) ^ b_mask
    if a_mask == 0:
        return None
    return JoinWitness(kind, tuple(bits(a_mask)), tuple(bits(b_mask)))


def ec_ep_membership(g: Graph, family: str) -> Optional[JoinWitness]:
    """Structured membership in the EC (Hamiltonian) / EP (traceable) classes."""
    n = g.n
    degrees = g.degrees()
    if family == "EC":
        # (a) trivial graph joined with two complete components
        for u in range(n):
            if degrees[u] == n - 1 and n >= 3:
                rest = [v for v in range(n) if v != u]
                sub = induced_subgraph(g, rest)
                comps = connected_components(sub)
                if len(comps) == 2 and all(_is_complete_mask(sub, c) for c in comps):
                    sides = tuple(tuple(rest[i] for i in bits(c)) for c in comps)
                    return JoinWitness("trivial-join-two-cliques", (u,), sides[0] + sides[1])
        # (b) regular of degree (n-1)/2 - r joined with r vertices
        if n >= 3 and (n - 1) % 2 == 0:
            return _regular_join_witness(g, (n - 1) // 2, (n - 1) // 2, "regular-join")
        return None
    if family == "EP":
        if n % 2 == 0 and all(d == n // 2 - 1 for d in degrees):
            return JoinWitness("regular", tuple(range(n)), ())
        comps = connected_components(g)
        if len(comps) == 2 and all(_is_complete_mask(g, c) for c in comps):
            return JoinWitness(
                "two-complete-components", tuple(bits(comps[0])), tuple(bits(comps[1]))
            )
        if n % 2 == 0 and n >= 4:
            return _regular_join_witness(g, n // 2 - 1, n // 2 - 1, "regular-join")
        return None
    raise ValueError(f"unknown exception class {family!r}")


def _match_member(g: Graph, members: list[Graph]) -> Optional[int]:
    seq = g.degree_sequence()
    for index, member in enumerate(members):
        if member.n == g.n and member.degree_sequence() == seq and is_isomorphic(g, member):
            return index
    return None


def nc_np_membership(g: Graph) -> Optional[FamilyId]:
    """The NC/NP member isomorphic to g, if any (degree filter + backtracking)."""
    index = _match_member(g, NC_GRAPHS)
    if index is not None:
        return nc_member(index)
    index = _match_member(g, NP_GRAPHS)
    if index is not None:
        return np_member(index)
    return None


def recognize_family(g: Graph | BipartiteGraph, fid: FamilyId) -> bool:
    """True iff g is isomorphic (as a graph) to make_family(fid)."""
    try:
        target = make_family(fid)
    except ValueError:
        return False
    if isinstance(g, BipartiteGraph):
        g = g.to_graph()
    if isinstance(target, BipartiteGraph):
        target = target.to_graph()
    if g.n != target.n or g.degree_sequence() != target.degree_sequence():
        return False
    return is_isomorphic(g, target)
