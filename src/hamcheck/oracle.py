"""Exact Hamiltonian cycle/path decision with witness extraction.

Held-Karp subset DP over endpoint bitmasks, a search-first decision
``certify`` that asks the DP only what a checked search and two counted
obstructions leave open, and a plain backtracking solver that shares no
logic with either and serves as a cross-check.

One recurrence decides both questions: per subset S holding vertex 0,
the endpoints of the paths from 0 spanning S. G has a Hamiltonian path
iff G joined to an apex vertex has a Hamiltonian cycle, so a path is
decided as a cycle with the apex at 0 and G's vertices shifted up by
one, and the apex dropped from the witness. Only subsets holding 0 are
used: 2^(n-1) per graph for a cycle and 2^n for a path.

One implementation runs it: ``witness_rows``, the oracle's array entry.
It takes a (B, n) uint32 array of adjacency bitsets, the form a soundness
scan keeps each graph in, and pulls endpoints from each subset's
predecessors with numpy, one popcount layer at a time, in one gather per
piece of a layer over every vertex and every row at once. Its tables are
keyed by S >> 1 and stored subset-major, (2^(n-1), B) for a cycle and
(2^n, B) for a path, so each predecessor lookup copies one contiguous row
of B entries. Soundness scans and
``tightness_search`` hand it the rows of their scan slices;
``is_hamiltonian`` and ``is_traceable``, which ``oracle`` prints and
``certify`` falls back on, hand its DP a batch of one, after
``_refused`` has turned away what the preconditions exclude, so the
batch's one test, a cycle's minimum degree 2, does not run again. A
batch needs no connectivity pass: the DP answers a disconnected row no
by itself. Its walk back goes from
the lowest closing vertex through the lowest adjacent endpoint, and
every witness is checked: ``check_witnesses`` tests a batch at once, and
``_check_witness`` tests one order over a graph's Python-int rows, at
any n, for ``certify``'s search orders.

``certify`` answers ``analyze``'s yes/no questions; it asks about a path
only on graphs it found non-Hamiltonian, since a Hamiltonian cycle less
one edge is a Hamiltonian path. Proving a graph Hamiltonian takes the DP
its whole table, while a witness is quick to find, so on graphs that
meet the DP's preconditions (connected, and for a cycle n >= 3 and
minimum degree 2) cheaper deciders go first, in this order:
  * a bipartite side count: a cycle alternates sides, so they must be
    equal, and a path's sides differ by at most one;
  * a short rotation-extension search (Posa), SHORT_STEPS * n steps from
    the first start only;
  * Chvatal's toughness bound: G - S has at most |S| components if G has
    a Hamiltonian cycle, |S| + 1 if a path, tried on S = {v} and N(v);
  * the full search, from the SEARCH_STARTS lowest-degree vertices (of
    the larger side, for a path when the sides differ), SEARCH_STEPS * n
    steps each.
Both searches seed their RNG from the adjacency, so the short one is the
first steps of the full one and finds nothing the full one would not;
an order counts only once ``_check_witness`` passes it. The DP answers
the rest and refuses the graphs its preconditions exclude. On the
benchmark's seed-1 analyze corpus (210 graphs at n = 8-14) the 210 cycle
questions went 128 to the short search, 29 to the obstructions (19
sides, 10 toughness), 1 to the full search, 51 to the preconditions and
1 to the DP; the 81 path questions 47, 12, 1, 20 and 1. In the old
order, the full search before the toughness count, the 24 failed
searches (22 before a toughness refutation, 2 before the DP) took 34 of
``certify``'s 73 ms; now ``certify`` takes 0.026-0.038 s on that
corpus, against 0.065-0.078 s, and the DP 0.35 s to answer every
question alone (CPU seconds, best of 5, one core; the VM's speed drifts
by up to 2x). SHORT_STEPS = 2 was set on the seed-1 to 4 corpora: with
1 step per vertex the full search still answers 62-81 cycle questions
per corpus, with 2 it answers 1-3 and with 3 0-2, and more steps only
lengthen the short searches that fail.

MAX_DP_N keeps one call on a batch of one far within a budget of about
10 s on one core; the cost grows about 2x per vertex from n = 18.
Measured on one core of a 2-vCPU Xeon VM with Python 3.11 and numpy
2.4, for the cycle / path DP that ``is_hamiltonian`` / ``is_traceable``
run once ``_refused`` has passed a graph: mean ms per call on 20 G(n,
1/2), best of 20 passes (5 at n=14), n=8 0.15 / 0.17, n=10 0.20 / 0.24,
n=12 0.30 / 0.42, n=14 0.67 / 1.5; in seconds, the costliest of three
G(n, 1/2) and the complete graph, best of 3, n=16 0.002 / 0.005, n=18
0.012 / 0.023, and past the cap n=19 0.022 / 0.041, n=20 0.041 / 0.095.
The cap stays at 18 all the same: raising it changes what
``analyze`` and ``oracle`` print at those sizes.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph, bits, component_mask, connected_components, two_coloring

MAX_DP_N = 18
MAX_BACKTRACK_N = 12
# certify's rotation-extension search: start vertices tried, and steps
# (extensions and rotations) per start and per vertex
SEARCH_STARTS = 3
SEARCH_STEPS = 10
# steps per vertex of the short search, from the first start only, that
# certify runs before the obstructions
SHORT_STEPS = 2
# bounds on the batched DP's temporaries, in table entries: rows per
# endpoint table, and the gather of one layer piece across those rows
BATCH_TABLE_CELLS = 1 << 20
BATCH_GATHER_CELLS = 1 << 20

CYCLE = "cycle"
PATH = "path"


class HamWitness(NamedTuple):
    kind: str
    order: tuple[int, ...]


def check_witnesses(adj: np.ndarray, orders: np.ndarray, kind: str) -> None:
    """Raise AssertionError unless each row of ``orders`` is a Hamiltonian
    path of the graph in the same row of ``adj``, a (B, n) array of
    adjacency bitsets, and for kind CYCLE one whose ends are adjacent."""
    count, n = adj.shape
    if not count:
        return
    if orders.shape != (count, n) or not (np.sort(orders, axis=1) == np.arange(n)).all():
        raise AssertionError("witness is not a permutation")
    rows = np.arange(count)
    steps = (adj[rows[:, None], orders[:, :-1]] >> orders[:, 1:]) & 1
    if not steps.all():
        r, k = np.argwhere(steps == 0)[0]
        raise AssertionError(f"witness edge ({orders[r, k]},{orders[r, k + 1]}) missing")
    if kind == CYCLE and not ((adj[rows, orders[:, -1]] >> orders[:, 0]) & 1).all():
        raise AssertionError("witness cycle does not close")


def _check_witness(g: Graph, witness: HamWitness) -> None:
    """``check_witnesses`` for one order, over g's Python-int rows, so at
    any n."""
    order, adj = witness.order, g.adj
    if sorted(order) != list(range(g.n)):
        raise AssertionError("witness is not a permutation")
    for u, v in zip(order, order[1:]):
        if not adj[u] >> v & 1:
            raise AssertionError(f"witness edge ({u},{v}) missing")
    if witness.kind == CYCLE and not adj[order[-1]] >> order[0] & 1:
        raise AssertionError("witness cycle does not close")


def is_hamiltonian(g: Graph) -> Optional[HamWitness]:
    """A Hamiltonian cycle if one exists, else None (n <= MAX_DP_N)."""
    return _dp_witness(g, CYCLE)


def is_traceable(g: Graph) -> Optional[HamWitness]:
    """A Hamiltonian path if one exists, else None (n <= MAX_DP_N)."""
    return _dp_witness(g, PATH)


def _dp_witness(g: Graph, kind: str) -> Optional[HamWitness]:
    """``witness_rows`` on a batch of one: g's checked witness of the kind,
    or None. Graphs the DP's preconditions exclude never reach numpy."""
    if g.n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    if _refused(g, kind):
        return None
    found, orders = _eligible_rows(np.array(g.adj, dtype=np.uint32).reshape(1, g.n), kind)
    return HamWitness(kind, tuple(orders[0].tolist())) if found[0] else None


def _refused(g: Graph, kind: str) -> bool:
    """The DP's preconditions fail: g is disconnected, or for a cycle has
    fewer than 3 vertices or a vertex of degree below 2."""
    return (kind == CYCLE and (g.n < 3 or g.min_degree() < 2)
            or len(connected_components(g)) > 1)


def certify(g: Graph, kind: str,
            exact: Optional[Callable[[Graph], Optional[HamWitness]]] = None) -> bool:
    """Whether g (n <= MAX_DP_N) has a Hamiltonian cycle (kind CYCLE) or
    path (PATH). Where the DP's preconditions hold, a bipartite side count,
    a short rotation-extension search, a toughness count and the full
    search answer in that order if they can, and a search's order counts
    only once it passes the witness check; ``exact``, the DP's
    ``is_hamiltonian`` or ``is_traceable`` by the kind unless given,
    answers the rest, refusing at once the graphs its preconditions
    exclude."""
    if g.n > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    if exact is None:
        exact = is_hamiltonian if kind == CYCLE else is_traceable
    if not _refused(g, kind):
        # a Hamiltonian cycle alternates sides, and a path has its ends on
        # the larger side when the sides differ
        slack = 0 if kind == CYCLE else 1
        left = two_coloring(g)
        starts = range(g.n)
        if left is not None:
            larger = left if 2 * left.bit_count() > g.n else ~left & ((1 << g.n) - 1)
            surplus = 2 * larger.bit_count() - g.n
            if surplus > slack:
                return False
            if surplus:
                starts = bits(larger)
        starts = sorted(starts, key=lambda v: (g.adj[v].bit_count(), v))[:SEARCH_STARTS]
        # the short search is the full search's first steps, so it finds
        # only what the full search would, and a graph toughness refutes
        # no longer waits for the full search's budget to run out
        if _checked(g, kind, _search(g, kind, starts[:1], SHORT_STEPS)) is not None:
            return True
        if _tough_obstruction(g, slack):
            return False
        if _checked(g, kind, _search(g, kind, starts, SEARCH_STEPS)) is not None:
            return True
    return exact(g) is not None


def _search(g: Graph, kind: str, starts: Sequence[int],
            steps: int) -> Optional[tuple[int, ...]]:
    """A Hamiltonian cycle or path of g found by rotation-extension (Posa,
    Discrete Math. 14, 1976) from one of ``starts``, in ``steps`` * n steps
    from each, or None.

    The path grows from its start while its end has a neighbour off it;
    then it rotates: for a neighbour p of the end on the path, the part
    after p is reversed, so p's successor becomes the end. Rotations whose
    new end can grow the path, or close a spanning one, are preferred.
    Choices are random, from an RNG seeded with g's adjacency, so the
    answer depends on g alone."""
    n, adj = g.n, g.adj
    seed = 0
    for row in adj:
        seed = seed << n | row
    rng = random.Random(seed)
    for start in starts:
        path, on = [start], 1 << start
        for _ in range(steps * n):
            end = path[-1]
            free = adj[end] & ~on
            if free:
                # Warnsdorff's rule: the neighbour with the fewest ways on,
                # but not a dead end while other vertices are off the path
                onward = {u: (adj[u] & ~on).bit_count() for u in bits(free)}
                least = min(onward.values(), key=lambda count: (count == 0, count))
                u = rng.choice([u for u, count in onward.items() if count == least])
                path.append(u)
                on |= 1 << u
                continue
            spans = len(path) == n
            if spans and (kind == PATH or adj[end] >> path[0] & 1):
                return tuple(path)
            pivots = [path.index(p) for p in bits(adj[end] & on & ~(1 << path[-2]))]
            if not pivots:
                break
            good = [i for i in pivots if (adj[path[i + 1]] >> path[0] & 1 if spans
                                          else adj[path[i + 1]] & ~on)]
            i = rng.choice(good or pivots)
            path[i + 1:] = path[:i:-1]
    return None


def _tough_obstruction(g: Graph, slack: int) -> bool:
    """Some S = {v} or S = N(v) leaves more than |S| + slack components in
    G - S: no Hamiltonian cycle (slack 0) or path (slack 1), by Chvatal's
    toughness bound (Discrete Math. 5, 1973)."""
    full = (1 << g.n) - 1
    for v in range(g.n):
        for removed in (1 << v, g.adj[v]):
            bound = removed.bit_count() + slack
            alive = full & ~removed
            if alive.bit_count() <= bound:
                continue
            pieces = 0
            while alive and pieces <= bound:
                alive &= ~component_mask(g, (alive & -alive).bit_length() - 1, alive)
                pieces += 1
            if pieces > bound:
                return True
    return False


def _checked(g: Graph, kind: str, order: Optional[tuple[int, ...]]) -> Optional[HamWitness]:
    if order is None:
        return None
    witness = HamWitness(kind, order)
    _check_witness(g, witness)
    return witness


def witness_rows(adj: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The batched DP on a (B, n) uint32 array of adjacency bitsets, one
    graph of size n <= MAX_DP_N per row: per row, whether the graph has a
    Hamiltonian cycle (kind CYCLE) or path (PATH), and the witness orders
    of the rows that do, in row order, as one checked (found rows, n) array.
    """
    if adj.shape[1] > MAX_DP_N:
        raise ValueError(f"oracle capped at n <= {MAX_DP_N}")
    found = np.zeros(len(adj), dtype=bool)
    if not adj.shape[1]:
        # the empty graph has neither, and the DP needs a vertex 0
        return found, np.zeros((0, 0), dtype=np.int64)
    # the DP answers no on a disconnected row by itself; of _refused's
    # tests only the cycle's minimum degree 2 stays, which rules out K2
    eligible = np.ones(len(adj), dtype=bool)
    if kind == CYCLE:
        eligible = (np.bitwise_count(adj) >= 2).all(axis=1)
    found[eligible], orders = _eligible_rows(adj[eligible], kind)
    return found, orders


def _eligible_rows(adj: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``witness_rows`` on rows the DP may take, which it does not test
    again: n >= 1, and for a cycle minimum degree 2, so n >= 3."""
    count, n = adj.shape
    if kind == CYCLE:
        cycle_adj = adj
    else:
        # paths as cycles through an apex vertex 0, g's vertices shifted up by one
        apex = np.full((count, 1), (1 << (n + 1)) - 2, dtype=np.uint32)
        cycle_adj = np.concatenate([apex, adj << 1 | 1], axis=1)
    found = np.zeros(count, dtype=bool)
    orders = np.zeros(cycle_adj.shape, dtype=np.int64)
    # rows per chunk: each row's table has 2^(columns - 1) entries
    step = max(1, (2 * BATCH_TABLE_CELLS) >> cycle_adj.shape[1])
    for lo in range(0, count, step):
        chunk = cycle_adj[lo:lo + step]
        dp = _endpoint_tables(chunk)
        ends = dp[:, -1] & chunk[:, 0]
        hit = np.flatnonzero(ends)
        orders[lo + hit] = _walk_back(dp, chunk, hit, _lowest_bit(ends[hit]))
        found[lo + hit] = True
    orders = orders[found] if kind == CYCLE else orders[found, 1:] - 1
    check_witnesses(adj[found], orders, kind)
    return found, orders


def _lowest_bit(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each (nonzero) entry."""
    return np.bitwise_count((x & -x) - 1).astype(np.int64)


def _walk_back(dp: np.ndarray, adj: np.ndarray, rows: np.ndarray,
               last: np.ndarray) -> np.ndarray:
    """Per table row in ``rows``, the order of a Hamiltonian cycle from
    vertex 0 closing at ``last``: each step back takes the lowest endpoint
    adjacent to v."""
    n = adj.shape[1]
    order = np.empty((len(rows), n), dtype=np.int64)
    mask = np.full(len(rows), dp.shape[1] - 1, dtype=np.int64)
    v = last
    order[:, -1] = v
    for pos in range(n - 2, -1, -1):
        mask ^= 1 << (v - 1)
        v = _lowest_bit(dp[rows, mask] & adj[rows, v])
        order[:, pos] = v
    return order


def _endpoint_tables(adj: np.ndarray) -> np.ndarray:
    """dp[r, S >> 1], for each subset S that holds vertex 0: the endpoints
    v of the paths of graph r from vertex 0 that span S.

    The table is stored subset-major, one row of B entries per subset, and
    returned as its transposed view. Pull form: bit u of dp[S] is set iff
    dp[S - u] & adj[u] != 0, for each u in S other than 0. Subsets go by
    popcount, so every predecessor lies in the layer before, and each of
    its lookups copies one contiguous row. A piece of a layer is one
    gather over all n - 1 vertices at once, vertex-major, so the index
    arithmetic and the OR over the vertices run along whole rows: for a u
    outside S it reads the row of S + u, a subset of a later layer, still
    zero. A piece holds as many subsets as keep its gather, (n - 1) *
    piece * B entries, within BATCH_GATHER_CELLS, and at least one.
    """
    count, n = adj.shape
    dp = np.zeros((1 << (n - 1), count), dtype=np.uint32)
    dp[0] = 1
    layers, starts = _layers(n - 1)
    flips = 1 << np.arange(n - 1)[:, None]   # vertex u = 1..n-1, as a bit of S >> 1
    columns = adj.T[1:, None]
    shifts = np.arange(1, n, dtype=np.uint32)[:, None, None]
    piece = max(1, BATCH_GATHER_CELLS // (count * n))
    for k in range(1, n):
        for lo in range(starts[k], starts[k + 1], piece):
            masks = layers[lo:min(lo + piece, starts[k + 1])]
            pulled = np.take(dp, flips ^ masks, axis=0)
            pulled &= columns
            np.minimum(pulled, 1, out=pulled)
            pulled <<= shifts
            dp[masks] = np.bitwise_or.reduce(pulled, axis=0)
    return dp.T


@cache
def _layers(width: int) -> tuple[np.ndarray, np.ndarray]:
    """(subsets, starts): the values of ``width`` bits grouped by popcount,
    each group ascending, popcount k at subsets[starts[k]:starts[k + 1]]."""
    subsets = np.arange(1 << width)
    popcount = np.bitwise_count(subsets)
    order = np.argsort(popcount, kind="stable")
    return subsets[order], np.searchsorted(popcount[order], np.arange(width + 2))


def backtrack_oracle(g: Graph, kind: str) -> bool:
    """Plain DFS decision procedure, independent of the DP (n <= 12)."""
    if kind not in (CYCLE, PATH):
        raise ValueError(f"unknown witness kind {kind!r}")
    if g.n > MAX_BACKTRACK_N:
        raise ValueError(f"backtracking oracle capped at n <= {MAX_BACKTRACK_N}")
    if kind == CYCLE and g.n < 3:
        return False
    if kind == PATH and g.n == 1:
        return True
    full = (1 << g.n) - 1
    adj = g.adj

    def dfs(v: int, visited: int, start: int) -> bool:
        if visited == full:
            return kind == PATH or bool(adj[v] >> start & 1)
        rest = ~visited & full
        # dead vertex: an unvisited vertex with no way in or out
        probe = rest
        for u in bits(probe):
            if not adj[u] & (rest ^ (1 << u) | (1 << v)):
                return False
        for u in bits(adj[v] & rest):
            if dfs(u, visited | (1 << u), start):
                return True
        return False

    if kind == CYCLE:
        return dfs(0, 1, 0)
    return any(dfs(s, 1 << s, s) for s in range(g.n))
