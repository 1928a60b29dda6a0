"""Seeded graph6 corpora for the analyze workloads.

The generator is self-contained (it imports nothing from hamcheck), so a
change to the library cannot change the inputs it is measured on. Every
size in the range gets the same number of records of each kind; the seed
only draws edges and vertex labels. That keeps the cost of a corpus close
to the same from seed to seed while the graphs themselves differ.

Kinds, per size n and block:
  * G(n, p) for each p in GNP_PROBS;
  * one random connected bipartite graph with sides n//2 and n - n//2,
    relabeled so the bipartition is not the first half of the vertices;
  * one seeded relabeling of a registry graph (REGISTRY), rotating through
    the list, so that Exception verdicts and isomorphism tests fire.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

GNP_PROBS = (0.3, 0.5, 0.7, 0.9)
BIP_PROBS = (0.5, 0.7, 0.9)


class Record(NamedTuple):
    kind: str
    n: int
    adj: tuple[int, ...]    # bit j of adj[i] set iff ij is an edge
    line: str               # graph6 encoding of (n, adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


class Workload(NamedTuple):
    sizes: range
    blocks: int


# Each analyze workload is a range of sizes repeated over some blocks; the
# block count keeps every corpus at >= 100 records so p90 has ten samples
# above it.
WORKLOADS = {
    "analyze-oracle": Workload(range(8, 15), 5),      # 7 sizes x 6 kinds x 5 = 210
    "analyze-spectral": Workload(range(25, 65), 1),   # 40 sizes x 6 kinds = 240
}


# ----------------------------------------------------------- constructors

def _empty(n: int) -> list[int]:
    return [0] * n


def _add_edge(adj: list[int], u: int, v: int) -> None:
    adj[u] |= 1 << v
    adj[v] |= 1 << u


def _clique(adj: list[int], vertices) -> None:
    vertices = list(vertices)
    for a, u in enumerate(vertices):
        for v in vertices[a + 1:]:
            _add_edge(adj, u, v)


def _biclique(adj: list[int], side_a, side_b) -> None:
    for u in side_a:
        for v in side_b:
            _add_edge(adj, u, v)


def kn1_plus_edge(n: int) -> list[int]:
    """K_{n-1} with a pendant edge."""
    adj = _empty(n)
    _clique(adj, range(n - 1))
    _add_edge(adj, 0, n - 1)
    return adj


def kn1_plus_vertex(n: int) -> list[int]:
    """K_{n-1} with an isolated vertex."""
    adj = _empty(n)
    _clique(adj, range(n - 1))
    return adj


def knn1_plus_edges(n: int) -> list[int]:
    """K_{k,k-1} plus a pendant on side X (n = 2k), or K_{k,k-1} plus two
    pendants on one degree-(k-1) vertex (n = 2k+1)."""
    k = n // 2
    adj = _empty(n)
    if n % 2 == 0:
        xs, ys = range(k), range(k, 2 * k - 1)      # K_{k,k-1}
        _biclique(adj, xs, ys)
        _add_edge(adj, 0, n - 1)
    else:
        xs, ys = range(k - 1), range(k - 1, 2 * k - 1)   # K_{k-1,k}
        _biclique(adj, xs, ys)
        _add_edge(adj, k - 1, n - 2)
        _add_edge(adj, k - 1, n - 1)
    return adj


def kpn2_plus_4e(n: int) -> list[int]:
    """K_{p,k-2} plus two vertices joined to two common side-X vertices;
    sides (k, k) for n = 2k, (k+1, k) for n = 2k+1."""
    k = n // 2
    p = n - k
    adj = _empty(n)
    xs = range(p)
    ys = range(p, p + k - 2)
    _biclique(adj, xs, ys)
    for extra in (n - 2, n - 1):
        _add_edge(adj, 0, extra)
        _add_edge(adj, 1, extra)
    return adj


def clique_join_independent(n: int) -> list[int]:
    """K_k v (n-k)K1 with k = (n-1)//2: K3 v 5K1 at n=8, K4 v 5K1 at n=9."""
    k = (n - 1) // 2
    adj = _empty(n)
    _clique(adj, range(k))
    _biclique(adj, range(k), range(k, n))
    return adj


def vertex_join_two_cliques(n: int) -> list[int]:
    """K1 v (K_a + K_b), a member of the EC class."""
    a = (n - 1) // 2
    adj = _empty(n)
    _clique(adj, range(1, 1 + a))
    _clique(adj, range(1 + a, n))
    _biclique(adj, [0], range(1, n))
    return adj


def two_cliques(n: int) -> list[int]:
    """K_a + K_b, a member of the EP class."""
    adj = _empty(n)
    _clique(adj, range(n // 2))
    _clique(adj, range(n // 2, n))
    return adj


def complete_bipartite(n: int) -> list[int]:
    adj = _empty(n)
    _biclique(adj, range(n // 2), range(n // 2, n))
    return adj


REGISTRY: list[tuple[str, Callable[[int], list[int]]]] = [
    ("kn1-plus-e", kn1_plus_edge),
    ("kn1-plus-v", kn1_plus_vertex),
    ("knn1-plus-e", knn1_plus_edges),
    ("kpn2-plus-4e", kpn2_plus_4e),
    ("clique-join-independent", clique_join_independent),
    ("vertex-join-two-cliques", vertex_join_two_cliques),
    ("two-cliques", two_cliques),
    ("complete-bipartite", complete_bipartite),
]


# ---------------------------------------------------------------- random

def _relabel(adj: list[int], rng: random.Random) -> list[int]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out = _empty(n)
    for u in range(n):
        row = adj[u]
        while row:
            low = row & -row
            v = low.bit_length() - 1
            out[perm[u]] |= 1 << perm[v]
            row ^= low
    return out


def gnp(n: int, p: float, rng: random.Random) -> list[int]:
    adj = _empty(n)
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                _add_edge(adj, i, j)
    return adj


def connected_bipartite(n: int, p: float, rng: random.Random) -> list[int]:
    """A random spanning tree across sides n//2 and n - n//2, plus each
    other cross edge with probability p, then relabeled."""
    xs = list(range(n // 2))
    ys = list(range(n // 2, n))
    adj = _empty(n)
    _add_edge(adj, xs[0], ys[0])
    placed = {0: [xs[0]], 1: [ys[0]]}
    rest = [(0, x) for x in xs[1:]] + [(1, y) for y in ys[1:]]
    rng.shuffle(rest)
    for side, v in rest:
        other = placed[1 - side]
        _add_edge(adj, v, other[rng.randrange(len(other))])
        placed[side].append(v)
    for x in xs:
        for y in ys:
            if not adj[x] >> y & 1 and rng.random() < p:
                _add_edge(adj, x, y)
    return _relabel(adj, rng)


# ---------------------------------------------------------------- graph6

def graph6(n: int, adj) -> str:
    """Standard graph6: size prefix, then the upper triangle column by column."""
    if n < 63:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc = nacc = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (adj[i] >> j & 1)
            nacc += 1
            if nacc == 6:
                out.append(acc + 63)
                acc = nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return out.decode("ascii")


def generate(workload: str, seed: int) -> list[Record]:
    """The corpus of an analyze workload; the same seed gives the same corpus."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    records = []
    slot = 0
    for _ in range(spec.blocks):
        for n in spec.sizes:
            graphs = [(f"gnp-{p}", gnp(n, p, rng)) for p in GNP_PROBS]
            graphs.append(("bipartite",
                           connected_bipartite(n, BIP_PROBS[slot % len(BIP_PROBS)], rng)))
            name, build = REGISTRY[slot % len(REGISTRY)]
            graphs.append((name, _relabel(build(n), rng)))
            slot += 1
            for kind, adj in graphs:
                records.append(Record(kind, n, tuple(adj), graph6(n, adj)))
    return records
