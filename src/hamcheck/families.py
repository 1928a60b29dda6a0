"""Constructors for the named graph families used by the condition checkers.

Each family gets a canonical labeled representative: side X occupies the
lowest indices and added/pendant vertices take the highest indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import (
    BipartiteGraph,
    Graph,
    check_sides,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    join,
    star,
)


class FamilyTag(str, Enum):
    COMPLETE = "complete"
    COMPLETE_BIPARTITE = "complete-bipartite"
    CYCLE = "cycle"
    STAR = "star"
    KN1_PLUS_EDGE = "kn1-plus-e"        # K_{n-1} with a pendant edge
    KN1_PLUS_VERTEX = "kn1-plus-v"      # K_{n-1} with an isolated vertex
    KNN1_PLUS_EDGE = "knn1-plus-e"      # K_{n,n-1} plus a pendant on side X
    KPN2_PLUS_4E = "kpn2-plus-4e"       # K_{p,n-2} plus two degree-2 vertices
    KNN1_PLUS_2E = "knn1-plus-2e"       # K_{n,n-1} plus two pendants on one x
    NC_MEMBER = "nc"
    NP_MEMBER = "np"
    JOIN_EXPR = "join-expr"


@dataclass(frozen=True)
class FamilyId:
    tag: FamilyTag
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.tag is FamilyTag.NC_MEMBER:
            return f"NC[{self.params[0]}] {NC_NAMES[self.params[0]]}"
        if self.tag is FamilyTag.NP_MEMBER:
            return f"NP[{self.params[0]}] {NP_NAMES[self.params[0]]}"
        inner = ",".join(str(x) for x in self.params)
        return f"{self.tag.value}({inner})"


def kn1_plus_edge(n: int) -> Graph:
    """K_{n-1} with a pendant edge; the pendant is vertex n-1."""
    if n < 3:
        raise ValueError("kn1-plus-e needs n >= 3")
    # K_{n-1} plus an isolated vertex checks n against the vertex cap
    adj = list(kn1_plus_vertex(n).adj)
    adj[0] |= 1 << (n - 1)
    adj[n - 1] = 1
    return Graph(n, tuple(adj))


def kn1_plus_vertex(n: int) -> Graph:
    if n < 2:
        raise ValueError("kn1-plus-v needs n >= 2")
    return disjoint_union(complete(n - 1), empty_graph(1))


def knn1_plus_edge(n: int) -> BipartiteGraph:
    """K_{n,n-1} with a pendant edge on a side-X vertex; sides (n, n)."""
    if n < 2:
        raise ValueError("knn1-plus-e needs n >= 2")
    check_sides(n, n)
    old = (1 << (n - 1)) - 1
    rows = [old] * n
    rows[0] |= 1 << (n - 1)
    return BipartiteGraph(n, n, tuple(rows))


def kpn2_plus_4e(n: int, p: int) -> BipartiteGraph:
    """K_{p,n-2} plus two vertices joined to two common side-X vertices.

    Sides (p, n). The defining constraint is p >= n-1 so that the two
    attachment vertices are the ones of degree n-2.
    """
    if n < 3:
        raise ValueError("kpn2-plus-4e needs n >= 3")
    if p < n - 1:
        raise ValueError(f"kpn2-plus-4e needs p >= n-1 (got p={p}, n={n})")
    check_sides(p, n)
    old = (1 << (n - 2)) - 1
    new = (1 << (n - 2)) | (1 << (n - 1))
    rows = [old | new, old | new] + [old] * (p - 2)
    return BipartiteGraph(p, n, tuple(rows))


def knn1_plus_2e(n: int) -> BipartiteGraph:
    """K_{n,n-1} plus two vertices joined to one common degree-(n-1) vertex.

    Stored with the larger side first: sides (n+1, n); side X holds the
    original n-1 vertices of the small side plus the two added ones.
    """
    if n < 2:
        raise ValueError("knn1-plus-2e needs n >= 2")
    check_sides(n + 1, n)
    full = (1 << n) - 1
    rows = [full] * (n - 1) + [1, 1]
    return BipartiteGraph(n + 1, n, tuple(rows))


def _k12() -> Graph:
    return star(3)


def _k13() -> Graph:
    return star(4)


# The two finite exception sets for the edge-count lemmas, in the order
# they are listed: NC are non-Hamiltonian, NP are nontraceable.
_NC_BUILDERS = [
    ("K4 v 5K1", lambda: join(complete(4), empty_graph(5))),
    ("K2 v (K3 + 2K1)", lambda: join(complete(2), disjoint_union(complete(3), empty_graph(2)))),
    ("K3 v 4K1", lambda: join(complete(3), empty_graph(4))),
    ("K1,2 v 4K1", lambda: join(_k12(), empty_graph(4))),
    ("K2 v (K1 + K1,3)", lambda: join(complete(2), disjoint_union(empty_graph(1), _k13()))),
    ("K2 v (K2 + 2K1)", lambda: join(complete(2), disjoint_union(complete(2), empty_graph(2)))),
    ("K1 v 2K2", lambda: join(complete(1), disjoint_union(complete(2), complete(2)))),
    ("K2,3", lambda: complete_bipartite(2, 3).to_graph()),
    ("K2 v 3K1", lambda: join(complete(2), empty_graph(3))),
]

_NP_BUILDERS = [
    ("K3 v 5K1", lambda: join(complete(3), empty_graph(5))),
    ("K1 v (K3 + 2K1)", lambda: join(complete(1), disjoint_union(complete(3), empty_graph(2)))),
    ("K2 v 4K1", lambda: join(complete(2), empty_graph(4))),
    ("K2,4", lambda: complete_bipartite(2, 4).to_graph()),
    ("K1 v (K1 + K1,3)", lambda: join(complete(1), disjoint_union(empty_graph(1), _k13()))),
    ("K1 v (K2 + 2K1)", lambda: join(complete(1), disjoint_union(complete(2), empty_graph(2)))),
    ("2K2", lambda: disjoint_union(complete(2), complete(2))),
    ("K1,3", _k13),
]

NC_NAMES = [name for name, _ in _NC_BUILDERS]
NP_NAMES = [name for name, _ in _NP_BUILDERS]
NC_GRAPHS: list[Graph] = [build() for _, build in _NC_BUILDERS]
NP_GRAPHS: list[Graph] = [build() for _, build in _NP_BUILDERS]


_BUILDERS = {
    FamilyTag.COMPLETE: complete,
    FamilyTag.COMPLETE_BIPARTITE: complete_bipartite,
    FamilyTag.CYCLE: cycle,
    FamilyTag.STAR: star,
    FamilyTag.KN1_PLUS_EDGE: kn1_plus_edge,
    FamilyTag.KN1_PLUS_VERTEX: kn1_plus_vertex,
    FamilyTag.KNN1_PLUS_EDGE: knn1_plus_edge,
    FamilyTag.KPN2_PLUS_4E: kpn2_plus_4e,
    FamilyTag.KNN1_PLUS_2E: knn1_plus_2e,
    FamilyTag.NC_MEMBER: NC_GRAPHS.__getitem__,
    FamilyTag.NP_MEMBER: NP_GRAPHS.__getitem__,
}


def make_family(fid: FamilyId) -> Graph | BipartiteGraph:
    build = _BUILDERS.get(fid.tag)
    if build is None:
        raise ValueError(f"no canonical representative for family tag {fid.tag.value}")
    return build(*fid.params)


def nc_member(index: int) -> FamilyId:
    return FamilyId(FamilyTag.NC_MEMBER, (index,))


def np_member(index: int) -> FamilyId:
    return FamilyId(FamilyTag.NP_MEMBER, (index,))
