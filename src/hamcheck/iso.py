"""Isomorphism testing for small graphs: degree refinement + backtracking."""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, bits


def _signatures(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    deg = g.degrees()
    return [(deg[v], tuple(sorted(deg[w] for w in bits(g.adj[v])))) for v in range(g.n)]


@lru_cache(maxsize=256)
def _target_signatures(h: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``_signatures`` of the graph tested against. Callers test many graphs
    against the same few targets (the exception graphs of the theorem
    table), so each target's are taken once."""
    return tuple(_signatures(h))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    sig_g = _signatures(g)
    sig_h = _target_signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return False
    candidates = [
        [w for w in range(h.n) if sig_h[w] == sig_g[v]] for v in range(g.n)
    ]
    # most-constrained vertex first
    order = sorted(range(g.n), key=lambda v: len(candidates[v]))
    mapping = [-1] * g.n
    used = [False] * h.n

    def extend(depth: int) -> bool:
        if depth == g.n:
            return True
        v = order[depth]
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in order[:depth]:
                if g.has_edge(u, v) != h.has_edge(mapping[u], w):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(depth + 1):
                    return True
                used[w] = False
        return False

    return extend(0)
