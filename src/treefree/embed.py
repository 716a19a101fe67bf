"""Induced-subgraph containment, embedding enumeration, and isomorphism.

One search core serves all three.  It places pattern vertices in a
connected order (max-degree first) and forward-checks candidate bitmasks:
adjacency and non-adjacency against every placed image, plus a distance
filter (an induced image can only shrink distances, so the image of q lies
within pattern-distance of the image of p).  A host vertex's distance balls
come from ``core.balls`` only when the search first places it.
Candidates are scanned in ascending host id, which makes every returned
witness deterministic.  Isomorphism is an induced embedding between graphs
of equal order and size, started from the color-refinement classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import Graph, balls, bfs_levels
from .errors import CapacityError

PATTERN_CAP = 16
ISO_CAP = 64


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern-vertex i -> host-vertex mapping[i], induced."""

    mapping: tuple[int, ...]

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.mapping))

    def image(self) -> frozenset[int]:
        return frozenset(self.mapping)


def _search_order(pattern: Graph) -> list[int]:
    """Connected placement order starting from a maximum-degree vertex."""
    n = pattern.n
    order: list[int] = []
    placed = 0
    while len(order) < n:
        best_key = None
        best_v = -1
        for v in range(n):
            if placed >> v & 1:
                continue
            key = ((pattern.row(v) & placed).bit_count(), pattern.degree(v), -v)
            if best_key is None or key > best_key:
                best_key, best_v = key, v
        order.append(best_v)
        placed |= 1 << best_v
    return order


def _all_pairs_dist(g: Graph) -> list[list[int]]:
    return [bfs_levels(g, v) for v in range(g.n)]


def _search(
    pattern: Graph, host: Graph, limit: int | None, initial: Sequence[int] | None = None
) -> list[Embedding]:
    """Induced embeddings in search order, stopping after ``limit``.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    """
    k, n = pattern.n, host.n
    if k == 0:
        return [Embedding(())]
    if k > n:
        return []
    order = _search_order(pattern)
    pdist = _all_pairs_dist(pattern)
    maxr = max(max(row) for row in pdist)
    # steps[idx]: the forward checks made once order[idx] is placed.  A
    # pattern distance of -1 (another component) indexes the last ball row,
    # which is the whole host: no distance bound.
    steps = [[(r, pattern.has_edge(q, r), pdist[q][r]) for r in order[idx + 1:]]
             for idx, q in enumerate(order)]
    hrow = [host.row(x) for x in range(n)]
    full = (1 << n) - 1
    base = [0] * k
    for q in range(k):
        dq = pattern.degree(q)
        m = 0
        for x in range(n):
            if hrow[x].bit_count() >= dq:
                m |= 1 << x
        base[q] = m if initial is None else m & initial[q]
    # host vertex h -> [ball_0, ..., ball_maxr, full], ball_r = within r of h
    ball_rows: dict[int, list[int]] = {}
    mapping = [-1] * k
    found: list[Embedding] = []

    def place(idx: int, cand: list[int]) -> bool:
        q = order[idx]
        m = cand[q]
        while m:
            low = m & -m
            m ^= low
            h = low.bit_length() - 1
            if idx + 1 == k:
                mapping[q] = h
                found.append(Embedding(tuple(mapping)))
                mapping[q] = -1
                if limit is not None and len(found) >= limit:
                    return True
                continue
            rows = ball_rows.get(h)
            if rows is None:
                rows = ball_rows[h] = balls(host, 1 << h, maxr) + [full]
            adj = hrow[h]
            nonadj = full & ~adj & ~low
            nxt = cand[:]
            ok = True
            for r, is_adj, d in steps[idx]:
                c = nxt[r] & adj if is_adj else nxt[r] & nonadj & rows[d]
                if c == 0:
                    ok = False
                    break
                nxt[r] = c
            if ok:
                mapping[q] = h
                if place(idx + 1, nxt):
                    return True
                mapping[q] = -1
        return False

    place(0, base)
    return found


def find_induced(pattern: Graph, host: Graph) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None."""
    out = find_all_induced(pattern, host, limit=1)
    return out[0] if out else None


def find_all_induced(pattern: Graph, host: Graph, limit: int | None = None) -> list[Embedding]:
    """Every induced embedding (up to ``limit``), in deterministic order."""
    if pattern.n > PATTERN_CAP:
        raise CapacityError(f"pattern has {pattern.n} > {PATTERN_CAP} vertices")
    return _search(pattern, host, limit=limit)


def is_free(host: Graph, pattern: Graph) -> bool:
    """True iff ``host`` contains no induced copy of ``pattern``."""
    return find_induced(pattern, host) is None


def verify_embedding(
    pattern: Graph, host: Graph, mapping: Embedding | Mapping[int, int] | Sequence[int]
) -> bool:
    """Check injectivity plus the induced condition, edge for edge."""
    if isinstance(mapping, Embedding):
        img = list(mapping.mapping)
    elif isinstance(mapping, Mapping):
        if sorted(mapping.keys()) != list(range(pattern.n)):
            return False
        img = [mapping[i] for i in range(pattern.n)]
    else:
        img = list(mapping)
    if len(img) != pattern.n or len(set(img)) != len(img):
        return False
    if any(not 0 <= h < host.n for h in img):
        return False
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            if pattern.has_edge(a, b) != host.has_edge(img[a], img[b]):
                return False
    return True


def _joint_wl_colors(g: Graph, h: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Neighbor-color refinement over both graphs against one shared table.

    Ranks are assigned from the sorted signature set of the union, so equal
    colors mean equal refinement signatures across the two graphs.
    """
    cg = [g.degree(v) for v in range(g.n)]
    ch = [h.degree(v) for v in range(h.n)]
    for _ in range(max(g.n, h.n)):
        sig_g = [(cg[v], tuple(sorted(cg[u] for u in g.neighbors(v)))) for v in range(g.n)]
        sig_h = [(ch[v], tuple(sorted(ch[u] for u in h.neighbors(v)))) for v in range(h.n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig_g + sig_h)))}
        new_g = [rank[s] for s in sig_g]
        new_h = [rank[s] for s in sig_h]
        if new_g == cg and new_h == ch:
            break
        cg, ch = new_g, new_h
    return tuple(cg), tuple(ch)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism: an induced embedding of g onto h that keeps refinement colors."""
    if g.n > ISO_CAP or h.n > ISO_CAP:
        raise CapacityError(f"isomorphism cap is {ISO_CAP} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gc, hc = _joint_wl_colors(g, h)
    if sorted(gc) != sorted(hc):
        return False
    classes: dict[int, int] = {}
    for x, c in enumerate(hc):
        classes[c] = classes.get(c, 0) | 1 << x
    return bool(_search(g, h, limit=1, initial=[classes[c] for c in gc]))
