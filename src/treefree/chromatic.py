"""Chromatic number via degree-2 peeling plus exact coloring of the 3-core.

The structured route mirrors the intended use: a bipartite test first, then
peel vertices of residual degree <= 2 (they re-color greedily with 3 colors
in hand), then color each 3-core component exactly and take max(. , 3).
Vertex sets, adjacency rows and colour classes are all int bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, bits, components, induced, is_bipartite, mask_of
from .errors import CapacityError

DEFAULT_CAP = 24


@dataclass(frozen=True)
class PeelDecomposition:
    """Maximal degree-<=2 removal sequence and the surviving 3-core."""

    order: tuple[int, ...]
    core_vertices: tuple[int, ...]
    core_components: list[Graph]


def peel(g: Graph) -> PeelDecomposition:
    """Remove the lowest-id vertex of residual degree <= 2 until none remains.

    ``ready`` holds the live vertices of residual degree <= 2; a vertex joins
    it when its degree drops to 2.  The surviving set is the 3-core, which is
    independent of removal order.
    """
    rows = g._rows
    deg = [r.bit_count() for r in rows]
    alive = (1 << g.n) - 1
    ready = mask_of(v for v, d in enumerate(deg) if d <= 2)
    order: list[int] = []
    while ready:
        low = ready & -ready
        v = low.bit_length() - 1
        order.append(v)
        ready ^= low
        alive ^= low
        nbrs = rows[v] & alive
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            u = low.bit_length() - 1
            deg[u] -= 1
            if deg[u] == 2:
                ready |= low
    comps = [induced(g, c) for c in components(g, alive)]
    return PeelDecomposition(tuple(order), tuple(bits(alive)), comps)


def _greedy_clique(g: Graph) -> int:
    rows = g._rows
    best = 1 if g.n else 0
    for common in rows:
        size = 1
        while common:
            size += 1
            common &= rows[(common & -common).bit_length() - 1]
        if size > best:
            best = size
    return best


def _pick(left: int, classes: list[int], rows: tuple[int, ...]) -> int:
    """DSATUR choice among ``left``: most colour classes met, then degree, then lowest id."""
    n = len(rows)
    best = best_key = -1
    while left:
        low = left & -left
        left ^= low
        x = low.bit_length() - 1
        row = rows[x]
        key = row.bit_count()
        for c in classes:
            if c & row:
                key += n
        if key > best_key:
            best, best_key = x, key
    return best


def _k_colorable(g: Graph, k: int) -> bool:
    """Exact k-colorability: DSATUR-ordered backtracking, new colors last, on
    its own stack of placements, so depth is not bound by the recursion limit."""
    rows = g._rows
    classes: list[int] = []
    placed: list[tuple[int, int]] = []  # (vertex, index of its class), in placement order
    left = (1 << g.n) - 1
    v = -1  # the vertex being placed; -1 picks the next one
    i = 0  # the first class index it may still take
    while True:
        if v < 0:
            if not left:
                return True
            v, i = _pick(left, classes, rows), 0
        bit = 1 << v
        row = rows[v]
        while i < len(classes) and classes[i] & row:
            i += 1
        if i < len(classes):
            classes[i] |= bit
        elif i == len(classes) < k:
            classes.append(bit)
        else:
            if not placed:
                return False
            v, i = placed.pop()
            bit = 1 << v
            left |= bit
            if classes[i] == bit:  # v opened this class, the last one
                classes.pop()
            else:
                classes[i] ^= bit
            i += 1
            continue
        left ^= bit
        placed.append((v, i))
        v = -1


def chi_exact(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Exact chromatic number under a size cap: the least k >= max(3, clique)
    that ``_k_colorable`` accepts.

    No greedy upper bound is needed: for k at least the greedy DSATUR colour
    count, ``_k_colorable(g, k)`` makes the same ``_pick`` choices, takes the
    same first fitting class and opens new classes last, so it is the greedy
    pass and never backtracks.  The climb stops there at the latest, at the
    cost of one greedy pass, and each k returned is certified by a colouring.
    """
    if g.n > cap:
        raise CapacityError(f"chi_exact capped at {cap} vertices, got {g.n}")
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    if is_bipartite(g):
        return 2
    k = max(3, _greedy_clique(g))
    while not _k_colorable(g, k):
        k += 1
    return k


def chi_structured(g: Graph, cap: int = DEFAULT_CAP) -> int:
    """Bipartite test, degree-2 peeling, exact coloring of core components.

    Equals chi_exact wherever both are defined; the cap applies to each
    3-core component rather than the whole graph.
    """
    if g.n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    if is_bipartite(g):
        return 2
    dec = peel(g)
    best = 3
    for comp in dec.core_components:
        if comp.n > cap:
            raise CapacityError(f"3-core component with {comp.n} vertices exceeds cap {cap}")
        best = max(best, chi_exact(comp, cap))
    return best
