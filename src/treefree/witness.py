"""Induced-path sets, the root-neighborhood closure sets, and Ramsey checks.

Everything here is phrased around a fixed root w: M_k collects the second
vertices of induced v-w paths on k vertices, L(U) the vertices reaching w by
an order-4 path avoiding U, and the Y/Z sets are the closure sets whose
sizes bound how much of N(w) a connected set X can touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Iterable, Iterator, Sequence

from .core import Graph, balls, bits, mask_of
from .errors import (
    AdjacentEndpointsError,
    DomainError,
    InvalidWitnessError,
    UnsupportedRamseyError,
)
from .graphio import Report, checked, emit_graph6, timed

Path = tuple[int, ...]


def _check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    for v in vertices:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} is outside 0..{g.n - 1}")


def _nbhd(g: Graph, mask: int) -> int:
    """Union of the rows of the vertices in ``mask``."""
    out = 0
    for v in bits(mask):
        out |= g.row(v)
    return out


def vw_paths(g: Graph, w: int, k: int) -> dict[int, list[Path]]:
    """v -> every induced v-w path on exactly k >= 3 vertices, each list sorted.

    One walk over the induced paths w = p0, p1, ... grown from the root: a
    partial path carries the mask of its vertices and of every neighbour of
    all but its last vertex, so an extension is a neighbour of the last
    vertex outside that mask.  Every such v is non-adjacent to w.
    """
    _check_vertices(g, (w,))
    if k < 3:
        raise DomainError("an induced path between non-adjacent vertices has k >= 3")
    rows = g._rows
    frontier = [((w,), 1 << w)]
    for _ in range(k - 2):
        frontier = [
            (p + (x,), seen | rows[p[-1]] | 1 << x)
            for p, seen in frontier
            for x in bits(rows[p[-1]] & ~seen)
        ]
    table: dict[int, list[Path]] = {}
    for p, seen in frontier:
        for v in bits(rows[p[-1]] & ~seen):
            table.setdefault(v, []).append((v, *reversed(p)))
    for paths in table.values():
        paths.sort()
    return table


def iter_vw_paths(g: Graph, v: int, w: int, k: int) -> Iterator[Path]:
    """Yield every induced v-w path on exactly k vertices, in lexicographic order.

    Reads the w-rooted table of ``vw_paths``; a caller with many v for one w
    should build that table once instead.
    """
    _check_vertices(g, (v, w))
    if v == w:
        raise DomainError("path endpoints must differ")
    if g.has_edge(v, w):
        raise AdjacentEndpointsError(f"{v} and {w} are adjacent")
    if k < 3:
        return iter(())
    return iter(vw_paths(g, w, k).get(v, ()))


def compute_Mk(g: Graph, v: int, w: int, k: int) -> frozenset[int]:
    """Second vertices of (v,w;k)-paths, k in {4, 5}."""
    if k not in (4, 5):
        raise DomainError("M_k is used with k in {4, 5}")
    return frozenset(p[1] for p in iter_vw_paths(g, v, w, k))


def _validate_vw_path(g: Graph, q: Sequence[int], k: int) -> None:
    _check_vertices(g, q)
    if len(q) != k or len(set(q)) != k:
        raise InvalidWitnessError(f"expected {k} distinct vertices, got {q!r}")
    for a, b in zip(q, q[1:]):
        if not g.has_edge(a, b):
            raise InvalidWitnessError(f"missing path edge ({a},{b})")
    for i, j in combinations(range(k), 2):
        if j - i >= 2 and g.has_edge(q[i], q[j]):
            raise InvalidWitnessError(f"chord ({q[i]},{q[j]}): path is not induced")


def _path_pair_clauses(
    g: Graph, q1: Sequence[int], q2: Sequence[int], k: int, m4: frozenset[int] | None
) -> dict[str, bool]:
    """Evaluate the applicable disjointness clauses for one ordered pair."""
    edge = g.has_edge
    clauses: dict[str, bool] = {}
    clauses["i"] = not ({q1[1], q1[2]} & {q2[1], q2[2]})
    if k == 4:
        clauses["iii"] = not any(edge(a, b) for a in (q1[1], q1[2]) for b in (q2[1], q2[2]))
    if k == 5:
        clauses["ii"] = not ({q1[1], q1[2], q1[3]} & {q2[1], q2[2]})
        if q1[3] != q2[3]:
            allowed = {(q1[1], q2[3]), (q1[2], q2[2]), (q1[3], q2[1])}
            extra = [
                (a, b)
                for a in (q1[1], q1[2], q1[3])
                for b in (q2[1], q2[2], q2[3])
                if edge(a, b) and (a, b) not in allowed
            ]
            clauses["iv"] = not extra
            if m4 is not None and q1[1] not in m4:
                # clause (v): with q1[1] outside M_4, the a1-c2 edge is gone too
                allowed_v = {(q1[2], q2[2]), (q1[3], q2[1])}
                extra_v = [
                    (a, b)
                    for a in (q1[1], q1[2], q1[3])
                    for b in (q2[1], q2[2], q2[3])
                    if edge(a, b) and (a, b) not in allowed_v
                ]
                clauses["v"] = not extra_v
    return clauses


@timed
def check_path_pair(g: Graph, q1: Sequence[int], q2: Sequence[int], k: int) -> Report:
    """Check the Lemma-4.1 clauses on one ordered pair of (v,w;k)-paths."""
    q1, q2 = tuple(q1), tuple(q2)
    _validate_vw_path(g, q1, k)
    _validate_vw_path(g, q2, k)
    if q1[0] != q2[0] or q1[-1] != q2[-1]:
        raise InvalidWitnessError("paths must share both endpoints")
    if q1[1] == q2[1]:
        raise InvalidWitnessError("second vertices must differ")
    m4 = compute_Mk(g, q1[0], q1[-1], 4) if k == 5 else None
    clauses = _path_pair_clauses(g, q1, q2, k, m4)
    return checked(
        "lemma4.1.pair", g, all(clauses.values()),
        {"k": k, "v": q1[0], "w": q1[-1], "q1": list(q1), "q2": list(q2)},
        {"clauses": clauses},
    )


@timed
def scan_path_pairs(
    g: Graph,
    k: int,
    seed: int = 0,
    vw_samples: int | None = None,
    host_name: str = "host",
) -> Report:
    """Exhaust Lemma-4.1 clauses over all ordered path pairs of sampled (v,w).

    With ``vw_samples`` unset every non-adjacent pair is used.  Returns the
    number of ordered path pairs inspected in the witness.
    """
    # ordered (v,w): the k=5 clauses are not symmetric under path reversal
    nonadj = [
        (v, w)
        for v in range(g.n)
        for w in range(g.n)
        if v != w and not g.has_edge(v, w)
    ]
    if vw_samples is not None and vw_samples < len(nonadj):
        nonadj = Random(seed).sample(nonadj, vw_samples)
    pair_count = 0
    violations: list[dict] = []
    tables: dict[tuple[int, int], dict[int, list[Path]]] = {}

    def paths_to(v: int, w: int, order: int) -> list[Path]:
        if (w, order) not in tables:
            tables[w, order] = vw_paths(g, w, order)
        return tables[w, order].get(v, [])

    for v, w in nonadj:
        paths = paths_to(v, w, k)
        if len(paths) < 2:
            continue
        m4 = frozenset(p[1] for p in paths_to(v, w, 4)) if k == 5 else None
        for q1 in paths:
            for q2 in paths:
                if q1 is q2 or q1[1] == q2[1]:
                    continue
                pair_count += 1
                clauses = _path_pair_clauses(g, q1, q2, k, m4)
                if not all(clauses.values()):
                    violations.append({"q1": list(q1), "q2": list(q2), "clauses": clauses})
    return checked(
        "lemma4.1.scan", g, not violations,
        {"host": host_name, "k": k, "vw_pairs": len(nonadj), "seed": seed},
        {"path_pairs": pair_count, "violations": violations[:5]},
    )


def compute_L(g: Graph, w: int, avoid: Iterable[int]) -> frozenset[int]:
    """Vertices of N2(w) u N3(w) reaching w by an order-4 path avoiding ``avoid``.

    The path is not required induced; all four of its vertices must miss the
    avoided set.  A vertex 3 steps from w lies in N2(w) u N3(w) iff it is
    outside N[w], so no distances are needed.
    """
    avoid = list(avoid)
    _check_vertices(g, (w, *avoid))
    umask = mask_of(avoid)
    if umask >> w & 1:
        return frozenset()
    q2 = _nbhd(g, g.row(w) & ~umask) & ~umask & ~(1 << w)
    return frozenset(bits(_nbhd(g, q2) & ~umask & ~g.row(w) & ~(1 << w)))


@dataclass(frozen=True)
class WitnessSets:
    """The five closure sets derived from a base X under a fixed root w."""

    host: Graph
    w: int
    base: frozenset[int]
    y1: frozenset[int]
    y2: frozenset[int]
    z1: frozenset[int]
    z2: frozenset[int]
    z3: frozenset[int]
    report: Report


_CLOSURE_SETS = ("y1", "y2", "z1", "z2", "z3")


def derived_sets(g: Graph, w: int, base: Iterable[int]) -> WitnessSets:
    """Compute Y1, Y2, Z1, Z2, Z3 from X and check the edge-emptiness claims.

    Y1 = (X u N(X)) n N2(w);       Y2 = N(Y1) n N(w)
    Z1 = N(X) n L(X)
    Z2 = (X u N(Z1 u X)) n N2(w);  Z3 = N(Z2) n N(w)

    When the host is C3/C4-free, every a in N(w)-Y2 has no edge from X into
    N<=1(a), and every a in N(w)-Z3 has no edge from X into N<=2(a)-Z3; both
    are asserted in the attached report, whose witness lists the five sets.
    """
    X = frozenset(base)
    report = _closure_report(g, w, X)
    sets = {name: frozenset(report.witness[name]) for name in _CLOSURE_SETS}
    return WitnessSets(host=g, w=w, base=X, report=report, **sets)


@timed
def _closure_report(g: Graph, w: int, X: frozenset[int]) -> Report:
    """The lemma-5.1 report of ``derived_sets``."""
    _check_vertices(g, (w, *X))
    _, closed, within2 = balls(g, 1 << w, 2)
    xmask = mask_of(X)
    if xmask & closed:
        raise DomainError("base set must lie in N_{>=2}(w)")
    n2 = within2 & ~closed
    nw = g.row(w)

    y1 = (xmask | _nbhd(g, xmask)) & n2
    y2 = _nbhd(g, y1) & nw
    lset = mask_of(compute_L(g, w, X))
    z1 = _nbhd(g, xmask) & lset
    z2 = (xmask | _nbhd(g, z1 | xmask)) & n2
    z3 = _nbhd(g, z2) & nw

    balls1 = {a: (1 << a) | g.row(a) for a in bits(nw)}
    violations = []
    for a in bits(nw & ~y2):
        if any(g.row(x) & balls1[a] for x in X):
            violations.append({"clause": "i", "a": a})
    for a in bits(nw & ~z3):
        ball2 = balls1[a] | _nbhd(g, g.row(a))
        if any(g.row(x) & ball2 & ~z3 for x in X):
            violations.append({"clause": "ii", "a": a})
    witness = {name: sorted(bits(m)) for name, m in zip(_CLOSURE_SETS, (y1, y2, z1, z2, z3))}
    witness["violations"] = violations
    return checked("lemma5.1", g, not violations, {"w": w, "X": sorted(X)}, witness)


_R3 = {1: 1, 2: 3, 3: 6, 4: 9}


def ramsey_threshold(p1: int, p2: int) -> int:
    """2*R(3,p1+2) + 3*R(3,p2) + 2*p2*(p1+p2+1) + 3, from the built-in table."""
    if p1 < 1 or p2 < 1:
        raise DomainError("p1 and p2 must be >= 1")
    if p1 + 2 not in _R3 or p2 not in _R3:
        raise UnsupportedRamseyError(f"needs R(3,{max(p1 + 2, p2)}) beyond the table")
    return 2 * _R3[p1 + 2] + 3 * _R3[p2] + 2 * p2 * (p1 + p2 + 1) + 3


def survivor_bound(h: int, m: int) -> int:
    """Pigeonhole bound h*m - m + 1: fewer forces m-fold collision above h-1."""
    return h * m - m + 1


def _independence_number_at_most(g: Graph, limit: int) -> bool:
    """True iff g has no independent set on limit + 1 vertices.

    Branches on the lowest candidate: an independent set either holds it,
    leaving its non-neighbours above it as candidates, or does not.
    """
    rows = g._rows

    def grows(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grows(cand & ~rows[low.bit_length() - 1], need - 1):
                return True
        return False

    return not grows((1 << g.n) - 1, limit + 1)


def _independent_sets(g: Graph) -> Iterator[int]:
    """All independent sets of g as bitmasks (including the empty set)."""

    def grow(start: int, mask: int, forbidden: int) -> Iterator[int]:
        yield mask
        for v in range(start, g.n):
            if forbidden >> v & 1:
                continue
            yield from grow(v + 1, mask | (1 << v), forbidden | g.row(v) | (1 << v))

    yield from grow(0, 0, 0)


def _ramsey_levels(t: int) -> list[list[Graph]]:
    """Triangle-free graphs with independence number <= t - 1, up to isomorphism.

    Entry n - 1 lists one graph per class on n vertices, for n = 1..R with
    R = ``_R3[t]``.  Both properties pass to induced subgraphs, so every
    class on n + 1 vertices is a class on n vertices plus one vertex; the
    growth tries each class with every new neighbourhood that keeps it
    triangle-free and keeps the first graph of each new class.
    """
    from .embed import is_isomorphic

    levels: list[list[Graph]] = [[Graph(1, (0,))]]
    for n in range(1, _R3[t]):
        nxt: list[Graph] = []
        seen: dict[tuple, list[Graph]] = {}
        for g in levels[-1]:
            # the new vertex keeps the graph triangle-free iff its
            # neighborhood is independent, so only those are tried
            for nb in _independent_sets(g):
                rows = list(g._rows) + [nb]
                for v in bits(nb):
                    rows[v] |= 1 << n
                cand = Graph(n + 1, rows)
                if not _independence_number_at_most(cand, t - 1):
                    continue
                key = (cand.edge_count, tuple(sorted(cand.degree(v) for v in range(cand.n))))
                bucket = seen.setdefault(key, [])
                if any(is_isomorphic(cand, other) for other in bucket):
                    continue
                bucket.append(cand)
                nxt.append(cand)
        levels.append(nxt)
    return levels


@timed
def verify_ramsey_small(t: int) -> Report:
    """Confirm R(3,t) = ``_R3[t]``, the value ``ramsey_threshold`` reads, for t in 2..4.

    One engine serves every t: ``_ramsey_levels`` grows the triangle-free
    graphs with independence number <= t - 1 vertex by vertex, up to
    isomorphism.  The check passes iff some survive on R - 1 vertices (the
    first is the lower-bound witness) and none on R; ``level_classes``
    counts the classes on 1..R vertices.

    A failed report's counterexample is the first class on R vertices,
    which refutes R(3,t) <= R.  When none survive on R - 1 vertices the
    table is too large and no graph refutes it, so the counterexample is
    the empty graph.
    """
    if not 2 <= t <= max(_R3):
        raise UnsupportedRamseyError(f"verify_ramsey_small supports t in 2..{max(_R3)}, got {t}")
    levels = _ramsey_levels(t)
    passed = bool(levels[-2]) and not levels[-1]
    detail = {
        "lower_bound_witness": emit_graph6(levels[-2][0]) if levels[-2] else None,
        "level_classes": [len(level) for level in levels],
    }
    refuter = levels[-1][0] if levels[-1] else Graph(0, ())
    return checked(f"ramsey3{t}", refuter, passed, {"t": t, "value": _R3[t]}, detail)


@timed
def check_geodesic(g: Graph, path: Sequence[int]) -> Report:
    """Check the geodesic attachment properties along a diameter path.

    Requires ``path`` to be a shortest path realizing diam(g).  Asserts that
    every off-path vertex sees at most one path vertex, and that two
    adjacent off-path vertices attach at indices i < i' with 2 <= i'-i <= 3.
    """
    from .core import diameter, distance

    p = tuple(path)
    if len(p) < 2 or len(set(p)) != len(p):
        raise InvalidWitnessError("not a path")
    for a, b in zip(p, p[1:]):
        if not g.has_edge(a, b):
            raise InvalidWitnessError(f"missing path edge ({a},{b})")
    d = len(p) - 1
    if distance(g, p[0], p[-1]) != d or diameter(g) != d:
        raise InvalidWitnessError("path is not a diameter geodesic")
    pmask = mask_of(p)
    index = {u: i for i, u in enumerate(p)}
    attach: dict[int, int] = {}
    violations = []
    for y in range(g.n):
        if pmask >> y & 1:
            continue
        hits = [index[u] for u in bits(g.row(y) & pmask)]
        if len(hits) > 1:
            violations.append({"clause": "i", "y": y, "hits": hits})
        elif hits:
            attach[y] = hits[0]
    for y, i in attach.items():
        for yp in bits(g.row(y) & ~pmask):
            if yp in attach and yp > y:
                gap = abs(attach[yp] - i)
                if not 2 <= gap <= 3:
                    violations.append({"clause": "ii", "edge": [y, yp], "gap": gap})
    return checked(
        "lemma3.1", g, not violations, {"u": p[0], "v": p[-1], "diameter": d},
        {"off_path": len(attach), "violations": violations[:5]},
    )
