"""Induced-path sets, the root-neighborhood closure sets, and Ramsey checks.

Everything here is phrased around a fixed root w: M_k collects the second
vertices of induced v-w paths on k vertices, L(X) the vertices of
N2(w) u N3(w) reaching w by an order-4 path avoiding X, and the Y/Z sets
are the closure sets whose sizes bound how much of N(w) a connected set X
can touch.

Work that depends only on the host and the root is done once per root: one
path table per (w, k) (``vw_paths``) and one ``RootTable`` per w for the
closure sets, which ``closure_masks`` reads for each base X; L(X) is
computed there alone, from the table's ring N(N(w)) - w.  The path-pair
clauses test M_4 membership on three rows, so a path-pair check reads at
most one table, of its own order.  Lemma 4.1 checks every path pair of a
host and k on bitmasks inside one ``scan_path_pairs`` report, one report per
host record and k.  The scan is one loop over the orbit roots w
(``core.orbits``) of the generators the ``families.NamedGraph`` carries,
which the record checked when it was made (every vertex, given none): one
table per root, each root's pair count weighted by its orbit size, and the
violations sorted into (v, w) order.  Lemmas 5.1 and 5.3 check 100 seeded
bases per host (``cli._lemma_5x_suite``), each on masks, and 5.1 builds a
``derived_sets`` report only for a failing base.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (Graph, bits, check_vertices, degree_classes, diameter, distance, mask_of, nbhd,
                   orbits)
from .embed import is_isomorphic
from .errors import (
    AdjacentEndpointsError,
    DomainError,
    InvalidWitnessError,
    UnsupportedRamseyError,
)
from .families import NamedGraph
from .graphio import Report, checked, emit_graph6, timed

Path = tuple[int, ...]


def vw_paths(g: Graph, w: int, k: int) -> dict[int, list[Path]]:
    """v -> every induced v-w path on exactly k >= 3 vertices, each list sorted.

    One walk over the induced paths w = p0, p1, ... grown from the root: a
    partial path carries the mask of its vertices and of every neighbour of
    all but its last vertex, so an extension is a neighbour of the last
    vertex outside that mask.  Every such end is non-adjacent to w, and the
    table is the last frontier grouped by end vertex.
    """
    check_vertices(g, (w,))
    if k < 3:
        raise DomainError("an induced path between non-adjacent vertices has k >= 3")
    rows = g._rows
    frontier = [((w,), 1 << w)]
    for _ in range(k - 1):
        grown = []
        for p, seen in frontier:
            last = rows[p[-1]]
            ext = last & ~seen
            seen |= last
            while ext:
                low = ext & -ext
                ext ^= low
                grown.append((p + (low.bit_length() - 1,), seen | low))
        frontier = grown
    table: dict[int, list[Path]] = {}
    for p, _ in frontier:
        table.setdefault(p[-1], []).append(p[::-1])
    for paths in table.values():
        paths.sort()
    return table


def iter_vw_paths(g: Graph, v: int, w: int, k: int) -> Iterator[Path]:
    """Yield every induced v-w path on exactly k vertices, in lexicographic order.

    Reads the w-rooted table of ``vw_paths``; a caller with many v for one w
    should build that table once instead.
    """
    check_vertices(g, (v, w))
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
    check_vertices(g, q)
    if len(q) != k or len(set(q)) != k:
        raise InvalidWitnessError(f"expected {k} distinct vertices, got {q!r}")
    for a, b in zip(q, q[1:]):
        if not g.has_edge(a, b):
            raise InvalidWitnessError(f"missing path edge ({a},{b})")
    for i, j in combinations(range(k), 2):
        if j - i >= 2 and g.has_edge(q[i], q[j]):
            raise InvalidWitnessError(f"chord ({q[i]},{q[j]}): path is not induced")


def _path_pair_clauses(
    rows: Sequence[int], q1: Sequence[int], q2: Sequence[int], k: int
) -> dict[str, bool]:
    """Evaluate the applicable disjointness clauses for one ordered pair.

    ``rows`` are the host's adjacency rows.  Path vertices are distinct, so
    clearing one bit of q2's inner mask drops exactly the pair a clause
    allows.  Clause (v) needs a1 = q1[1] outside M_4(v, w).  As q1 is
    induced, a1 is in N(v) - N[w], so a1 is in M_4(v, w) iff some b in
    N(a1) n N(w) misses N(v): then v-a1-b-w is an induced path.
    """
    a1, a2, b1, b2 = q1[1], q1[2], q2[1], q2[2]
    clauses = {"i": a1 != b1 and a1 != b2 and a2 != b1 and a2 != b2}
    if k == 4:
        clauses["iii"] = not (rows[a1] | rows[a2]) & (1 << b1 | 1 << b2)
        return clauses
    a3, b3 = q1[3], q2[3]
    clauses["ii"] = clauses["i"] and a3 != b1 and a3 != b2
    if a3 != b3:
        inner = 1 << b1 | 1 << b2 | 1 << b3
        # edges from a2 and a3 beyond the allowed a2-b2 and a3-b1
        rest = rows[a2] & inner & ~(1 << b2) or rows[a3] & inner & ~(1 << b1)
        clauses["iv"] = not (rest or rows[a1] & inner & ~(1 << b3))
        if not rows[a1] & rows[q1[-1]] & ~rows[q1[0]]:
            # clause (v): with q1[1] outside M_4, the a1-c2 edge is gone too
            clauses["v"] = not (rest or rows[a1] & inner)
    return clauses


def _check_pair_order(k: int) -> None:
    if k not in (4, 5):
        raise DomainError("path pairs are checked with k in {4, 5}")


@timed
def check_path_pair(g: Graph, q1: Sequence[int], q2: Sequence[int], k: int) -> Report:
    """Check the Lemma-4.1 clauses on one ordered pair of (v,w;k)-paths, k in {4, 5}."""
    _check_pair_order(k)
    q1, q2 = tuple(q1), tuple(q2)
    _validate_vw_path(g, q1, k)
    _validate_vw_path(g, q2, k)
    if q1[0] != q2[0] or q1[-1] != q2[-1]:
        raise InvalidWitnessError("paths must share both endpoints")
    if q1[1] == q2[1]:
        raise InvalidWitnessError("second vertices must differ")
    clauses = _path_pair_clauses(g._rows, q1, q2, k)
    return checked(
        "lemma4.1.pair", g, all(clauses.values()),
        {"k": k, "v": q1[0], "w": q1[-1], "q1": list(q1), "q2": list(q2)},
        {"clauses": clauses},
    )


def _pair_checks(rows: Sequence[int], paths: Sequence[Path], k: int, violations: list[dict]) -> int:
    """Check every ordered pair of ``paths`` (one (v, w) pair's) with distinct
    second vertices; append each failing pair to ``violations``, return the count."""
    count = 0
    for q1 in paths:
        for q2 in paths:
            if q1[1] == q2[1]:
                continue
            count += 1
            clauses = _path_pair_clauses(rows, q1, q2, k)
            if not all(clauses.values()):
                violations.append({"q1": list(q1), "q2": list(q2), "clauses": clauses})
    return count


@timed
def scan_path_pairs(host: NamedGraph, k: int) -> Report:
    """Exhaust Lemma-4.1 clauses over all ordered path pairs of every (v,w), k in {4, 5}.

    One loop: for each orbit root w of ``host.generators`` (the record
    checked them when it was made), one path table, each (v, w) pair count
    weighted by w's orbit size.  With no generators every vertex is a root.
    An automorphism s maps the induced (v,w;k)-paths bijectively onto the
    (sv,sw;k)-paths, keeps q1[1] != q2[1], and keeps every clause of
    ``_path_pair_clauses``, since each is built from vertex ids compared
    for equality, adjacencies and ``rows[a1] & rows[w] & ~rows[v]``; so
    every w of an orbit has its root's count, and a violation at some w
    shows at its root.  A reduced scan that meets a violation reruns with
    every vertex a root, so that every violation is listed.

    ``vw_pairs`` reports the number of ordered non-adjacent pairs (ordered:
    the k = 5 clauses are not symmetric under path reversal).  The witness
    counts the ordered path pairs inspected and lists the first five
    violations in (v, w, q1, q2) order.  The loop meets them w-major, each
    table in its walk's order, so they are sorted: which five a failing
    report lists then depends on the host alone, not on the roots.
    """
    _check_pair_order(k)
    g, n = host.graph, host.graph.n
    roots, sizes = orbits(host.generators, n)
    violations: list[dict] = []
    pair_count = 0
    for w in bits(roots):
        for paths in vw_paths(g, w, k).values():
            pair_count += sizes.get(w, 1) * _pair_checks(g._rows, paths, k, violations)
    if violations and host.generators:
        return scan_path_pairs(replace(host, generators=()), k)
    violations.sort(key=lambda bad: (bad["q1"][0], bad["q1"][-1], bad["q1"], bad["q2"]))
    return checked(
        "lemma4.1.scan", g, not violations,
        {"host": host.id, "k": k, "vw_pairs": n * (n - 1) - 2 * g.edge_count},
        {"path_pairs": pair_count, "violations": violations[:5]},
    )


class RootTable:
    """Everything the closure sets read that depends only on the host and w.

    ``closed`` is N[w], ``n2`` is N2(w), ``ring`` is N(N(w)) - w (the first
    ring of every L(X) once X misses N[w]), and ``spokes`` lists, for each a
    in N(w) in ascending order, a with its balls N[a] and N<=2(a).  A caller
    checking many bases under one root builds one table and passes it to
    ``closure_masks`` for each.
    """

    __slots__ = ("host", "nw", "closed", "n2", "ring", "spokes")

    def __init__(self, g: Graph, w: int):
        check_vertices(g, (w,))
        self.host, self.nw = g, g.row(w)
        self.closed = self.nw | 1 << w
        self.ring = nbhd(g, self.nw) & ~(1 << w)
        self.n2 = self.ring & ~self.closed
        self.spokes = []
        for a in bits(self.nw):
            closed = g.row(a) | 1 << a
            self.spokes.append((a, closed, closed | nbhd(g, g.row(a))))


class ClosureMasks(NamedTuple):
    """The five closure sets of one base, and the a in N(w) breaking each clause."""

    y1: int
    y2: int
    z1: int
    z2: int
    z3: int
    clause_i: int
    clause_ii: int


def closure_masks(root: RootTable, xmask: int) -> ClosureMasks:
    """The Y/Z sets of the base ``xmask`` under ``root``, all as bitmasks.

    Y1 = (X u N(X)) n N2(w);       Y2 = N(Y1) n N(w)
    Z1 = N(X) n L(X)
    Z2 = (X u N(Z1 u X)) n N2(w);  Z3 = N(Z2) n N(w)

    X misses N[w], so the order-4 paths of L(X) start w, N(w), ring - X:
    Z1 keeps the y in N(X) outside X u N[w] with a neighbour in ring - X.
    Clause (i) fails at a in N(w) - Y2 when N(X) meets N[a]; clause (ii) at
    a in N(w) - Z3 when N(X) meets N<=2(a) - Z3.
    """
    g = root.host
    if xmask & root.closed or xmask >> g.n:
        raise DomainError("base set must lie in N_{>=2}(w)")
    rows = g._rows
    nx = nbhd(g, xmask)
    y1 = (xmask | nx) & root.n2
    y2 = nbhd(g, y1) & root.nw
    q2 = root.ring & ~xmask
    z1 = 0
    cand = nx & ~(xmask | root.closed)
    while cand:
        low = cand & -cand
        cand ^= low
        if rows[low.bit_length() - 1] & q2:
            z1 |= low
    z2 = (xmask | nx | nbhd(g, z1)) & root.n2
    z3 = nbhd(g, z2) & root.nw
    clause_i = clause_ii = 0
    for a, ball1, ball2 in root.spokes:
        if nx & ball1 and not y2 >> a & 1:
            clause_i |= 1 << a
        if nx & ball2 & ~z3 and not z3 >> a & 1:
            clause_ii |= 1 << a
    return ClosureMasks(y1, y2, z1, z2, z3, clause_i, clause_ii)


_CLOSURE_SETS = ("y1", "y2", "z1", "z2", "z3")


@timed
def derived_sets(g: Graph, w: int, base: Iterable[int]) -> Report:
    """The lemma-5.1 report on the base X under the root w.

    The witness lists the five closure sets of ``closure_masks``.  When the
    host is C3/C4-free, every a in N(w)-Y2 has no edge from X into N<=1(a),
    and every a in N(w)-Z3 has no edge from X into N<=2(a)-Z3; a violation
    of either names its clause and a.
    """
    X = sorted(set(base))
    root = RootTable(g, w)
    check_vertices(g, X)
    masks = closure_masks(root, mask_of(X))
    witness: dict = {name: list(bits(m)) for name, m in zip(_CLOSURE_SETS, masks)}
    violations = [{"clause": "i", "a": a} for a in bits(masks.clause_i)]
    violations += [{"clause": "ii", "a": a} for a in bits(masks.clause_ii)]
    witness["violations"] = violations
    return checked("lemma5.1", g, not violations, {"w": w, "X": X}, witness)


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


def _has_independent_set(rows: Sequence[int], cand: int, need: int) -> bool:
    """True iff the vertices of ``cand`` hold an independent set on ``need`` vertices.

    Branches on the lowest candidate: an independent set either holds it,
    leaving its non-neighbours above it as candidates, or does not.
    """
    if need == 0:
        return True
    while cand.bit_count() >= need:
        low = cand & -cand
        cand ^= low
        if _has_independent_set(rows, cand & ~rows[low.bit_length() - 1], need - 1):
            return True
    return False


def _independent_sets(g: Graph, least: int) -> Iterator[int]:
    """The independent sets of g with at least ``least`` vertices, as
    bitmasks, in the order of a DFS that adds vertices by ascending id.

    A branch holds ``mask`` and may still add the vertices of ``cand``, every
    id above the last added that misses N[mask].  Once |mask| + |cand| <
    ``least`` no set of the branch has ``least`` vertices, so it is skipped
    whole; the sets yielded keep the order of the unpruned DFS.
    """
    rows = g._rows

    def grow(mask: int, cand: int) -> Iterator[int]:
        size = mask.bit_count()
        if size + cand.bit_count() < least:
            return
        if size >= least:
            yield mask
        while cand:
            low = cand & -cand
            cand ^= low
            yield from grow(mask | low, cand & ~rows[low.bit_length() - 1])

    yield from grow(0, (1 << g.n) - 1)


def _ramsey_levels(t: int) -> list[list[Graph]]:
    """Triangle-free graphs with independence number <= t - 1, up to isomorphism.

    Entry n - 1 lists one graph per class on n vertices, for n = 1..R with
    R = ``_R3[t]``.  The growth tries each class g on n vertices with every
    new neighbourhood that keeps it triangle-free, keeps a candidate only
    when its new vertex has maximum degree in it, and keeps the first graph
    of each new class.  In the candidate the new vertex has degree |nb|, a
    neighbour v of it deg_g(v) + 1 and any other v deg_g(v), so the new
    vertex has maximum degree iff |nb| >= Delta(g), and |nb| > Delta(g)
    when nb holds a vertex of degree Delta(g).

    Every class is still reached (canonical deletion; McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  A class C on n + 1
    vertices has a vertex x of maximum degree, and C - x is triangle-free
    with independence number <= t - 1, as both properties pass to induced
    subgraphs, so it is isomorphic to a kept class g on n vertices.  The
    isomorphism carries N(x) to an independent set of g that the growth
    tries, and that candidate is C with its new vertex in x's role, which
    has maximum degree.

    A candidate is compared with the kept graphs of its degree bucket with
    the kept graph as the pattern: ``is_isomorphic`` compiles its pattern
    into a cached plan, so each kept graph is compiled once and serves every
    later candidate, where a fresh candidate as pattern would be compiled
    anew for each comparison.
    """
    levels: list[list[Graph]] = [[Graph(1, (0,))]]
    for n in range(1, _R3[t]):
        nxt: list[Graph] = []
        seen: dict[tuple, list[Graph]] = {}
        for g in levels[-1]:
            classes = degree_classes(g)
            delta = max(classes)
            # the new vertex keeps the graph triangle-free iff its
            # neighborhood is independent, so only those are tried, and of
            # those only the ones with Delta(g) vertices or more
            for nb in _independent_sets(g, delta):
                if nb.bit_count() < delta + bool(nb & classes[delta]):
                    continue  # the new vertex would not have maximum degree
                # g has no independent t-set, so a new one holds the new
                # vertex and t - 1 of its non-neighbours
                if _has_independent_set(g._rows, (1 << n) - 1 & ~nb, t - 1):
                    continue
                rows = list(g._rows) + [nb]
                for v in bits(nb):
                    rows[v] |= 1 << n
                cand = Graph(n + 1, rows)
                key = (cand.edge_count, tuple(sorted(cand.degree(v) for v in range(cand.n))))
                bucket = seen.setdefault(key, [])
                if any(is_isomorphic(other, cand) for other in bucket):
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
    p = tuple(path)
    check_vertices(g, p)
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
