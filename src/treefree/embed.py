"""Induced-subgraph containment, embedding enumeration, and isomorphism.

One search core serves all three.  Each pattern is compiled once into a
plan (``_plan``, a bounded cache keyed by the pattern): a connected
placement order (max-degree first) and the forward checks each placement
makes.  Once order[idx] lands on host vertex h, each later pattern vertex q
is cut by one AND with an entry of h's check row, picked by q's tag: N(h)
if q is adjacent to order[idx], the vertices at distance 2 from h if they
share a neighbour, else every non-neighbour of h other than h.  An induced
image keeps non-edges and shared neighbours, so no embedding fails a check.
Checks farther out prune no host-search node on the bench workloads
(Ullmann, J. ACM 1976, checks one step out; VF2, Cordella et al., TPAMI
2004, two).  Candidates are scanned in ascending host id, so the search
meets embeddings f in lexicographic order of (f(order[0]), f(order[1]),
...).  Isomorphism is an induced embedding between graphs of equal order
and size, started from the degree classes.

One invariant: every pruning keeps the lex-least embedding f*.  The search
meets embeddings in lex order and reports only embeddings, so the first one
it reports is f*: ``find_induced`` returns the same witness and ``is_free``
the same verdict whatever prunings ran.  An enumeration
(``find_all_induced`` with any limit but 1) runs only the prunings that
keep every embedding: the forward checks, which no embedding fails, and
(d).  The four prunings:

(a) Symmetry breaking, in first-hit searches (``limit == 1``, no
``initial`` masks).  For each idx >= 1 the plan holds the orbit of
order[idx] under the pattern automorphisms that fix order[:idx] pointwise.
Once order[idx] lands on host vertex h, every other vertex of that orbit is
cut to ids above h: a lex-leader condition (Crawford, Ginsberg, Luks and
Roy, KR 1996; Grochow and Kellis, RECOMB 2007).  If f* broke the cut at
orbit vertex j, the automorphism tau that fixes order[:idx] and maps
order[idx] to j would make f* o tau an embedding that agrees with f* on the
prefix and is smaller at idx.  Each orbit member is confirmed by one
pattern-to-pattern search with singleton ``initial`` masks, so Aut(P) is
never listed (a 15-leaf star has 15! automorphisms), and the orbits are
built the first time a pattern serves such a search.  With ``initial``
masks, f* o tau may leave the masks, so they turn the cuts off.

(b) Orbit rooting, when host automorphism ``generators`` are given (the
family constructors supply them) and no ``initial`` masks.  Each generator
is given by its moves, a dict from each vertex it moves to its image, with
every vertex it leaves out fixed, so the search reads the moved vertices
off the keys and never scans a full-length permutation.  The search
numbers the generators that move some vertex, and ``fixing[h]`` masks
those that fix host vertex h.  Each node carries ``sub``, its parent's
``sub & fixing[h]``: the generators that fix every host vertex placed so
far.  Let H_d be the group they generate at depth d.  The candidates there
are cut to ``least[sub]``, the vertices that are the least of their
H_d-orbit, a mask ``_orbit_least`` builds once per distinct ``sub`` and
search.  A rotation moves every vertex, so it roots only the first
placement (gp(n): 2 roots of 2n), and ``_orbit_least``'s array union-find
keeps that table O(n).  Let y = f*(order[d]).  For g in H_d, g o f* is an
embedding that agrees with f* on the prefix, so g(y) >= y: y is the least
vertex of its whole H_d-orbit, and the cut keeps it whatever the rest of
the candidate mask holds.  Once no generator fixes a branch's prefix
(``sub`` is 0), the branch is searched in full.

(c) Lazy rotation rooting, in unrooted first-hit searches (``limit == 1``,
no ``generators``, no ``initial`` masks).  The search tries its lowest root
(the least candidate for q0 = order[0]) first.  Only when that root has no
embedding does it ask ``core.rotation_roots`` for the host's block rotation
sigma, and when the host has one the remaining roots are cut to the least
vertex of each sigma-orbit, the mask that call returns.  (b)'s argument
covers the cut: the lowest root has no embedding, and f*(q0) is the least
vertex of its orbit, since g o f* is an embedding for every power g of
sigma.  sigma moves every vertex, so no generator fixes a placed root and
every branch below a root is searched in full.  Trying the lowest root
first spares detection on the hosts that embed the pattern there, as most
``scan`` records do.  A host without a rotation, such as a relabelled
gp(n) or h3(s), has every root tried; verdicts and witnesses are the same
either way.

(d) Sibling pigeonhole, in every search.  The search keeps a pattern
vertex's image off the images of other vertices only through the forward
checks, so two unplaced neighbours of one placed vertex can be left with
the same single candidate, and the clash would show only once both are
placed.  The plan holds ``kids[idx]``, the later neighbours of order[idx]
when there are two or more.  Once order[idx] lands on h and the forward
checks pass, the search ORs the kids' candidate masks and skips h if the
union has fewer vertices than there are kids: distinct pattern vertices
need distinct images, so no embedding extends that prefix.  This is the
distinctness half of the all-different filter (Regin, AAAI 1994), applied
to the one group where it is cheap and sharp: after the adjacency checks
the kids' masks lie inside N(h), so it fires when host degrees are close to
pattern degrees, as on sparse min-degree-3 hosts.  It removes only subtrees
with no embedding, so it keeps f*, every enumeration and its order, and
(c)'s premise that a searched root has no embedding.  It reads the masks
after (a)'s cuts and the ``initial`` masks are applied, so it drops nothing
those keep; (b) cuts only the candidates of the next vertex to place, so
the union there is over supersets and the cut stays sound.  The search for
S8:0001 in h2(3) without generators (which finds none) visits 4464 nodes
(calls of ``place``) with the cut against 17090 without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from . import core
from .core import Graph, bits, nbhd
from .errors import CapacityError

PATTERN_CAP = 16
PLAN_CACHE = 256


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern-vertex i -> host-vertex mapping[i], induced."""

    mapping: tuple[int, ...]


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


class _Plan:
    """What a search needs from a non-empty pattern alone; see ``_plan``."""

    __slots__ = ("pattern", "order", "steps", "kids", "degrees", "_cuts")

    def __init__(self, pattern: Graph):
        self.pattern = pattern
        self.order = order = _search_order(pattern)
        rows = [pattern.row(v) for v in range(pattern.n)]
        # steps[idx]: the forward checks made once order[idx] is placed, as
        # (r, tag) pairs, tag 1 if r is adjacent to order[idx], 2 if they share
        # a neighbour, else 0: the entry of the check row it reads (``_search``)
        self.steps = [[(r, 1 if rows[q] >> r & 1 else 2 if rows[q] & rows[r] else 0)
                       for r in order[idx + 1:]] for idx, q in enumerate(order)]
        # kids[idx]: the later neighbours of order[idx] when there are two or
        # more, else (); pruning (d) reads their masks
        self.kids = [kids if len(kids) > 1 else () for kids in
                     (tuple(r for r, t in step if t == 1) for step in self.steps)]
        self.degrees = [pattern.degree(q) for q in range(pattern.n)]
        self._cuts: list[tuple[int, ...]] | None = None

    def cuts(self) -> list[tuple[int, ...]]:
        """The symmetry-breaking cuts, built on first use: ``_stabiliser_orbits``."""
        if self._cuts is None:
            self._cuts = _stabiliser_orbits(self.pattern, self.order)
        return self._cuts


@lru_cache(maxsize=PLAN_CACHE)
def _plan(pattern: Graph) -> _Plan:
    """The pattern's plan, built once while it stays among the last
    PLAN_CACHE patterns searched (at most PATTERN_CAP vertices each)."""
    return _Plan(pattern)


def _stabiliser_orbits(pattern: Graph, order: list[int]) -> list[tuple[int, ...]]:
    """Entry idx: the vertices other than order[idx] in its orbit under the
    automorphisms of ``pattern`` that fix order[:idx] pointwise; () at idx 0.

    Each candidate j (a later vertex of equal degree) costs one search of
    the pattern in itself with the prefix pinned and order[idx] -> j, so the
    group is never enumerated.
    """
    k = pattern.n
    masks = [(1 << k) - 1] * k
    cuts: list[tuple[int, ...]] = [()]
    for idx in range(1, k):
        masks[order[idx - 1]] = 1 << order[idx - 1]
        q = order[idx]
        orbit = []
        for j in order[idx + 1:]:
            if pattern.degree(j) == pattern.degree(q):
                masks[q] = 1 << j
                if _search(pattern, pattern, 1, initial=masks):
                    orbit.append(j)
        cuts.append(tuple(orbit))
    return cuts


def _orbit_least(gens: Sequence[Mapping[int, int]], n: int) -> int:
    """The mask of the host vertices 0..n-1 that are the least of their orbit
    under the group generated by ``gens``, each given by its moves.  One
    array union-find with path halving over the moved vertices, with the
    lowest id as each root; a vertex no generator moves is its own orbit, so
    the mask drops only the moved vertices that are not roots, each as one
    digit of the mask's binary text rather than one big-int update."""
    parent = list(range(n))
    for moves in gens:
        for a, b in moves.items():
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    # one '1' digit per vertex, highest id first, cleared at each moved non-root
    digits = bytearray(b"1") * n
    for moves in gens:
        for x in moves:
            if parent[x] != x:
                digits[n - 1 - x] = 48
    return int(digits, 2) if n else 0


def _search(
    pattern: Graph,
    host: Graph,
    limit: int | None,
    initial: Sequence[int] | None = None,
    generators: Sequence[Mapping[int, int]] = (),
) -> list[Embedding]:
    """Induced embeddings in search order, stopping after ``limit``.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    ``generators`` are host automorphisms, each given by its moves; with
    them and no ``initial`` the search is orbit-rooted (see the module
    docstring), which keeps the first embedding but not the ones after it.
    A first-hit search with neither is rooted by the host's block rotation,
    if it has one, once its lowest root fails.
    """
    k, n = pattern.n, host.n
    if k == 0:
        return [Embedding(())]
    if k > n:
        return []
    plan = _plan(pattern)
    order, steps, kids = plan.order, plan.steps, plan.kids
    cuts = plan.cuts() if limit == 1 and initial is None else [()] * k
    hrow = host._rows
    full = (1 << n) - 1
    # degree base: one mask of the host vertices of degree >= d per distinct
    # d, read off the host's degree table
    classes = core.degree_classes(host)
    at_least = {d: sum(m for dx, m in classes.items() if dx >= d) for d in set(plan.degrees)}
    base = [at_least[d] for d in plan.degrees]
    if initial is not None:
        base = [m & init for m, init in zip(base, initial)]
    # host vertex h -> its check row, built when h is first placed: for step
    # tags 0, 1 and 2, every non-neighbour of h other than h, N(h), and the
    # vertices at distance 2 from h
    checks: dict[int, tuple[int, int, int]] = {}
    mapping = [-1] * k
    found: list[Embedding] = []
    # orbit rooting: generator i moves something, and fixing[h] has bit i iff
    # it fixes h; least[sub] masks the least vertex of each orbit of the
    # group the generators in ``sub`` generate, built once per distinct sub
    gens = [moves for moves in generators if moves] if initial is None else []
    every = (1 << len(gens)) - 1
    fixing = [every] * n if gens else []
    for i, moves in enumerate(gens):
        for x in moves:
            fixing[x] &= ~(1 << i)
    least: dict[int, int] = {}

    def least_of(sub: int) -> int:
        m = least.get(sub)
        if m is None:
            m = least[sub] = _orbit_least([gens[i] for i in bits(sub)], n)
        return m

    def place(idx: int, cand: list[int], sub: int, m: int) -> bool:
        """Try each host vertex of ``m`` as the image of order[idx]; ``sub``
        masks the generators that fix every vertex placed before it."""
        q = order[idx]
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
            fc = checks.get(h)
            if fc is None:
                near = hrow[h]
                apart = full ^ near ^ low
                fc = checks[h] = (apart, near, nbhd(host, near) & apart)
            nxt = cand[:]
            for r in cuts[idx]:
                nxt[r] &= -(low << 1)  # ids above h
            ok = True
            for r, t in steps[idx]:
                c = nxt[r] & fc[t]
                if c == 0:
                    ok = False
                    break
                nxt[r] = c
            if ok and kids[idx]:
                # (d): the later neighbours of q need distinct images
                union = 0
                for r in kids[idx]:
                    union |= nxt[r]
                ok = union.bit_count() >= len(kids[idx])
            if ok:
                mapping[q] = h
                c = nxt[order[idx + 1]]
                below = sub and sub & fixing[h]
                if place(idx + 1, nxt, below, c & least_of(below) if below else c):
                    return True
                mapping[q] = -1
        return False

    roots = base[order[0]] & least_of(every) if gens else base[order[0]]
    if gens or initial is not None or limit != 1:
        place(0, base, every, roots)
        return found
    # (c): the lowest root, then the rest, rooted by a block rotation if the
    # host has one; see the module docstring
    lowest = roots & -roots
    if lowest and not place(0, base, 0, lowest):
        rest = roots ^ lowest
        rotated = core.rotation_roots(host)
        place(0, base, 0, rest if rotated is None else rest & rotated)
    return found


def find_induced(
    pattern: Graph, host: Graph, generators: Sequence[Mapping[int, int]] = ()
) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None.

    ``generators`` (host automorphisms, each a dict from every vertex it
    moves to its image, such as ``FamilyGraph.generators``) make the search
    try one host vertex per orbit; without them the search roots itself by
    the host's block rotation, if it has one, once its lowest root fails.
    Neither changes the result.
    """
    out = _search(capped(pattern), host, limit=1, generators=generators)
    return out[0] if out else None


def capped(pattern: Graph) -> Graph:
    """``pattern`` itself; CapacityError when it has more than PATTERN_CAP vertices."""
    if pattern.n > PATTERN_CAP:
        raise CapacityError(f"pattern has {pattern.n} > {PATTERN_CAP} vertices")
    return pattern


def find_all_induced(pattern: Graph, host: Graph, limit: int | None = None) -> list[Embedding]:
    """Every induced embedding (up to ``limit``), in deterministic order."""
    return _search(capped(pattern), host, limit=limit)


def is_free(host: Graph, pattern: Graph, generators: Sequence[Mapping[int, int]] = ()) -> bool:
    """True iff ``host`` contains no induced copy of ``pattern``; ``generators``
    as in ``find_induced``."""
    return find_induced(pattern, host, generators) is None


def verify_embedding(pattern: Graph, host: Graph, mapping: Embedding | Sequence[int]) -> bool:
    """Check injectivity plus the induced condition, edge for edge."""
    img = list(mapping.mapping if isinstance(mapping, Embedding) else mapping)
    if len(img) != pattern.n or len(set(img)) != len(img):
        return False
    if any(not 0 <= h < host.n for h in img):
        return False
    for a in range(pattern.n):
        for b in range(a + 1, pattern.n):
            if pattern.has_edge(a, b) != host.has_edge(img[a], img[b]):
                return False
    return True


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism: an induced embedding of g onto h that keeps degrees.

    The search starts from the degree classes; its forward checks (adjacent,
    shared neighbour, apart) do the refining.  Both graphs share the pattern
    cap: CapacityError when either has more than PATTERN_CAP vertices, and
    g's plan comes from the plan cache."""
    for which, x in (("first", g), ("second", h)):
        if x.n > PATTERN_CAP:
            raise CapacityError(f"is_isomorphic's {which} input has {x.n} > {PATTERN_CAP} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    cg, ch = core.degree_classes(g), core.degree_classes(h)
    if {d: m.bit_count() for d, m in cg.items()} != {d: m.bit_count() for d, m in ch.items()}:
        return False
    return bool(_search(g, h, limit=1, initial=[ch[g.degree(v)] for v in range(g.n)]))
