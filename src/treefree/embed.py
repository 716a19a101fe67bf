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
the same verdict whatever prunings ran.  A first-hit search (``limit == 1``)
without ``initial`` masks is rooted and runs all three prunings.  Any other
search (an enumeration, ``is_isomorphic``, the orbit checks of (a)) runs
only those that keep every embedding: the forward checks, which no
embedding fails, and (c).  The three prunings:

(a) Symmetry breaking, in rooted searches.  For each idx >= 1 the plan
holds the orbit of order[idx] under the pattern automorphisms that fix
order[:idx] pointwise.  Once order[idx] lands on host vertex h, every other
vertex of that orbit is cut to ids above h: a lex-leader condition
(Crawford, Ginsberg, Luks and Roy, KR 1996; Grochow and Kellis, RECOMB
2007).  If f* broke the cut at orbit vertex j, the automorphism tau that
fixes order[:idx] and maps order[idx] to j would make f* o tau an embedding
that agrees with f* on the prefix and is smaller at idx.  Each orbit member
is confirmed by one pattern-to-pattern search with singleton ``initial``
masks, so Aut(P) is never listed (a 15-leaf star has 15! automorphisms),
and the orbits are built the first time a pattern serves a rooted search.
With ``initial`` masks, f* o tau may leave the masks, so they turn the cuts
off.

(b) Orbit rooting, in rooted searches: the host-side lex-leader condition.
Let H_d be a group of host automorphisms that fix f*(order[:d]) pointwise,
and y = f*(order[d]).  For g in H_d, g o f* is an embedding that agrees
with f* on the prefix, so g(y) >= y: y is the least vertex of its
H_d-orbit, and cutting the candidates for order[d] to the orbit leasts
keeps f* whatever else the candidate mask holds.  The symmetry has two
sources.  Host automorphism ``generators`` (the family constructors supply
them) are each given by its moves, a dict from each vertex it moves to its
image, with every vertex it leaves out fixed, so the search reads the
moved vertices off the keys and never scans a full-length permutation.
The search numbers the generators that move some vertex, and ``fixing[h]``
masks those that fix host vertex h.  Each node carries ``sub``, its
parent's ``sub & fixing[h]``: the generators that fix every host vertex
placed so far, which generate H_d.  ``least[sub]`` masks the orbit leasts,
built by ``core.orbits`` once per distinct ``sub`` and search; its array
union-find keeps that table O(n) for a rotation, which moves every vertex
and so roots only the first placement (gp(n): 2 roots of 2n).  Once no
generator fixes a branch's prefix (``sub`` is 0), the branch is searched in
full.  Without generators, H_0 is generated by the host's block rotation
sigma, which ``core.rotation_roots`` detects if the host has one; sigma
moves every vertex, so it roots only the first placement and every branch
below a root is searched in full.  A host without a rotation takes the
transpositions of adjacent id blocks that ``core.block_swaps`` detects as
its generators: the copy swaps of h1, h2 and h4 read back from graph6,
which then root at every depth as the family generators do.  A host with
neither, such as a relabelled gp(n) or h2(s), has every root tried.

Every rooted search places its lowest root (the least candidate for q0 =
order[0]) first.  The candidates for q0 are every host vertex of degree at
least deg(q0), a set each automorphism keeps, so the lowest root is the
least of its orbit under any group and survives any cut.  Only when it has
no embedding are the other roots cut: to ``least[every]`` with generators,
to the mask ``core.rotation_roots`` returns without, and, with no rotation
either, to ``least[every]`` over the detected swaps, which then cut every
later placement as passed generators do.  The lowest root itself was
searched with no generator below it, which keeps f* too.  That spares
detection on hosts that embed the pattern at the lowest root, as most
``scan`` records do, never detects when generators are passed, and costs a
generator-rooted search one more call of ``place`` at level 0.

(c) Sibling pigeonhole, in every search.  The search keeps a pattern
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
(b)'s premise that a searched lowest root has no embedding.  It reads the
masks after (a)'s cuts and the ``initial`` masks are applied, so it drops
nothing those keep; (b) cuts only the candidates of the next vertex to
place, so the union there is over supersets and the cut stays sound.  The
search for S8:0001 in h2(3) without generators (which finds none, its plan
built) visits 688 nodes (calls of ``place``) with the cut against 2908
without it, and with the block swaps hidden as well, 4420 against 17090.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from . import core
from .core import Graph, bits, nbhd
from .errors import CapacityError

PATTERN_CAP = 16
PLAN_CACHE = 256


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


def _search(
    pattern: Graph,
    host: Graph,
    limit: int | None,
    initial: Sequence[int] | None = None,
    generators: Sequence[Mapping[int, int]] = (),
) -> list[tuple[int, ...]]:
    """Induced embeddings in search order, stopping after ``limit``; entry q
    of each is the host vertex pattern vertex q maps to.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    A first-hit search without ``initial`` is rooted (see the module
    docstring): it is orbit-rooted by the host automorphism ``generators``,
    each given by its moves, or without them, once its lowest root fails,
    by the host's block rotation, or failing that by its block swaps, if it
    has either.  Any other search ignores ``generators``.
    """
    k, n = pattern.n, host.n
    if k == 0:
        return [()]
    if k > n:
        return []
    rooted = limit == 1 and initial is None
    plan = _plan(pattern)
    order, steps, kids = plan.order, plan.steps, plan.kids
    cuts = plan.cuts() if rooted else [()] * k
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
    found: list[tuple[int, ...]] = []
    # orbit rooting: generator i moves something, and fixing[h] has bit i iff
    # it fixes h; least[sub] masks the least vertex of each orbit of the
    # group the generators in ``sub`` generate, built once per distinct sub
    gens: list[Mapping[int, int]] = []
    fixing: list[int] = []
    least: dict[int, int] = {}

    def number(generators: Sequence[Mapping[int, int]]) -> int:
        """Number the ``generators`` that move something; the mask of them all."""
        gens[:] = [moves for moves in generators if moves]
        least.clear()
        every = (1 << len(gens)) - 1
        fixing[:] = [every] * n if gens else []
        for i, moves in enumerate(gens):
            for x in moves:
                fixing[x] &= ~(1 << i)
        return every

    def least_of(sub: int) -> int:
        m = least.get(sub)
        if m is None:
            m = least[sub] = core.orbits([gens[i] for i in bits(sub)], n)[0]
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
                found.append(tuple(mapping))
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
                # (c): the later neighbours of q need distinct images
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

    every = number(generators) if rooted else 0
    roots = base[order[0]]
    if rooted and roots:
        # (b): the lowest root, then the rest cut to the least of each orbit
        lowest = roots & -roots
        if place(0, base, every, lowest):
            return found
        roots ^= lowest
        if not gens:
            rotation = core.rotation_roots(host)
            if rotation is not None:
                roots &= rotation
            else:
                every = number(core.block_swaps(host))
        if gens:
            roots &= least_of(every)
    place(0, base, every, roots)
    return found


def find_induced(
    pattern: Graph, host: Graph, generators: Sequence[Mapping[int, int]] = ()
) -> tuple[int, ...] | None:
    """First induced embedding of ``pattern`` in ``host``, or None; entry q is
    the host vertex pattern vertex q maps to.

    Once its lowest root fails, the search tries one host vertex per orbit
    of the host automorphism ``generators`` that fix the vertices placed so
    far (each a dict from every vertex it moves to its image; a raw list is
    trusted, ``NamedGraph.generators`` were checked when their record was
    made).  Without them it tries one root per orbit of the host's block
    rotation, if it has one, or else its block swaps (``core.block_swaps``)
    as generators.  None of these changes the result.
    """
    out = _search(capped(pattern), host, limit=1, generators=generators)
    return out[0] if out else None


def capped(pattern: Graph) -> Graph:
    """``pattern`` itself; CapacityError when it has more than PATTERN_CAP vertices."""
    if pattern.n > PATTERN_CAP:
        raise CapacityError(f"pattern has {pattern.n} > {PATTERN_CAP} vertices")
    return pattern


def find_all_induced(pattern: Graph, host: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """Every induced embedding (up to ``limit``), in deterministic order."""
    return _search(capped(pattern), host, limit=limit)


def is_free(host: Graph, pattern: Graph, generators: Sequence[Mapping[int, int]] = ()) -> bool:
    """True iff ``host`` contains no induced copy of ``pattern``; ``generators``
    as in ``find_induced``."""
    return find_induced(pattern, host, generators) is None


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
