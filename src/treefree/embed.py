"""Induced-subgraph containment, embedding enumeration, and isomorphism.

One search core serves all three.  Each pattern is compiled once into a
plan (``_plan``, a bounded cache keyed by the pattern): a connected
placement order (max-degree first), the pattern's distances, and the
forward checks each placement makes.  The search places pattern vertices in
that order and forward-checks candidate bitmasks against every placed
image: adjacency, non-adjacency, and a distance filter (an induced image can
only shrink distances, so the image of q lies within pattern-distance of
the image of p).  Each check is one AND with one entry of the placed host
vertex h's check row, picked by the pattern distance d from p to q: N(h)
for d = 1, B(h,d) minus N[h] for d >= 2 (B(h,d) the host ball of radius d
around h), and every non-neighbour of h for q in another component.  A
check row is built only when the search first places its host vertex, from
balls grown by ``core.balls`` or read from prebuilt ``levels``, such as the
ball levels ``core.diameter`` keeps, which are the same masks.  Candidates are
scanned in ascending host id, so the search meets embeddings f in
lexicographic order of (f(order[0]), f(order[1]), ...).  Isomorphism is an
induced embedding between graphs of equal order and size, started from the
degree classes.

One invariant: every pruning keeps the lex-least embedding f*.  The search
meets embeddings in lex order and reports only embeddings, so the first one
it reports is f*: ``find_induced`` returns the same witness and ``is_free``
the same verdict whatever prunings ran.  An enumeration
(``find_all_induced`` with any limit but 1) runs only the prunings that
keep every embedding: the forward checks, which no embedding fails, (c)
and (d).  The four prunings:

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
family constructors supply them, and ``theorem --which diam`` passes the
host's block rotation from ``families.block_rotation``) and no ``initial``
masks.  Each generator is given by its moves, a dict from each vertex it
moves to its image, with every vertex it leaves out fixed, so the search
reads the moved vertices off the keys and never scans a full-length
permutation.  The search numbers the generators that move some vertex, and
``fixing[h]`` masks those that fix host vertex h.  Each node carries
``sub``, its parent's ``sub & fixing[h]``: the generators that fix every
host vertex placed so far.  Let H_d be the group they generate at depth d.
The candidates there are cut to ``least[sub]``, the vertices that are the
least of their H_d-orbit, a mask ``_orbit_least`` builds once per distinct
``sub`` and search.  A rotation moves every vertex, so it roots only the
first placement (gp(n): 2 roots of 2n), and ``_orbit_least``'s array
union-find keeps that table O(n).  Let y = f*(order[d]).  For g in H_d, g o
f* is an embedding that agrees with f* on the prefix, so g(y) >= y: y is
the least vertex of its whole H_d-orbit, and the cut keeps it whatever the
rest of the candidate mask holds.  Once no generator fixes a branch's
prefix (``sub`` is 0), the branch is searched in full.

(c) Roots certified by translation.  Let q0 = order[0] and R >= 1 its
eccentricity in the pattern.  When the pattern is connected, has an edge,
and no ``initial`` masks are given, each root x (the image of q0) is keyed
by (x - lo, B(x,R) >> lo), with lo the lowest id in B(x,R), the check row's
entry R joined with N[x].  A ball read from ``levels`` is the mask
``core.balls`` grows, so the keys, the tests below and the argument are the
same whichever source built it.  A root y is skipped when, for an earlier
root x of its key with no embedding, one of two certificates shows that
the shift s: v -> v + (y - x) keeps every edge and non-edge inside B(x,R):

- the mask test, against the latest such x of the key, searched or skipped:
  B(x,R) & defect(y - x) == 0, where defect(t) masks every v with v + t >= n
  or row(v) << t != row(v + t), built in O(n) once per distinct shift and
  search;
- failing that, the row test, against each searched x of the key: for every
  v in B(x,R), (row(v) & B(x,R)) << (y - x) == row(v + y - x) & B(y,R).

An equal key makes B(y,R) = B(x,R) << (y - x), so the mask test implies the
row test: row(v) << t == row(v + t) gives (row(v) & B(x,R)) << t ==
(row(v) << t) & (B(x,R) << t) == row(v + t) & B(y,R).  Where the mask
test fails the row test runs against every searched root of the key, so the
memo skips at least the roots the row test alone would skip.  This is sound.  First, no embedding sends q0 to x.  For a searched
x, its empty search proves it: the least embedding f_x among those that do
would survive (a), whose tau fixes order[0], and (b), whose H_d fixes x for
d >= 1, as in the arguments above.  For a skipped x it holds by induction
on the roots in ascending order.  Second, s is an isomorphism between the
induced balls taking x to y.  Any embedding f with f(q0) = y lies inside
B(y,R): the pattern is connected, and the image of a pattern path is a host
walk no longer than the path.  So s^-1 o f would send q0 to x; hence no
embedding maps q0 to y either.  Skipped roots have no embeddings, so the
first witness, ``find_all_induced`` and its order do not change.  A
disconnected pattern may put a component outside every ball, ``initial``
masks are not shift-invariant, and a one-vertex pattern embeds at every
root, so all three turn the memo off.  The key is one big-int compare that
rejects most non-translates; canonical ball codes would also match
relabelled balls but cost more per root than they save.  How often a root
is skipped depends on the labelling: gp(n) and h3(s) as the constructors
label them (and as ``treefree gen`` writes them) skip most failing roots,
nearly all by the mask test at shift 1 (gp) or 14 (h3), while a relabelled
host keeps its verdicts and witnesses but loses the gain.

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
to the one group where it is cheap and sharp: after the checks the kids'
masks lie inside N(h), so it fires when host degrees are close to pattern
degrees, as on sparse min-degree-3 hosts.  It removes only subtrees with no
embedding, so it keeps f*, every enumeration and its order, and (c)'s
premise that a searched root has no embedding.  It reads the masks after
(a)'s cuts and the ``initial`` masks are applied, so it drops nothing those
keep; (b) cuts only the candidates of the next vertex to place, so the
union there is over supersets and the cut stays sound.  The search for
S8:0001 in h2(3) without generators (which finds none) visits 4464 nodes
(calls of ``place``) with the cut against 17134 without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .core import Graph, balls, bfs_levels, bits
from .errors import CapacityError

PATTERN_CAP = 16
ISO_CAP = 64
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

    __slots__ = ("pattern", "order", "pdist", "maxr", "steps", "kids", "degrees", "_cuts")

    def __init__(self, pattern: Graph):
        self.pattern = pattern
        self.order = order = _search_order(pattern)
        self.pdist = pdist = [bfs_levels(pattern, v) for v in range(pattern.n)]
        self.maxr = max(max(row) for row in pdist)
        # steps[idx]: the forward checks made once order[idx] is placed, as
        # (r, pattern distance from order[idx] to r) pairs; each reads that
        # entry of the placed host vertex's check row (see ``_search``)
        self.steps = [[(r, pdist[q][r]) for r in order[idx + 1:]] for idx, q in enumerate(order)]
        # kids[idx]: the later neighbours of order[idx] when there are two or
        # more, else (); pruning (d) reads their masks
        self.kids = [kids if len(kids) > 1 else () for kids in
                     (tuple(r for r, d in step if d == 1) for step in self.steps)]
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


def _defect(hrow: list[int], shift: int) -> int:
    """The mask of the host vertices v whose row v -> v + shift does not carry
    onto row(v + shift): v + shift >= n, or row(v) << shift != row(v + shift)."""
    n = len(hrow)
    top = n - shift
    defect = ((1 << n) - 1) ^ ((1 << top) - 1)
    for v in range(top):
        if hrow[v] << shift != hrow[v + shift]:
            defect |= 1 << v
    return defect


def _certified(hrow: list[int], defects: dict[int, int], ball: int, y: int, latest: int,
               failed: list[int]) -> bool:
    """True iff root y, whose ball of radius R is ``ball``, is certified a
    translate of an earlier root: of ``latest`` by one defect-mask test, or
    else of a root in ``failed`` by the row test.  ``defects`` keeps the
    search's defect masks by shift."""
    shift = y - latest
    defect = defects.get(shift)
    if defect is None:
        defect = defects[shift] = _defect(hrow, shift)
    return ball >> shift & defect == 0 or any(
        _is_translate(hrow, ball >> (y - x), y - x, ball) for x in failed)


def _is_translate(hrow: list[int], ball: int, shift: int, image: int) -> bool:
    """True iff v -> v + shift keeps every edge and non-edge inside ``ball``,
    given that ``image`` is ``ball`` shifted by ``shift``."""
    rest = ball
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if (hrow[v] & ball) << shift != hrow[v + shift] & image:
            return False
    return True


def _search(
    pattern: Graph,
    host: Graph,
    limit: int | None,
    initial: Sequence[int] | None = None,
    generators: Sequence[Mapping[int, int]] = (),
    levels: Sequence[Sequence[int]] | None = None,
) -> list[Embedding]:
    """Induced embeddings in search order, stopping after ``limit``.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    ``generators`` are host automorphisms, each given by its moves; with
    them and no ``initial`` the search is orbit-rooted (see the module
    docstring), which keeps the first embedding but not the ones after it.  ``levels[r][h]``, when given, is
    the host ball of radius r around h for r up to at least
    ``ball_radius(pattern)``, as ``core.diameter`` keeps them; without them
    the balls are grown by ``core.balls``.
    """
    k, n = pattern.n, host.n
    if k == 0:
        return [Embedding(())]
    if k > n:
        return []
    # isomorphism inputs above the pattern cap are planned afresh: a 64-vertex
    # plan holds ~160 KB of forward checks
    plan = _plan(pattern) if k <= PATTERN_CAP else _Plan(pattern)
    order, steps, kids, maxr, pdist = plan.order, plan.steps, plan.kids, plan.maxr, plan.pdist
    cuts = plan.cuts() if limit == 1 and initial is None else [()] * k
    hrow = [host.row(x) for x in range(n)]
    full = (1 << n) - 1
    # degree base: one mask of the host vertices of degree >= d per distinct d
    of_degree: dict[int, int] = {}
    for x, row in enumerate(hrow):
        dx = row.bit_count()
        of_degree[dx] = of_degree.get(dx, 0) | 1 << x
    at_least = {d: sum(m for dx, m in of_degree.items() if dx >= d) for d in set(plan.degrees)}
    base = [at_least[d] for d in plan.degrees]
    if initial is not None:
        base = [m & init for m, init in zip(base, initial)]
    # host vertex h -> its check row, built when h is first placed: entry d
    # masks the candidates for a pattern vertex at pattern distance d from
    # the one on h.  Entry 1 is N(h), entry d >= 2 is B(h,d) - N[h], and the
    # last entry, read for d = -1 (another component), is every non-neighbour
    # of h.  With no edge in the pattern (maxr 0) that last entry is entry 1.
    checks: dict[int, list[int]] = {}
    if levels is not None and len(levels) <= maxr:
        raise ValueError(f"ball levels end at radius {len(levels) - 1}, the pattern needs {maxr}")
    top = None if levels is None else levels[:maxr + 1]

    def check_row(h: int) -> list[int]:
        apart = full & ~hrow[h] & ~(1 << h)
        if top is None:
            row = [ball & apart for ball in balls(host, 1 << h, maxr)]
        else:
            row = [level[h] & apart for level in top]
        row.append(apart)
        if maxr:
            row[1] = hrow[h]
        return row

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
                fc = checks[h] = check_row(h)
            nxt = cand[:]
            for r in cuts[idx]:
                nxt[r] &= -(low << 1)  # ids above h
            ok = True
            for r, d in steps[idx]:
                c = nxt[r] & fc[d]
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

    q0 = order[0]
    roots = base[q0] & least_of(every) if gens else base[q0]
    if initial is not None or min(pdist[q0]) < 0 or not maxr:
        place(0, base, every, roots)
        return found
    # roots certified by translation; see the module docstring
    radius = max(pdist[q0])
    latest: dict[tuple[int, int], int] = {}  # key -> latest root with no embedding
    failed: dict[tuple[int, int], list[int]] = {}  # key -> searched roots with none
    defects: dict[int, int] = {}
    for h in bits(roots):
        fc = checks.get(h)
        if fc is None:
            fc = checks[h] = check_row(h)
        ball = fc[radius] | hrow[h] | 1 << h  # B(h, radius), radius >= 1
        lo = (ball & -ball).bit_length() - 1
        key = (h - lo, ball >> lo)
        x = latest.get(key)
        if x is not None and _certified(hrow, defects, ball, h, x, failed[key]):
            latest[key] = h
            continue
        before = len(found)
        if place(0, base, every, 1 << h):
            break
        if len(found) == before:
            latest[key] = h
            failed.setdefault(key, []).append(h)
    return found


def find_induced(
    pattern: Graph,
    host: Graph,
    generators: Sequence[Mapping[int, int]] = (),
    *,
    levels: Sequence[Sequence[int]] | None = None,
) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None.

    ``generators`` (host automorphisms, each a dict from every vertex it
    moves to its image, such as ``FamilyGraph.generators``) make the search
    try one host vertex per orbit; ``levels`` (the host's
    ball levels up to ``ball_radius(pattern)``, from ``core.diameter``) spare
    it the ball growing.  Neither changes the result.
    """
    out = _search(capped(pattern), host, limit=1, generators=generators, levels=levels)
    return out[0] if out else None


def ball_radius(pattern: Graph) -> int:
    """The largest host ball radius a search for ``pattern`` reads: the
    pattern's diameter, from its plan."""
    return _plan(capped(pattern)).maxr if pattern.n else 0


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


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism: an induced embedding of g onto h that keeps degrees.

    The search starts from the degree classes; its adjacency forward checks
    and distance filter do the refining."""
    if g.n > ISO_CAP or h.n > ISO_CAP:
        raise CapacityError(f"isomorphism cap is {ISO_CAP} vertices")
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    dg = [g.degree(v) for v in range(g.n)]
    dh = [h.degree(x) for x in range(h.n)]
    if sorted(dg) != sorted(dh):
        return False
    classes: dict[int, int] = {}
    for x, d in enumerate(dh):
        classes[d] = classes.get(d, 0) | 1 << x
    return bool(_search(g, h, limit=1, initial=[classes[d] for d in dg]))
