"""Induced-subgraph containment, embedding enumeration, and isomorphism.

One search core serves all three.  Each pattern is compiled once into a
plan (``_plan``, a bounded cache keyed by the pattern): a connected
placement order (max-degree first), the pattern's distances, and the
forward checks each placement makes.  The search places pattern vertices in
that order and forward-checks candidate bitmasks: adjacency and
non-adjacency against every placed image, plus a distance filter (an
induced image can only shrink distances, so the image of q lies within
pattern-distance of the image of p).  A host vertex's distance balls are
built only when the search first places it: grown by ``core.balls``, or
read from prebuilt ``levels``, such as the ball levels ``core.diameter``
keeps, which are the same masks.  Candidates are
scanned in ascending host id, so the search meets embeddings f in
lexicographic order of (f(order[0]), f(order[1]), ...).  Isomorphism is an
induced embedding between graphs of equal order and size, started from the
color-refinement classes.

One invariant: every pruning keeps the lex-least embedding f*.  The search
meets embeddings in lex order and reports only embeddings, so the first one
it reports is f*: ``find_induced`` returns the same witness and ``is_free``
the same verdict whatever prunings ran.  An enumeration
(``find_all_induced`` with any limit but 1) runs only the prunings that
keep every embedding: the forward checks, which no embedding fails, and
(c).  The three prunings:

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
family constructors supply them) and no ``initial`` masks.  At depth d the
search tries only the lowest candidate of each orbit of H_d, the group
generated by the generators that fix every host vertex placed so far.  Let
y = f*(order[d]).  For g in H_d, g o f* is an embedding that agrees with f*
on the prefix, so g(y) >= y: y is the least vertex of its H_d-orbit.  The
candidate mask need not be H_d-invariant (the cuts of (a) are not), and
``_orbit_reps`` keeps y anyway, because y's union-find root is the least
vertex of a part of that orbit that contains y.  Once no generator fixes a
branch's prefix, the branch is searched in full.

(c) Failed roots certified by translation.  Let q0 = order[0] and R its
eccentricity in the pattern.  When the pattern is connected and no
``initial`` masks are given, a root x (the image of q0) whose search ends
with no embedding is recorded under the key (x - lo, B(x,R) >> lo), where
B(x,R) is the host ball of radius R around x and lo its lowest id.  A ball
read from ``levels`` is the mask ``core.balls`` grows, so the keys, the row
test below and the argument are the same whichever source built it.  A later
root y with the same key is skipped if, for every v in B(x,R),
(row(v) & B(x,R)) << (y - x) == row(v + y - x) & B(y,R).  This is sound.
First, x's empty search proves that no embedding sends q0 to x: the least
embedding f_x among those that do would survive (a), whose tau fixes
order[0], and (b), whose H_d fixes x for d >= 1, as in the arguments above.
Second, an equal key makes B(y,R) the shift of B(x,R), and the row test
makes the shift s: v -> v + y - x keep every edge and non-edge inside it,
so s is an isomorphism between the induced balls taking x to y.  Any
embedding f with f(q0) = y lies inside B(y,R): the pattern is connected,
and the image of a pattern path is a host walk no longer than the path.
So s^-1 o f would send q0 to x; hence no embedding maps q0 to y either.
Skipped roots have no embeddings, so the first witness,
``find_all_induced`` and its order do not change.  A disconnected pattern
may put a component outside every ball, and ``initial`` masks are not
shift-invariant, so both turn the memo off.  The key is one big-int compare
that rejects most non-translates; canonical ball codes would also match
relabelled balls but cost more per root than they save.  How often a root
is skipped depends on the labelling: gp(n) and h3(s) as the constructors
label them (and as ``treefree gen`` writes them) skip most failing roots,
while a relabelled host keeps its verdicts and witnesses but loses the gain.
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


class _Plan:
    """What a search needs from a non-empty pattern alone; see ``_plan``."""

    __slots__ = ("pattern", "order", "pdist", "maxr", "steps", "degrees", "_cuts")

    def __init__(self, pattern: Graph):
        self.pattern = pattern
        self.order = order = _search_order(pattern)
        self.pdist = pdist = [bfs_levels(pattern, v) for v in range(pattern.n)]
        self.maxr = max(max(row) for row in pdist)
        # steps[idx]: the forward checks made once order[idx] is placed.  A
        # pattern distance of -1 (another component) indexes the last ball
        # row, which is the whole host: no distance bound.
        self.steps = [[(r, pattern.has_edge(q, r), pdist[q][r]) for r in order[idx + 1:]]
                      for idx, q in enumerate(order)]
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


def _orbit_reps(mask: int, gens: list[tuple[tuple[int, ...], int]]) -> int:
    """``mask`` cut to its union-find roots under the group ``gens`` generate.

    ``gens`` holds (permutation, support mask) pairs.  Union-find runs over
    the candidates some generator moves and their images, with the lowest id
    as each root; the other candidates are fixed points and stay.  Every
    part lies inside one orbit, so a candidate that is the least vertex of
    its whole orbit is always kept, whether or not ``mask`` is invariant
    under the group.
    """
    moved = 0
    for _, support in gens:
        moved |= support
    todo = mask & moved
    if not todo:
        return mask
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for perm, support in gens:
        for x in bits(todo & support):
            a, b = find(x), find(perm[x])
            if a != b:
                parent[max(a, b)] = min(a, b)
    reps = mask & ~moved
    for x in bits(todo):
        if parent.get(x, x) == x:
            reps |= 1 << x
    return reps


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
    generators: Sequence[Sequence[int]] = (),
    levels: Sequence[Sequence[int]] | None = None,
) -> list[Embedding]:
    """Induced embeddings in search order, stopping after ``limit``.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    ``generators`` are host automorphisms; with them and no ``initial`` the
    search is orbit-rooted (see the module docstring), which keeps the first
    embedding but not the ones after it.  ``levels[r][h]``, when given, is
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
    # plan holds ~185 KB of forward checks
    plan = _plan(pattern) if k <= PATTERN_CAP else _Plan(pattern)
    order, steps, maxr, pdist = plan.order, plan.steps, plan.maxr, plan.pdist
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
    # host vertex h -> [ball_0, ..., ball_maxr, full], ball_r = within r of h
    ball_rows: dict[int, list[int]] = {}
    if levels is None:
        def ball_row(h: int) -> list[int]:
            return balls(host, 1 << h, maxr) + [full]
    else:
        if len(levels) <= maxr:
            raise ValueError(f"ball levels end at radius {len(levels) - 1}, the pattern needs {maxr}")
        top = levels[:maxr + 1]

        def ball_row(h: int) -> list[int]:
            return [level[h] for level in top] + [full]
    mapping = [-1] * k
    found: list[Embedding] = []
    # (permutation, support mask) per generator that moves something
    gens = []
    if initial is None:
        for perm in generators:
            support = sum(1 << x for x, y in enumerate(perm) if x != y)
            if support:
                gens.append((tuple(perm), support))

    def place(idx: int, cand: list[int], gens: list, m: int) -> bool:
        """Try each host vertex of ``m`` as the image of order[idx]."""
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
            rows = ball_rows.get(h)
            if rows is None:
                rows = ball_rows[h] = ball_row(h)
            adj = hrow[h]
            nonadj = full & ~adj & ~low
            nxt = cand[:]
            for r in cuts[idx]:
                nxt[r] &= -(low << 1)  # ids above h
            ok = True
            for r, is_adj, d in steps[idx]:
                c = nxt[r] & adj if is_adj else nxt[r] & nonadj & rows[d]
                if c == 0:
                    ok = False
                    break
                nxt[r] = c
            if ok:
                mapping[q] = h
                # below h: the generators that fix every placed vertex, h included
                sub = [g for g in gens if not g[1] >> h & 1] if gens else gens
                c = nxt[order[idx + 1]]
                if place(idx + 1, nxt, sub, _orbit_reps(c, sub) if sub else c):
                    return True
                mapping[q] = -1
        return False

    q0 = order[0]
    roots = _orbit_reps(base[q0], gens) if gens else base[q0]
    if initial is not None or min(pdist[q0]) < 0:
        place(0, base, gens, roots)
        return found
    # failed roots by translation key; see the module docstring
    radius = max(pdist[q0])
    failed: dict[tuple[int, int], list[int]] = {}
    for h in bits(roots):
        rows = ball_rows.get(h)
        if rows is None:
            rows = ball_rows[h] = ball_row(h)
        ball = rows[radius]
        lo = (ball & -ball).bit_length() - 1
        shaped = failed.setdefault((h - lo, ball >> lo), [])
        if any(_is_translate(hrow, ball >> (h - x), h - x, ball) for x in shaped):
            continue
        before = len(found)
        if place(0, base, gens, 1 << h):
            break
        if len(found) == before:
            shaped.append(h)
    return found


def find_induced(
    pattern: Graph,
    host: Graph,
    generators: Sequence[Sequence[int]] = (),
    *,
    levels: Sequence[Sequence[int]] | None = None,
) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None.

    ``generators`` (host automorphisms, such as ``FamilyGraph.generators``)
    make the search try one host vertex per orbit; ``levels`` (the host's
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


def is_free(host: Graph, pattern: Graph, generators: Sequence[Sequence[int]] = ()) -> bool:
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
