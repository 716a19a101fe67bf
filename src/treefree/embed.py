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

Orbit rooting.  ``is_free`` may be given host automorphism generators (the
family constructors supply them).  At depth d the search then tries only
the lowest vertex of each orbit of H_d inside the candidate mask, where H_d
is the group generated by the generators that fix every host vertex placed
so far.  This is sound for existence.  H_d fixes the prefix pointwise, and
the candidate mask is H_d-invariant: it is built from the degree base and
from the adjacency rows, non-adjacency rows and distance balls of placed
vertices, and an automorphism fixing those vertices preserves every one of
them.  So if an embedding extends the prefix through candidate y, and g in
H_d maps y to its orbit's lowest vertex x, then g composed with that
embedding is an embedding that extends the same prefix through x.  Once no
generator fixes a branch's prefix, the branch is searched in full.  Rooting
skips embeddings, so it serves only the yes/no question: ``find_induced``,
``find_all_induced`` and ``is_isomorphic`` search every candidate.

Failed roots certified by translation.  Let q0 be the first pattern vertex
placed and R its eccentricity in the pattern.  When the pattern is
connected and no ``initial`` masks are given, a root x (the image of q0)
whose search ends with no embedding is recorded under the key
(x - lo, B(x,R) >> lo), where B(x,R) is the host ball of radius R around x
and lo its lowest id.  A later root y with the same key is skipped if, for
every v in B(x,R), (row(v) & B(x,R)) << (y - x) == row(v + y - x) & B(y,R).
This is sound.  An equal key makes B(y,R) the shift of B(x,R), and the row
test makes the shift s: v -> v + y - x keep every edge and non-edge inside
it, so s is an isomorphism between the induced balls taking x to y.  Any
embedding f with f(q0) = y lies inside B(y,R): the pattern is connected,
and the image of a pattern path is a host walk no longer than the path.
So s^-1 o f is an embedding with q0 -> x.  The degree, adjacency and
distance filters reject no embedding, and orbit rooting keeps one if any
exists, so x's empty search proves there is none; hence no embedding maps
q0 to y either.  Skipped roots have no embeddings, so the first witness,
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
from typing import Mapping, Sequence

from .core import Graph, balls, bfs_levels, bits
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


def _orbit_reps(mask: int, gens: list[tuple[tuple[int, ...], int]]) -> int:
    """``mask`` cut to the lowest vertex of each orbit of the group ``gens``
    generate; ``mask`` must be invariant under it.

    ``gens`` holds (permutation, support mask) pairs.  Union-find runs over
    the candidates some generator moves, with the lowest id as each root;
    the other candidates are fixed points and stay.
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
) -> list[Embedding]:
    """Induced embeddings in search order, stopping after ``limit``.

    ``initial[q]``, when given, is a mask of the host vertices q may map to.
    ``generators`` are host automorphisms; with them and no ``initial`` the
    search is orbit-rooted (see the module docstring), which keeps whether
    an embedding exists but not which ones are found.
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
    # degree base: one mask of the host vertices of degree >= d per distinct d
    hdeg = [row.bit_count() for row in hrow]
    at_least = {d: sum(1 << x for x, dx in enumerate(hdeg) if dx >= d)
                for d in set(map(pattern.degree, range(k)))}
    base = [at_least[pattern.degree(q)] for q in range(k)]
    if initial is not None:
        base = [m & init for m, init in zip(base, initial)]
    # host vertex h -> [ball_0, ..., ball_maxr, full], ball_r = within r of h
    ball_rows: dict[int, list[int]] = {}
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
            rows = ball_rows[h] = balls(host, 1 << h, maxr) + [full]
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


def find_induced(pattern: Graph, host: Graph) -> Embedding | None:
    """First induced embedding of ``pattern`` in ``host``, or None."""
    out = find_all_induced(pattern, host, limit=1)
    return out[0] if out else None


def _capped(pattern: Graph) -> Graph:
    if pattern.n > PATTERN_CAP:
        raise CapacityError(f"pattern has {pattern.n} > {PATTERN_CAP} vertices")
    return pattern


def find_all_induced(pattern: Graph, host: Graph, limit: int | None = None) -> list[Embedding]:
    """Every induced embedding (up to ``limit``), in deterministic order."""
    return _search(_capped(pattern), host, limit=limit)


def is_free(host: Graph, pattern: Graph, generators: Sequence[Sequence[int]] = ()) -> bool:
    """True iff ``host`` contains no induced copy of ``pattern``.

    ``generators`` (host automorphisms, such as ``FamilyGraph.generators``)
    make the search try one host vertex per orbit; the verdict is the same.
    """
    return not _search(_capped(pattern), host, limit=1, generators=generators)


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
