"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately implemented without the package's pruned
search machinery: plain enumeration, Floyd-Warshall, breadth-first search
over ``has_edge`` or neighbour sets, permutations.
"""

from __future__ import annotations

from itertools import combinations, permutations
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from treefree.core import Graph, build
from treefree.errors import CapacityError

INF = float("inf")
ORACLE_PATTERN_CAP = 8
ORACLE_HOST_CAP = 40


def random_graph(rng: Random, n: int, p: float) -> Graph:
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
    return build(n, edges)


def random_connected_graph(rng: Random, n: int, p: float) -> Graph:
    for _ in range(60):
        g = random_graph(rng, n, p)
        if n <= 1 or all(d < INF for d in floyd_warshall(g)[0]):
            return g
    # stitch the components of the last sample together
    comps = _components_bruteforce(g)
    edges = list(g.edges())
    for a, b in zip(comps, comps[1:]):
        edges.append((rng.choice(a), rng.choice(b)))
    return build(n, edges)


def _components_bruteforce(g: Graph) -> list[list[int]]:
    dist = floyd_warshall(g)
    out = []
    seen: set[int] = set()
    for v in range(g.n):
        if v in seen:
            continue
        comp = [u for u in range(g.n) if dist[v][u] < INF]
        seen.update(comp)
        out.append(comp)
    return out


def floyd_warshall(g: Graph) -> list[list[float]]:
    n = g.n
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else INF) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def brute_diameter(g: Graph) -> float:
    dist = floyd_warshall(g)
    return max(dist[i][j] for i in range(g.n) for j in range(g.n))


def bfs_distances(g: Graph, src: int) -> list[int]:
    """Distance from ``src`` to every vertex, -1 where unreachable: a queue
    BFS that reads only ``has_edge``, so no traversal of the package is in it."""
    dist = [-1] * g.n
    dist[src] = 0
    queue = [src]
    for x in queue:
        for y in range(g.n):
            if dist[y] < 0 and g.has_edge(x, y):
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def shortest_cycle(g: Graph) -> int | None:
    """Girth by removing each edge uv and measuring the detour from u to v,
    a breadth-first search over neighbour sets."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    best: int | None = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for y in adj[x]:
                if y not in dist and (x, y) != (u, v):
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def has_c3_or_c4(g: Graph) -> bool:
    """Exhaustive search over 3- and 4-subsets for short cycles."""
    for trio in combinations(range(g.n), 3):
        if all(g.has_edge(a, b) for a, b in combinations(trio, 2)):
            return True
    for quad in combinations(range(g.n), 4):
        for perm in permutations(quad[1:]):
            ring = (quad[0],) + perm
            if all(g.has_edge(ring[i], ring[(i + 1) % 4]) for i in range(4)):
                return True
    return False


def perm_isomorphic(g: Graph, h: Graph) -> bool:
    """Permutation backtracking with no refinement, independent of the engine."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    n = g.n
    img: list[int] = []

    def place(v: int) -> bool:
        if v == n:
            return True
        for x in range(n):
            if x in img:
                continue
            if all(g.has_edge(v, u) == h.has_edge(x, img[u]) for u in range(v)):
                img.append(x)
                if place(v + 1):
                    return True
                img.pop()
        return False

    return place(0)


def brute_chi(g: Graph) -> int:
    """Minimum k admitting a proper coloring, by direct enumeration."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [0] * g.n

        def go(v: int) -> bool:
            if v == g.n:
                return True
            limit = 1 if v == 0 else k
            for c in range(1, limit + 1):
                if all(colors[u] != c for u in g.neighbors(v) if u < v):
                    colors[v] = c
                    if go(v + 1):
                        return True
            colors[v] = 0
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def dsatur_greedy_colours(g: Graph) -> int:
    """Colours used by one greedy DSATUR pass (Brelaz 1979): pick the vertex
    seeing the most colours, then of highest degree, then of lowest id, and
    give it the lowest colour none of its neighbours has."""
    colour: dict[int, int] = {}
    while len(colour) < g.n:
        def key(x: int) -> tuple[int, int, int]:
            return len({colour[u] for u in g.neighbors(x) if u in colour}), g.degree(x), -x

        v = max((x for x in range(g.n) if x not in colour), key=key)
        used = {colour[u] for u in g.neighbors(v) if u in colour}
        colour[v] = min(c for c in range(g.n) if c not in used)
    return len(set(colour.values()))


def lowest_id_peel(g: Graph) -> tuple[list[int], list[int]]:
    """Removal order and 3-core of peeling the lowest-id vertex of degree <= 2, by set scans."""
    alive = set(range(g.n))
    order = []
    while True:
        low = [v for v in sorted(alive) if sum(1 for u in g.neighbors(v) if u in alive) <= 2]
        if not low:
            return order, sorted(alive)
        order.append(low[0])
        alive.remove(low[0])


def mycielski(k: int) -> Graph:
    """The Mycielski graph M_k (k >= 2): triangle-free with chromatic number k.

    M_2 is K_2; M_{k+1} adds a shadow u_i of each vertex i, joined to i's
    neighbours, and one apex joined to every shadow.
    """
    n, edges = 2, [(0, 1)]
    for _ in range(k - 2):
        edges = edges + [(a, n + b) for a, b in edges] + [(b, n + a) for a, b in edges] + [
            (n + i, 2 * n) for i in range(n)
        ]
        n = 2 * n + 1
    return build(n, edges)


def planted_chi_graph(rng: Random, n: int, k: int, p: float) -> Graph:
    """A graph of chromatic number exactly k (2 <= k <= n).

    Edges run only between k planted colour classes, so k colours suffice,
    and one vertex of each class forms a K_k, so fewer do not.
    """
    part = [i % k for i in range(n)]
    rng.shuffle(part)
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if part[a] != part[b] and rng.random() < p]
    reps = [part.index(c) for c in range(k)]
    edges += list(combinations(reps, 2))
    return build(n, edges)


def peel_fixpoint_core(g: Graph) -> set[int]:
    """3-core by simultaneous deletion rounds (order-free by construction)."""
    alive = set(range(g.n))
    while True:
        drop = {v for v in alive if sum(1 for u in g.neighbors(v) if u in alive) <= 2}
        if not drop:
            return alive
        alive -= drop


def tree_path(t: Graph, u: int, v: int) -> list[int]:
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in t.neighbors(x):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    out = [v]
    while out[-1] != u:
        out.append(parent[out[-1]])
    return out[::-1]


def caterpillar_by_spines(t: Graph) -> bool:
    """Try every path of the tree as a spine and check the rest is edgeless."""
    if t.n == 1:
        return True
    for u in range(t.n):
        for v in range(u, t.n):
            spine = set(tree_path(t, u, v))
            if all(a in spine or b in spine for a, b in t.edges()):
                return True
    return False


def all_vw_paths(g: Graph, v: int, w: int, k: int) -> list[tuple[int, ...]]:
    """Every induced v-w path on k vertices via unpruned simple-path DFS."""
    out = []

    def extend(path: list[int]) -> None:
        if len(path) == k:
            if path[-1] == w and _is_induced_path(g, path):
                out.append(tuple(path))
            return
        for x in g.neighbors(path[-1]):
            if x not in path:
                extend(path + [x])

    extend([v])
    return out


def _is_induced_path(g: Graph, path: list[int]) -> bool:
    for i, j in combinations(range(len(path)), 2):
        want = j - i == 1
        if g.has_edge(path[i], path[j]) != want:
            return False
    return True


def mk_oracle(g: Graph, v: int, w: int, k: int) -> set[int]:
    return {p[1] for p in all_vw_paths(g, v, w, k)}


def l_oracle(g: Graph, w: int, avoid: set[int]) -> set[int]:
    """Order-4 w-reaching vertices by full enumeration of the walks v, q2, q3, w."""
    dist = bfs_distances(g, w)
    out = set()
    if w in avoid:
        return out
    for v in range(g.n):
        if dist[v] not in (2, 3) or v in avoid:
            continue
        for q2 in g.neighbors(v):
            for q3 in g.neighbors(q2):
                if len({v, q2, q3, w}) != 4:
                    continue
                if q2 in avoid or q3 in avoid:
                    continue
                if g.has_edge(q3, w):
                    out.add(v)
    return out


def closure_oracle(g: Graph, w: int, X: Iterable[int]) -> dict:
    """The Y/Z closure sets of base X under root w, and the a in N(w) breaking
    each edge-emptiness clause, straight from the set definitions."""
    X = set(X)
    dist = bfs_distances(g, w)
    nw = {v for v in range(g.n) if dist[v] == 1}
    n2 = {v for v in range(g.n) if dist[v] == 2}

    def nbhd(vertices: set[int]) -> set[int]:
        return {u for v in vertices for u in range(g.n) if g.has_edge(v, u)}

    y1 = (X | nbhd(X)) & n2
    y2 = nbhd(y1) & nw
    z1 = nbhd(X) & l_oracle(g, w, X)
    z2 = (X | nbhd(z1 | X)) & n2
    z3 = nbhd(z2) & nw

    def edge_from_x(targets: set[int]) -> bool:
        return any(g.has_edge(x, u) for x in X for u in targets)

    clause_i, clause_ii = [], []
    for a in sorted(nw):
        dist_a = bfs_distances(g, a)
        if a not in y2 and edge_from_x({u for u in range(g.n) if 0 <= dist_a[u] <= 1}):
            clause_i.append(a)
        if a not in z3 and edge_from_x({u for u in range(g.n) if 0 <= dist_a[u] <= 2} - z3):
            clause_ii.append(a)
    return {"y1": y1, "y2": y2, "z1": z1, "z2": z2, "z3": z3,
            "clause_i": clause_i, "clause_ii": clause_ii}


def path_pair_oracle(
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


def independence_at_most(g: Graph, limit: int) -> bool:
    """No independent set on limit + 1 vertices, by testing every (limit + 1)-subset."""
    return not any(
        not any(g.has_edge(a, b) for a, b in combinations(group, 2))
        for group in combinations(range(g.n), limit + 1)
    )


def ramsey_labelled(n: int, t: int) -> list[int]:
    """Every labelled graph on n vertices with no triangle and no independent t-set.

    A graph is an edge mask whose bit i is the i-th pair of
    ``combinations(range(n), 2)``; all 2^(n choose 2) masks are tested
    against the pair mask of every vertex triple and every t-set.
    """
    pairs = list(combinations(range(n), 2))

    def span(group: tuple[int, ...]) -> int:
        return sum(1 << i for i, (a, b) in enumerate(pairs) if a in group and b in group)

    triangles = [span(trio) for trio in combinations(range(n), 3)]
    independents = [span(group) for group in combinations(range(n), t)]
    return [
        emask for emask in range(1 << len(pairs))
        if all(emask & m != m for m in triangles) and all(emask & m for m in independents)
    ]


def canonical_classes(n: int, masks: Iterable[int]) -> set[int]:
    """Isomorphism classes of edge masks on n vertices, each as its least relabelling."""
    pairs = list(combinations(range(n), 2))
    index = {pq: i for i, pq in enumerate(pairs)}
    relabel = [[index[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs]
               for p in permutations(range(n))]
    return {
        min(sum(1 << img[i] for i in range(len(pairs)) if emask >> i & 1) for img in relabel)
        for emask in masks
    }


def networkx_graph(g: Graph):
    """``g`` as a networkx graph on the nodes 0..n-1."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def ramsey_growth(t: int, order: int) -> list[list[Graph]]:
    """Triangle-free graphs with no independent t-set on 1..order vertices,
    one per isomorphism class, with no pruning: each kept graph on n
    vertices is joined by a new vertex to every independent subset of it in
    turn, and a candidate is kept unless it has an independent t-set or
    networkx ``is_isomorphic`` matches it to a graph already kept."""
    import networkx as nx

    levels = [[build(1, [])]]
    for n in range(1, order):
        kept: list[tuple[Graph, nx.Graph]] = []
        for g in levels[-1]:
            for size in range(n + 1):
                for group in combinations(range(n), size):
                    if any(g.has_edge(a, b) for a, b in combinations(group, 2)):
                        continue
                    cand = build(n + 1, [*g.edges(), *((v, n) for v in group)])
                    if not independence_at_most(cand, t - 1):
                        continue
                    h = networkx_graph(cand)
                    if not any(nx.is_isomorphic(h, other) for _, other in kept):
                        kept.append((cand, h))
        levels.append([cand for cand, _ in kept])
    return levels


def random_tree(rng: Random, n: int) -> Graph:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return build(n, edges)


def girth_at_least_5(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """No C3 or C4, by pairs: no adjacent pair shares a neighbour and no pair
    shares two.  Every pair of neighbours of w shares w; a pair met again at
    a second w shares two."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    shared = set()
    for w in range(n):
        for pair in combinations(sorted(nbrs[w]), 2):
            if pair[1] in nbrs[pair[0]] or pair in shared:
                return False
            shared.add(pair)
    return True


def random_girth5_cubic(rng: Random, n: int) -> Graph:
    """A connected cubic graph of girth >= 5 on n (even) vertices: pairing
    model, resampled until the pairing is simple, connected and passes
    ``girth_at_least_5``."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2 and girth_at_least_5(n, edges):
            g = build(n, edges)
            if -1 not in bfs_distances(g, 0):
                return g


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle 0..n-1, spokes i ~ n + i, inner edges
    n + i ~ n + (i + k) % n, labelled as ``families.gp`` labels GP(n, 2), so
    turning both blocks of n ids by 1 is an automorphism."""
    return build(2 * n, [e for i in range(n) for e in ((i, (i + 1) % n), (i, n + i), (n + i, n + (i + k) % n))])


def random_girth5_necklace(rng: Random, copies: int, n: int, alike: bool = False) -> Graph:
    """A ring of ``copies`` beads, cubic with girth >= 5 and a long diameter.

    Each bead is a ``random_girth5_cubic`` graph on n vertices with one edge
    ab cut; b of each bead is joined to a of the next.  A cycle that stays in
    one bead is a cycle of that bead, and one around the ring crosses every
    bead from a to b (at least 4 steps, as ab closed no shorter cycle).
    With ``alike`` every bead is one bead cut at one edge, so turning the
    ids by n is an automorphism.
    """
    beads = [random_girth5_cubic(rng, n) for _ in range(1 if alike else copies)]
    cuts = [rng.choice(list(bead.edges())) for bead in beads]
    if alike:
        beads, cuts = beads * copies, cuts * copies
    edges = []
    for i, (bead, (a, b)) in enumerate(zip(beads, cuts)):
        edges += [(i * n + u, i * n + v) for u, v in bead.edges() if (u, v) != (a, b)]
        j = (i + 1) % copies
        edges.append((i * n + b, j * n + cuts[j][0]))
    return build(copies * n, edges)


def verify_embedding(pattern: Graph, host: Graph, mapping: Sequence[int]) -> bool:
    """Check injectivity plus the induced condition, edge for edge."""
    img = list(mapping)
    if len(img) != pattern.n or len(set(img)) != len(img):
        return False
    if any(not 0 <= h < host.n for h in img):
        return False
    return all(pattern.has_edge(a, b) == host.has_edge(img[a], img[b])
               for a, b in combinations(range(pattern.n), 2))


def oracle_induced_maps(pattern: Graph, host: Graph) -> Iterator[tuple[int, ...]]:
    """Every induced embedding, by exhaustive assignment in natural vertex order.

    No degree filter, no reordering, no look-ahead; prefixes are abandoned
    only once they already violate the induced condition.  Embeddings come
    in lexicographic order of their mapping.  There is no host cap: the cost
    is up to n^k, so callers keep the host small or the pattern's natural
    order connected.
    """
    k, n = pattern.n, host.n
    if k > ORACLE_PATTERN_CAP:
        raise CapacityError(f"oracle pattern cap is {ORACLE_PATTERN_CAP}")
    chosen: list[int] = []

    def extend() -> Iterator[tuple[int, ...]]:
        i = len(chosen)
        if i == k:
            yield tuple(chosen)
            return
        for h in range(n):
            if h in chosen:
                continue
            if all(pattern.has_edge(i, j) == host.has_edge(h, chosen[j]) for j in range(i)):
                chosen.append(h)
                yield from extend()
                chosen.pop()

    return extend()


def oracle_find_induced(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """The first of ``oracle_induced_maps``, on hosts of at most ORACLE_HOST_CAP vertices."""
    if pattern.n > ORACLE_PATTERN_CAP:
        raise CapacityError(f"oracle pattern cap is {ORACLE_PATTERN_CAP}")
    if host.n > ORACLE_HOST_CAP:
        raise CapacityError(f"oracle host cap is {ORACLE_HOST_CAP}")
    return next(oracle_induced_maps(pattern, host), None)


def oracle_maps_along(pattern: Graph, host: Graph, order: list[int]) -> Iterator[tuple[int, ...]]:
    """Every induced map, in lexicographic order of the images of ``order``.

    Plain backtracking: pattern vertices are placed in ``order``, candidates
    in ascending host id, and a partial map is dropped only once it breaks
    the induced condition.  A vertex with an earlier neighbour p tries only
    the host neighbours of p's image, which every induced map obeys.  No
    caps: with ``order`` connected the cost is the number of induced maps of
    its prefixes.
    """
    k = pattern.n
    img = [-1] * k

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == k:
            yield tuple(img)
            return
        q = order[i]
        placed = order[:i]
        anchor = next((p for p in placed if pattern.has_edge(p, q)), None)
        options = range(host.n) if anchor is None else sorted(host.neighbors(img[anchor]))
        for h in options:
            if h in img:
                continue
            if all(pattern.has_edge(p, q) == host.has_edge(img[p], h) for p in placed):
                img[q] = h
                yield from extend(i + 1)
                img[q] = -1

    return extend(0)


def oracle_stabiliser_orbits(pattern: Graph, order: list[int]) -> list[set[int]]:
    """Entry idx: the orbit of order[idx] under the automorphisms of
    ``pattern`` that fix order[:idx] pointwise, from the full group listed
    by ``oracle_maps_along``."""
    auts = list(oracle_maps_along(pattern, pattern, order))
    return [{a[q] for a in auts if all(a[p] == p for p in order[:idx])}
            for idx, q in enumerate(order)]


def _distance_profile(g: Graph, v: int) -> tuple[int, ...]:
    """How many vertices lie at distance 0, 1, 2, ... from v: an automorphism invariant."""
    dist = [d for d in bfs_distances(g, v) if d >= 0]
    counts = [0] * (max(dist) + 1)
    for d in dist:
        counts[d] += 1
    return tuple(counts)


def _maps_onto(g: Graph, a: int, b: int, profile: list[tuple[int, ...]]) -> bool:
    """Is there an automorphism of ``g`` taking a to b?  Plain backtracking.

    Vertices are placed in DFS preorder from a, so each one closes its
    cycles soon after it is placed.  A vertex placed after its DFS parent p
    may only go to an unused neighbour of p's image with the same distance
    profile, and every placement must keep adjacency and non-adjacency with
    all placed vertices.  Other components are placed in the same way from
    their lowest vertex, which may go anywhere unused.
    """
    n = g.n
    order: list[int] = []
    parent: dict[int, int | None] = {}
    for root in [a] + list(range(n)):
        if root in parent:
            continue
        stack: list[tuple[int, int | None]] = [(root, None)]
        while stack:
            x, p = stack.pop()
            if x in parent:
                continue
            parent[x] = p
            order.append(x)
            stack.extend((y, x) for y in sorted(g.neighbors(x), reverse=True) if y not in parent)
    img: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == n:
            return True
        x = order[i]
        p = parent[x]
        if i == 0:
            options: Iterable[int] = [b]
        elif p is None:
            options = range(n)
        else:
            options = g.neighbors(img[p])
        for c in list(options):
            if c in used or profile[c] != profile[x]:
                continue
            if all(g.has_edge(x, y) == g.has_edge(c, img[y]) for y in img):
                img[x] = c
                used.add(c)
                if extend(i + 1):
                    return True
                del img[x]
                used.discard(c)
        return False

    return extend(0)


def automorphism_orbits(g: Graph) -> list[list[int]]:
    """The orbits of the full automorphism group, each sorted, by lowest vertex.

    A vertex joins the first orbit whose first vertex some automorphism maps
    onto it, which decides every vertex pair because orbits partition.
    """
    profile = [_distance_profile(g, v) for v in range(g.n)]
    orbits: list[list[int]] = []
    for v in range(g.n):
        for orbit in orbits:
            if _maps_onto(g, orbit[0], v, profile):
                orbit.append(v)
                break
        else:
            orbits.append([v])
    return orbits


def generator_orbits(n: int, generators: Sequence[Mapping[int, int]]) -> list[list[int]]:
    """The orbits on 0..n-1 of the group generated by the permutations
    ``generators``, each given by its moves (a vertex left out is fixed),
    each orbit sorted, listed by lowest vertex.  Each orbit is closed by
    applying every generator to every vertex found so far; in a finite group
    a generator's inverse is one of its powers, so forward images suffice.
    """
    seen: set[int] = set()
    orbits: list[list[int]] = []
    for v in range(n):
        if v in seen:
            continue
        orbit = {v}
        todo = [v]
        while todo:
            x = todo.pop()
            for moves in generators:
                y = moves.get(x, x)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def oracle_is_automorphism(g: Graph, moves: Mapping[int, int]) -> bool:
    """The definition, edge by edge: ``moves``, with every vertex it leaves
    out fixed, is a permutation of range(n) that keeps every edge."""
    perm = [moves.get(x, x) for x in range(g.n)]
    return (all(0 <= x < g.n for x in moves) and sorted(perm) == list(range(g.n))
            and all(g.has_edge(perm[u], perm[v]) for u, v in g.edges()))


def oracle_block_rotation(g: Graph) -> dict[int, int] | None:
    """The least (c, t) block rotation of ``g`` as a dict over every vertex,
    or None: the ids cut into c consecutive blocks of b = n / c >= 3 ids,
    each turned by t, tried by c, then t in 1..b-1, ascending, and accepted
    once it maps every edge to an edge.  The rotations that are
    automorphisms form a subgroup, so the least t found divides b."""
    n = g.n
    edges = set(g.edges())
    for c in range(1, n + 1):
        b = n // c
        if n % c or b < 3:
            continue
        for t in range(1, b):
            moves = {x: x - x % b + (x % b + t) % b for x in range(n)}
            if all((min(moves[u], moves[v]), max(moves[u], moves[v])) in edges for u, v in edges):
                return moves
    return None
