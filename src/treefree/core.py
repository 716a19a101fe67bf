"""Immutable simple graphs on dense integer ids with bitset adjacency rows.

Every other module consumes this one.  A row is a Python int used as a
bitmask over 0..n-1, which gives O(n/word) adjacency tests and set algebra.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ConstructionError, DisconnectedError, DomainError, MissingEdgeError

VERTEX_CAP = 65535


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph, immutable after construction.

    Vertices are 0..n-1; ``row(v)`` is the neighborhood of v as a bitmask.
    No loops, no parallel edges; rows are always symmetric.
    """

    __slots__ = ("n", "_rows", "_roots", "_swaps", "_classes")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self._rows = tuple(rows)
        self._roots: int | None = -1  # ``rotation_roots``, filled on first ask
        self._swaps: tuple[dict[int, int], ...] | None = None  # ``block_swaps``, likewise
        self._classes: dict[int, int] | None = None  # ``degree_classes``, likewise

    def row(self, v: int) -> int:
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self._rows[v])

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        for u in range(self.n):
            high = self._rows[u] >> (u + 1) << (u + 1)
            for v in bits(high):
                yield u, v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, deduplicating symmetric pairs."""
    if n < 0 or n > VERTEX_CAP:
        raise ConstructionError(f"vertex count {n} outside 0..{VERTEX_CAP}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ConstructionError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ConstructionError(f"edge ({u},{v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def nbhd(g: Graph, mask: int) -> int:
    """Union of the rows of the vertices in ``mask``; it may hold vertices of
    ``mask`` itself.  Takes the highest vertex first: clearing the top bit
    needs no negated copy of the mask."""
    rows = g._rows
    out = 0
    while mask:
        top = mask.bit_length() - 1
        out |= rows[top]
        mask ^= 1 << top
    return out


def balls(g: Graph, sources: int) -> list[int]:
    """Masks of the vertices within 0, 1, 2, ... steps of the ``sources`` mask,
    ending at their component.

    Each step is the ``nbhd`` of the last ring.  Every single-source BFS
    reads these.
    """
    seen = ring = sources
    out = [seen]
    while ring := nbhd(g, ring) & ~seen:
        seen |= ring
        out.append(seen)
    return out


def distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path distance, or None when u and v are in different components:
    the index of the first of u's ``balls`` that holds v.  Ids outside
    0..n-1 raise DomainError."""
    for x in (u, v):
        if not 0 <= x < g.n:
            raise DomainError(f"vertex {x} is outside 0..{g.n - 1}")
    for d, ball in enumerate(balls(g, 1 << u)):
        if ball >> v & 1:
            return d
    return None


def degree_classes(g: Graph) -> dict[int, int]:
    """Degree -> the mask of the vertices with that degree, for every degree
    that occurs.  Rows never change, so the table is computed on the first
    ask and kept on the graph; callers read it and never change it."""
    if g._classes is None:
        classes: dict[int, int] = {}
        for x, row in enumerate(g._rows):
            d = row.bit_count()
            classes[d] = classes.get(d, 0) | 1 << x
        g._classes = classes
    return g._classes


def rotation_roots(g: Graph) -> int | None:
    """The mask of the least vertex of each orbit of the least block
    rotation of ``g``, or None when it has none.

    A (c, t) block rotation cuts the ids into c blocks of b = n / c >= 3
    consecutive ids and turns each by t: x -> x - x % b + (x % b + t) % b,
    as gp(n) (c = 2, t = 1) and h3(s) (c = 1, t = 14) are labelled.  c, then
    t, ascend over the divisors of n; the rotation by t generates the one by
    gcd(t, b), so the least t that works divides b, and the orbit roots are
    the ids with x % b < t.  A candidate is tested at vertex 0, then on every
    row, turned by two shifts and two masks.  Rows never change, so the mask
    is computed on the first ask and kept on the graph.
    """
    if g._roots == -1:
        g._roots = _rotation_roots(g)
    return g._roots


def _rotation_roots(g: Graph) -> int | None:
    n, rows = g.n, g._rows
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*low, *(n // d for d in low)})
    near = list(bits(rows[0])) if n else []
    for c in divisors:
        b = n // c
        if b < 3:
            break
        starts = sum(1 << i * b for i in range(c))  # the first id of every block
        for t in divisors:
            if t >= b:
                break
            if b % t or sum(1 << (u - u % b + (u % b + t) % b) for u in near) != rows[t]:
                continue
            up = ((1 << b - t) - 1) * starts  # ids with x % b < b - t move up by t
            down = (1 << n) - 1 ^ up  # the rest wrap down by b - t
            if all((r & up) << t | (r & down) >> b - t == rows[x - x % b + (x % b + t) % b]
                   for x, r in enumerate(rows)):
                return ((1 << t) - 1) * starts
    return None


def is_automorphism(g: Graph, moves: Mapping[int, int]) -> bool:
    """True iff ``moves``, with every vertex it leaves out fixed, is a
    permutation of range(n) that maps every edge to an edge.

    Only the rows of the keys are read.  The keys must lie in range(n) and
    the values must be the keys again, which makes the map a permutation,
    and each key v must carry N(v) onto N(moves[v]).  A fixed vertex x needs
    nothing more: a moved neighbour u of x lands in N(x), since x is in N(u)
    and stays put, so the permutation carries N(x) into N(x), hence onto it.
    The image of N(v) is built top bit first, as in ``nbhd``.
    """
    moved = sorted(moves)
    if sorted(moves.values()) != moved or moved and (moved[0] < 0 or moved[-1] >= g.n):
        return False
    rows, get = g._rows, moves.get
    for v, y in moves.items():
        row, image = rows[v], 0
        while row:
            top = row.bit_length() - 1
            image |= 1 << get(top, top)
            row ^= 1 << top
        if image != rows[y]:
            return False
    return True


def block_swaps(g: Graph) -> tuple[dict[int, int], ...]:
    """Transpositions of adjacent id blocks that are automorphisms of ``g``,
    each as its moves (see ``is_automorphism``); () when none is found.

    The family templates lay s copies of a block at ids (i - 1) * b onward,
    hubs last, so swapping copies i and i + 1 (x -> x + b on one, x - b on
    the other) is an automorphism.  Block sizes b ascend from 1.  At each,
    the swaps of blocks 0 and 1, 1 and 2, ... are tried in turn until one
    fails or the next block passes n: each is tested at the first vertex of
    its lower block (one row, moved by two shifts and three masks), then by
    ``is_automorphism``.  A run of two or more swaps is kept and ends the
    scan; a lone swap is kept while the kept swaps move at most 2n ids, and
    the scan goes on, since a copy can hold a smaller swap of its own (h1's
    halves u1 u2 u3 and u4 u5 u6).  Each id lies in at most two swaps of a
    run, so all the swaps hold fewer than 4n moves.  Rows never change, so
    the swaps are found on the first ask and kept on the graph; callers
    read them and never change them.
    """
    if g._swaps is None:
        g._swaps = _block_swaps(g)
    return g._swaps


def _block_swaps(g: Graph) -> tuple[dict[int, int], ...]:
    n, rows = g.n, g._rows
    kept: list[dict[int, int]] = []
    moved = 0
    for b in range(1, n // 2 + 1):
        run = []
        for x in range(0, n - 2 * b + 1, b):  # x: the first id of the lower block
            low = (1 << b) - 1 << x
            high = low << b
            r = rows[x]
            if r & ~(low | high) | (r & low) << b | (r & high) >> b != rows[x + b]:
                break
            moves = {y: y + b for y in range(x, x + b)} | {y + b: y for y in range(x, x + b)}
            if not is_automorphism(g, moves):
                break
            run.append(moves)
        if len(run) > 1:
            return (*kept, *run)
        if run and moved + 2 * b <= 2 * n:
            kept += run
            moved += 2 * b
    return tuple(kept)


def diameter(g: Graph) -> int:
    """Maximum pairwise distance of a connected graph.

    With a block rotation it is the largest eccentricity over the
    ``rotation_roots``, one ``balls`` traversal each (automorphisms keep
    distances).  Otherwise all sources advance in lock step: level d ORs
    ``reach[u]`` over the closed neighbourhood of each v, and the level at
    which every row is full is the diameter.  A ball or row that stops
    short of full means disconnected.
    """
    n = g.n
    if n == 0:
        raise DisconnectedError("diameter of the empty graph is undefined")
    full = (1 << n) - 1
    roots = rotation_roots(g)
    if roots is not None:
        ecc = 0
        for v in bits(roots):
            reach = balls(g, 1 << v)
            if reach[-1] != full:
                raise DisconnectedError("graph is disconnected")
            ecc = max(ecc, len(reach) - 1)
        return ecc
    nbrs = [list(bits(r)) for r in g._rows]
    reach = [1 << v for v in range(n)]
    pending = [v for v in range(n) if reach[v] != full]
    d = 0
    while pending:
        d += 1
        grown = reach[:]
        for v in pending:
            ball = before = reach[v]
            for u in nbrs[v]:
                ball |= reach[u]
            if ball == before:
                raise DisconnectedError("graph is disconnected")
            grown[v] = ball
        reach = grown
        pending = [v for v in pending if reach[v] != full]
    return d


def is_c3c4_free(g: Graph, within: int | None = None) -> bool:
    """True iff no 3-cycle and no 4-cycle passes through a vertex of the
    ``within`` mask (all of g by default, which is true iff g has none):
    one row union and one count per vertex of a mask, or one row union per
    vertex and one count in all without one.

    Take v with N(v) non-empty and nb = ``nbhd(g, N(v))``, the union of the
    rows N(u) over u in N(v).
    - A triangle passes through v iff nb & N(v) is non-zero: a u in both lies
      in N(u') for some u' in N(v), u != u', so v, u, u' is a triangle, and
      a triangle v, u, u' puts u' in N(u) and in N(v).
    - Every N(u) holds v, so nb is {v} together with the sets N(u) - {v},
      none of which holds v, and |nb| <= 1 + sum over u in N(v) of
      (deg u - 1).  Equality holds iff those sets are pairwise disjoint.  A
      w in N(u) - {v} and N(u') - {v} for distinct u, u' is neither v nor u
      nor u' (no loops), so v, u, w, u' is a 4-cycle; conversely a 4-cycle
      v, u, w, u' puts w in both sets.  So equality holds iff no 4-cycle
      passes through v.
    With a mask each of its vertices is held to its own equality, the right
    side summed over the degree table as the sum over d of (d - 1) times
    |N(v) & D_d|, D_d the vertices of degree d.  Without one, every v meets
    its inequality, so the sums over all v are equal iff every v meets it
    with equality.  Summed over v, the right-hand side counts each u once
    per neighbour, deg u times, so it is the sum over the degrees d >= 1 of
    |D_d| (d (d - 1) + 1), read off ``degree_classes`` with no walk over
    neighbours.

    The ``rotation_roots`` mask decides all of g: the block rotation is an
    automorphism, and some power of it maps any vertex x to the root of
    x's orbit, so it maps every 3- or 4-cycle through x onto one through
    that root.  Every root is needed: in GP(8, 2) the 4-cycles run through
    the inner orbit alone.
    """
    rows = g._rows
    if within is not None:
        classes = degree_classes(g).items()
        for v in bits(within):
            rv = rows[v]
            if rv:
                nb = nbhd(g, rv)
                if nb & rv:
                    return False
                if nb.bit_count() != 1 + sum((d - 1) * (rv & m).bit_count() for d, m in classes):
                    return False
        return True
    reach = 0
    for rv in rows:
        if rv:
            nb = nbhd(g, rv)
            if nb & rv:
                return False
            reach += nb.bit_count()
    return reach == sum(m.bit_count() * (d * d - d + 1) for d, m in degree_classes(g).items() if d)


class GraphStats(NamedTuple):
    min_degree: int
    max_degree: int
    connected: bool
    bipartite: bool


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or balls(g, 1)[-1] == (1 << g.n) - 1


def is_bipartite(g: Graph) -> bool:
    """2-colorability: no edge inside any BFS ring; true for the empty graph."""
    rows = g._rows
    left = (1 << g.n) - 1
    while left:
        inner = 0
        for ball in balls(g, left & -left):
            ring = ball & ~inner
            if any(rows[v] & ring for v in bits(ring)):
                return False
            inner = ball
        left &= ~inner
    return True


def stats(g: Graph) -> GraphStats:
    degs = degree_classes(g)
    return GraphStats(
        min_degree=min(degs, default=0),
        max_degree=max(degs, default=0),
        connected=is_connected(g),
        bipartite=is_bipartite(g),
    )


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``, relabeled 0..k-1 in ascending id order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    mask = mask_of(keep)
    rows = []
    for v in keep:
        r = 0
        for u in bits(g.row(v) & mask):
            r |= 1 << index[u]
        rows.append(r)
    return Graph(len(keep), rows)


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Merge the endpoints of ``e``; parallels collapse, the loop is dropped."""
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise MissingEdgeError(f"({u},{v}) is not an edge")
    lo, hi = min(u, v), max(u, v)

    def new(x: int) -> int:  # hi merges into lo; every id above hi drops by one
        return lo if x == hi else x - (x > hi)

    return build(g.n - 1, [(new(a), new(b)) for a, b in g.edges() if (a, b) != (lo, hi)])


def components(g: Graph, within: int | None = None) -> list[list[int]]:
    """Connected components of the subgraph induced by the ``within`` mask
    (all of g by default) as ascending vertex lists, ordered by minimum id."""
    out = []
    left = (1 << g.n) - 1 if within is None else within
    while left:
        comp = ring = left & -left
        while ring:
            ring = nbhd(g, ring) & left & ~comp
            comp |= ring
        out.append(list(bits(comp)))
        left &= ~comp
    return out
