"""The four infinite girth-5 families plus a generalized-Petersen testbed.

Id helpers (h1_u, h2_w, ...) expose the per-copy coordinates, so the
named lemma checks can replay fixed witness sets by coordinate.

Each constructor also returns automorphism generators: the symmetries its
definition makes obvious (copy transpositions, rotations, reflections,
gadget swaps), each stored as its moves, a dict that maps every vertex the
generator moves to its image and leaves out every vertex it fixes.  A copy
swap in h1, h2 or h4 names only the vertices of its two copies, so the
generators of every family total O(n) entries.  They need not generate the
whole automorphism group; ``embed.find_induced`` and ``embed.is_free`` use
them only to skip host vertices that some automorphism maps onto one
already tried.  ``_validate`` checks every generator at construction,
reading only the rows of the vertices it moves.

``order`` reads each family's order off its size, so the constructors and
callers that sweep sizes refuse a size above the vertex cap before
anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import VERTEX_CAP, Graph, bits, build, is_c3c4_free, is_connected
from .errors import ConstructionError


@dataclass(frozen=True)
class FamilyGraph:
    family: str
    size: int
    graph: Graph
    labels: dict[int, str] = field(default_factory=dict)
    generators: tuple[dict[int, int], ...] = ()


def _perm(vertices: Iterable[int], image: Callable[[int], int]) -> dict[int, int]:
    """The moves of ``image`` on ``vertices``: each vertex it moves, to its image."""
    return {x: y for x in vertices if (y := image(x)) != x}


_ORDERS: dict[str, Callable[[int], int]] = {
    "h1": lambda s: 6 * s + 3,
    "h2": lambda s: 15 * s + 1,
    "h3": lambda s: 14 * s,
    "h4": lambda s: 9 * s + 1,
    "gp": lambda n: 2 * n,
}


def order(family: str, size: int) -> int:
    """The order n of family(size), refused above the cap before anything is built."""
    n = _ORDERS[family](size)
    if n > VERTEX_CAP:
        raise ConstructionError(f"{family}({size}) has {n} vertices, above the cap of {VERTEX_CAP}")
    return n


def _is_automorphism(g: Graph, moves: dict[int, int]) -> bool:
    """True iff ``moves``, with every vertex it leaves out fixed, is a
    permutation of range(n) that maps every edge to an edge.

    Only the rows of the keys are read.  The keys must lie in range(n) and
    the values must be the keys again, which makes the map a permutation,
    and each key v must carry N(v) onto N(moves[v]).  A fixed vertex x needs
    nothing more: a moved neighbour u of x lands in N(x), since x is in N(u)
    and stays put, so the permutation carries N(x) into N(x), hence onto it.
    """
    moved = sorted(moves)
    if sorted(moves.values()) != moved or moved and (moved[0] < 0 or moved[-1] >= g.n):
        return False
    return all(sum(1 << moves.get(u, u) for u in bits(g.row(v))) == g.row(y) for v, y in moves.items())


def _validate(fg: FamilyGraph, min_degree: int, regular: int | None = None) -> FamilyGraph:
    g = fg.graph
    for k, moves in enumerate(fg.generators):
        if not _is_automorphism(g, moves):
            raise ConstructionError(f"{fg.family}({fg.size}): generator {k} is not an automorphism")
    if not is_connected(g):
        raise ConstructionError(f"{fg.family}({fg.size}): disconnected")
    if not is_c3c4_free(g):
        raise ConstructionError(f"{fg.family}({fg.size}): contains a C3 or C4")
    degrees = [g.degree(v) for v in range(g.n)]
    low, high = min(degrees), max(degrees)
    if low < min_degree:
        raise ConstructionError(f"{fg.family}({fg.size}): min degree {low} < {min_degree}")
    if regular is not None and (low != regular or high != regular):
        raise ConstructionError(f"{fg.family}({fg.size}): not {regular}-regular")
    return fg


def _copy_swaps(size: int, s: int) -> list[dict[int, int]]:
    """Transpositions of adjacent copies i, i+1 of a block of ``size`` ids laid
    out from 0, each built from its two blocks alone."""

    def swap(i: int) -> dict[int, int]:
        mid = (i + 1) * size
        return _perm(range(i * size, mid + size), lambda x: x + size if x < mid else x - size)

    return [swap(i) for i in range(s - 1)]


# ---------------------------------------------------------------- h1

def h1_u(i: int, j: int) -> int:
    """Vertex id of cycle vertex u^(i)_j (1-based i, j in 1..6)."""
    return (i - 1) * 6 + (j - 1)


def h1_v(s: int, h: int) -> int:
    """Vertex id of hub v_h (h in 1..3)."""
    return 6 * s + (h - 1)


def h1(s: int) -> FamilyGraph:
    """s disjoint 6-cycles plus v1,v2,v3; u^(i)_j ~ v_h iff j = h (mod 3).

    Order 6s+3.  Minimum degree 3 needs s >= 2 (the hubs have degree 2s).
    """
    if s < 1:
        raise ConstructionError("h1 needs s >= 1")
    n = order("h1", s)
    edges = []
    labels = {}
    for i in range(1, s + 1):
        for j in range(1, 7):
            labels[h1_u(i, j)] = f"u{i}.{j}"
            edges.append((h1_u(i, j), h1_u(i, j % 6 + 1)))
            edges.append((h1_u(i, j), h1_v(s, (j - 1) % 3 + 1)))
    for h in range(1, 4):
        labels[h1_v(s, h)] = f"v{h}"

    def turn(step: int) -> dict[int, int]:
        # cycle position j -> step*j + 1 (step = 1 rotates, -1 reflects); hub class c -> step*c + 1
        return _perm(range(n), lambda x: x - x % 6 + (step * x + 1) % 6 if x < 6 * s
                     else 6 * s + (step * (x - 6 * s) + 1) % 3)

    gens = _copy_swaps(6, s) + [_perm(range(6), lambda j: (j + 3) % 6), turn(1), turn(-1)]
    fg = FamilyGraph("h1", s, build(n, edges), labels, tuple(gens))
    return _validate(fg, 3 if s >= 2 else 2)


# ---------------------------------------------------------------- h2

def h2_u(i: int, j: int) -> int:
    return (i - 1) * 15 + (j - 1)


def h2_v(i: int, j: int) -> int:
    return (i - 1) * 15 + 5 + (j - 1)


def h2_w(i: int, j: int) -> int:
    return (i - 1) * 15 + 10 + (j - 1)


def h2_z(s: int) -> int:
    return 15 * s


def h2(s: int) -> FamilyGraph:
    """s copies of the double-5-cycle gadget joined through the hub z.

    Each copy has 5-cycles u1..u5 and v1..v5 plus w_j adjacent to u_j, v_j;
    z is adjacent to every w.  Order 15s+1.
    """
    if s < 1:
        raise ConstructionError("h2 needs s >= 1")
    n = order("h2", s)
    edges = []
    labels = {h2_z(s): "z"}
    for i in range(1, s + 1):
        for j in range(1, 6):
            nj = j % 5 + 1
            edges.append((h2_u(i, j), h2_u(i, nj)))
            edges.append((h2_v(i, j), h2_v(i, nj)))
            edges.append((h2_w(i, j), h2_u(i, j)))
            edges.append((h2_w(i, j), h2_v(i, j)))
            edges.append((h2_w(i, j), h2_z(s)))
            labels[h2_u(i, j)] = f"u{i}.{j}"
            labels[h2_v(i, j)] = f"v{i}.{j}"
            labels[h2_w(i, j)] = f"w{i}.{j}"
    # inside the first copy: u, v, w at 0..4, 5..9, 10..14
    gens = _copy_swaps(15, s) + [
        _perm(range(15), lambda x: x - x % 5 + (x + 1) % 5),
        _perm(range(15), lambda x: x - x % 5 + (-x) % 5),
        _perm(range(10), lambda x: (x + 5) % 10),
    ]
    fg = FamilyGraph("h2", s, build(n, edges), labels, tuple(gens))
    return _validate(fg, 3)


# ---------------------------------------------------------------- h3

# The 14-vertex ring gadget.  Within one copy
# the offsets are: u1, u2, then v(j,h), then w(j,h').  u1 and u2 have
# degree 2 here and reach degree 3 through the ring edges.
_H3_OFFSET = {
    "u1": 0, "u2": 1,
    "v11": 2, "v12": 3, "v21": 4, "v22": 5,
    "w11": 6, "w12": 7, "w13": 8, "w14": 9,
    "w21": 10, "w22": 11, "w23": 12, "w24": 13,
}

_H3_GADGET_EDGES = [
    ("u1", "v11"), ("u1", "v12"), ("u2", "v21"), ("u2", "v22"),
    ("v11", "w11"), ("v11", "w12"), ("v12", "w13"), ("v12", "w14"),
    ("v21", "w21"), ("v21", "w22"), ("v22", "w23"), ("v22", "w24"),
    ("w11", "w21"), ("w12", "w23"), ("w13", "w22"), ("w14", "w24"),
    ("w11", "w13"), ("w12", "w14"), ("w21", "w23"), ("w22", "w24"),
]


# Gadget symmetries as swaps of offset names.  The side swap exchanges
# u1 <-> u2 and turns the ring around; each branch swap fixes u1 and u2.
_H3_SIDE_SWAP = (("u1", "u2"), ("v11", "v21"), ("v12", "v22"),
                 ("w11", "w21"), ("w12", "w22"), ("w13", "w23"), ("w14", "w24"))
_H3_BRANCH_SWAPS = (
    (("v11", "v12"), ("w11", "w13"), ("w12", "w14"), ("w21", "w22"), ("w23", "w24")),
    (("v21", "v22"), ("w21", "w23"), ("w22", "w24"), ("w11", "w12"), ("w13", "w14")),
)


def _h3_moves(swaps: tuple[tuple[str, str], ...]) -> dict[int, int]:
    """The moves of a gadget symmetry on the offsets, which are also the ids of the first copy."""
    moves = {}
    for a, b in swaps:
        moves[_H3_OFFSET[a]], moves[_H3_OFFSET[b]] = _H3_OFFSET[b], _H3_OFFSET[a]
    return moves


def h3_u(i: int, j: int) -> int:
    return (i - 1) * 14 + _H3_OFFSET[f"u{j}"]


def h3_v(i: int, j: int, h: int) -> int:
    return (i - 1) * 14 + _H3_OFFSET[f"v{j}{h}"]


def h3_w(i: int, j: int, h: int) -> int:
    return (i - 1) * 14 + _H3_OFFSET[f"w{j}{h}"]


def h3(s: int) -> FamilyGraph:
    """Ring of s gadget copies joined by edges u^(i)_2 u^(i+1)_1 (mod s).

    Order 14s, 3-regular.  s >= 4 keeps the ring from closing short cycles.
    """
    if s < 4:
        raise ConstructionError("h3 needs s >= 4")
    n = order("h3", s)
    edges = []
    labels = {}
    for i in range(1, s + 1):
        base = (i - 1) * 14
        for a, b in _H3_GADGET_EDGES:
            edges.append((base + _H3_OFFSET[a], base + _H3_OFFSET[b]))
        for name, off in _H3_OFFSET.items():
            labels[base + off] = f"{name[0]}{i}." + ".".join(name[1:])
        edges.append((h3_u(i, 2), h3_u(i % s + 1, 1)))
    side = _h3_moves(_H3_SIDE_SWAP)
    gens = [
        _perm(range(n), lambda x: (x + 14) % n),
        _perm(range(n), lambda x: (-(x // 14)) % s * 14 + side.get(x % 14, x % 14)),
    ] + [_h3_moves(swaps) for swaps in _H3_BRANCH_SWAPS]
    fg = FamilyGraph("h3", s, build(n, edges), labels, tuple(gens))
    return _validate(fg, 3, regular=3)


# ---------------------------------------------------------------- h4

def h4_u(i: int, j: int) -> int:
    return (i - 1) * 9 + (j - 1)


def h4_v(i: int, h: int) -> int:
    return (i - 1) * 9 + 6 + (h - 1)


def h4_z(s: int) -> int:
    return 9 * s


def h4(s: int) -> FamilyGraph:
    """s copies of the 9-vertex h1 block plus a hub z on all v vertices.

    Each block B_i is a 6-cycle with v_1,v_2,v_3 attached by the mod-3 rule;
    B_i together with z induces a Petersen graph.  Order 9s+1.
    """
    if s < 1:
        raise ConstructionError("h4 needs s >= 1")
    n = order("h4", s)
    edges = []
    labels = {h4_z(s): "z"}
    for i in range(1, s + 1):
        for j in range(1, 7):
            edges.append((h4_u(i, j), h4_u(i, j % 6 + 1)))
            edges.append((h4_u(i, j), h4_v(i, (j - 1) % 3 + 1)))
            labels[h4_u(i, j)] = f"u{i}.{j}"
        for h in range(1, 4):
            edges.append((h4_z(s), h4_v(i, h)))
            labels[h4_v(i, h)] = f"v{i}.{h}"
    # inside the first block: the 6-cycle at 0..5, v1..v3 at 6..8
    gens = _copy_swaps(9, s) + [
        _perm(range(9), lambda x: (step * x + 1) % 6 if x < 6 else 6 + (step * (x - 6) + 1) % 3)
        for step in (1, -1)
    ]
    fg = FamilyGraph("h4", s, build(n, edges), labels, tuple(gens))
    return _validate(fg, 3)


# ---------------------------------------------------------------- gp

def gp(n: int) -> FamilyGraph:
    """Generalized Petersen graph GP(n,2) for odd n >= 5.

    Outer n-cycle u_i, spokes u_i v_i, inner edges v_i v_{i+2}.  Even n
    is rejected (n=6 would close inner triangles); the construction-time
    validator asserts girth >= 5 and 3-regularity.
    """
    if n < 5 or n % 2 == 0:
        raise ConstructionError("gp needs odd n >= 5")
    vertices = order("gp", n)
    edges = []
    labels = {}
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        edges.append((n + i, n + (i + 2) % n))
        labels[i] = f"u{i}"
        labels[n + i] = f"v{i}"
    gens = tuple(_perm(range(vertices), lambda x: x - x % n + (step * x + 1) % n) for step in (1, -1))
    fg = FamilyGraph("gp", n, build(vertices, edges), labels, gens)
    return _validate(fg, 3, regular=3)


FAMILIES: dict[str, Callable[[int], FamilyGraph]] = {"h1": h1, "h2": h2, "h3": h3, "h4": h4, "gp": gp}


def is_family_id(family_id: str) -> bool:
    """True iff the id's head names a family, whatever follows it ("h1", "h3:2", "gp:x")."""
    return family_id.strip().lower().partition(":")[0] in FAMILIES


def make_family(family_id: str) -> FamilyGraph:
    """Resolve a CLI family id like "h1:5" or "gp:25"."""
    head, sep, tail = family_id.strip().lower().partition(":")
    if not sep or head not in FAMILIES:
        raise ConstructionError(f"unknown family id {family_id!r}")
    try:
        size = int(tail)
    except ValueError:
        raise ConstructionError(f"bad size in family id {family_id!r}") from None
    return FAMILIES[head](size)
