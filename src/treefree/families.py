"""The four infinite girth-5 families plus a generalized-Petersen testbed.

h1–h4 share one layout, held by a copy template: s copies of one block,
copy i (1-based) at ids (i−1)·b .. i·b−1 in the order of the block's
vertex names, then the hubs (h1: v1, v2, v3; h2 and h4: z; h3: none).
Each copy is joined to the hubs by the same block → hub edges, or, in the
ring h3, to the next copy by one ring edge.  ``_build`` derives a
family's graph, labels, generators and order from its template alone.

Labels are the one coordinate scheme: block vertex ``w24`` of copy 3 is
``w3.2.4`` (the name's letter, the copy, then the name's other characters
joined by dots), a hub is its bare name.  ``vertex(family, s, label)``
reads a label's id off the template in O(1), so the named lemma checks
replay fixed witness sets by label without building anything.

Each constructor also returns automorphism generators: the symmetries its
template makes obvious, each stored as its moves, a dict that maps every
vertex the generator moves to its image and leaves out every vertex it
fixes.  They are the transpositions of adjacent copies (for the ring, its
rotation and reflection), then the block symmetries that fix the hubs,
applied to copy 1, then those that permute the hubs, applied to every copy
and to the hubs.  A copy swap names only the vertices of its two copies,
so the generators of every family total O(n) entries.  They need not
generate the whole automorphism group; ``embed.find_induced`` and
``embed.is_free`` use them only to skip host vertices that some
automorphism maps onto one already tried, ``witness.scan_path_pairs`` to
scan one root w per orbit.  A ``NamedGraph`` checks them when it is made
(``core.is_automorphism`` reads only the moved rows), and its readers trust
them.  A graph read back from graph6 has lost them; ``core.block_swaps``
finds its copy swaps again from this layout.

``order`` derives each family's order from its size (b·s + hubs for a
template), so the constructors and callers that sweep sizes refuse a size
above the vertex cap before anything is built.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable, Iterable

from .core import VERTEX_CAP, Graph, build, degree_classes, gate, is_automorphism
from .errors import ConstructionError


@dataclass(frozen=True)
class NamedGraph:
    """A graph under its id ("h1:5", "T9", ...), with its labels and any generators,
    each checked with ``is_automorphism`` however the record is made."""

    id: str
    graph: Graph
    labels: dict[int, str]
    generators: tuple[dict[int, int], ...] = ()

    def __post_init__(self) -> None:
        for k, moves in enumerate(self.generators):
            if not is_automorphism(self.graph, moves):
                raise ConstructionError(f"{self.id}: generator {k} is not an automorphism")


def _perm(vertices: Iterable[int], image: Callable[[int], int]) -> dict[int, int]:
    """The moves of ``image`` on ``vertices``: each vertex it moves, to its image."""
    return {x: y for x in vertices if (y := image(x)) != x}


def _cycles(text: str) -> dict[str, str]:
    """A permutation of names in cycle notation, "(a b c)(d e)", as its moves."""
    moves = {}
    for cycle in text.strip("()").split(")("):
        names = cycle.split()
        moves.update(zip(names, names[1:] + names[:1]))
    return moves


class _Template:
    """s copies of one block, then the hubs (see the module docstring).

    ``names`` are the block's vertex names in id order.  ``edges`` are
    paths of names ("u1-u2-u3"): block edges, and block → hub attachments
    wherever a path meets a hub.  ``ring`` joins a name in copy i to a name
    in copy i+1 (mod s).  ``copy1`` and ``every`` are block symmetries in
    cycle notation: those that fix the hubs, applied to copy 1, and those
    that permute them, applied to every copy and the hubs.  ``side`` is a
    ring reflection's map on each copy.
    """

    def __init__(self, names: str, edges: str, hubs: str = "", ring: str = "", min_size: int = 1,
                 copy1: tuple[str, ...] = (), every: tuple[str, ...] = (), side: str = "",
                 regular: int | None = None):
        names = names.split()
        self.hubs = hubs.split()
        self.b = len(names)
        self.min_size, self.regular = min_size, regular
        at = {name: x for x, name in enumerate(names)}
        hub_at = self.hub_at = {name: h for h, name in enumerate(self.hubs)}
        # a block name's label is its letter, the copy number, a dot, then its other characters dotted
        self.parts = [(name[0], ".".join(name[1:])) for name in names]
        self.label_at = {part: x for x, part in enumerate(self.parts)}
        self.block, self.attach = [], []
        for path in edges.split():
            for a, c in pairwise(path.split("-")):
                if c in hub_at:
                    self.attach.append((at[a], hub_at[c]))
                elif a in hub_at:
                    self.attach.append((at[c], hub_at[a]))
                else:
                    self.block.append((at[a], at[c]))
        self.ring = tuple(at[a] for a in ring.split("-")) if ring else None
        # the fewest vertices of one copy that a hub meets: hubs have degree s times that
        self.share = min(Counter(h for _, h in self.attach).values(), default=3)
        self.copy1 = [{at[a]: at[c] for a, c in _cycles(m).items()} for m in copy1]
        self.every = [([(at[a], at[c]) for a, c in moves.items() if a in at],
                       [(hub_at[a], hub_at[c]) for a, c in moves.items() if a in hub_at])
                      for moves in map(_cycles, every)]
        side = _cycles(side)
        self.side = [at[side.get(name, name)] for name in names]


_TEMPLATES = {
    "h1": _Template("u1 u2 u3 u4 u5 u6", "u1-u2-u3-u4-u5-u6-u1 u1-v1-u4 u2-v2-u5 u3-v3-u6",
                    hubs="v1 v2 v3", copy1=("(u1 u4)(u2 u5)(u3 u6)",),
                    every=("(u1 u2 u3 u4 u5 u6)(v1 v2 v3)", "(u1 u2)(u3 u6)(u4 u5)(v1 v2)")),
    "h2": _Template("u1 u2 u3 u4 u5 v1 v2 v3 v4 v5 w1 w2 w3 w4 w5",
                    "u1-u2-u3-u4-u5-u1 v1-v2-v3-v4-v5-v1 u1-w1-v1 u2-w2-v2 u3-w3-v3 u4-w4-v4 "
                    "u5-w5-v5 w1-z w2-z w3-z w4-z w5-z",
                    hubs="z", copy1=("(u1 u2 u3 u4 u5)(v1 v2 v3 v4 v5)(w1 w2 w3 w4 w5)",
                                     "(u2 u5)(u3 u4)(v2 v5)(v3 v4)(w2 w5)(w3 w4)",
                                     "(u1 v1)(u2 v2)(u3 v3)(u4 v4)(u5 v5)")),
    # u1 and u2 have degree 2 in the gadget and reach 3 through the ring
    # edges; its w vertices form one 8-cycle
    "h3": _Template("u1 u2 v11 v12 v21 v22 w11 w12 w13 w14 w21 w22 w23 w24",
                    "v11-u1-v12 v21-u2-v22 w11-v11-w12 w13-v12-w14 w21-v21-w22 w23-v22-w24 "
                    "w11-w21-w23-w12-w14-w24-w22-w13-w11",
                    ring="u2-u1", min_size=4, regular=3,
                    side="(u1 u2)(v11 v21)(v12 v22)(w11 w21)(w12 w22)(w13 w23)(w14 w24)",
                    copy1=("(v11 v12)(w11 w13)(w12 w14)(w21 w22)(w23 w24)",
                           "(v21 v22)(w21 w23)(w22 w24)(w11 w12)(w13 w14)")),
    "h4": _Template("u1 u2 u3 u4 u5 u6 v1 v2 v3",
                    "u1-u2-u3-u4-u5-u6-u1 u1-v1-u4 u2-v2-u5 u3-v3-u6 v1-z v2-z v3-z",
                    hubs="z", copy1=("(u1 u2 u3 u4 u5 u6)(v1 v2 v3)", "(u1 u2)(u3 u6)(u4 u5)(v1 v2)")),
}


def order(family: str, size: int) -> int:
    """The order n of family(size), refused above the cap before anything is built."""
    if family == "gp":
        n = 2 * size
    else:
        t = _TEMPLATES[family]
        n = t.b * size + len(t.hubs)
    if n > VERTEX_CAP:
        raise ConstructionError(f"{family}({size}) has {n} vertices, above the cap of {VERTEX_CAP}")
    return n


def read_size(digits: str) -> int:
    """An id's size from its ASCII digits.  Every sized id's order is at least
    its size, so a run of over 20 significant digits is refused as over the
    cap before ``int()`` (which reads at most 4300) sees it."""
    run = digits.lstrip("0")
    if len(run) > 20:
        raise ConstructionError(f"a size of {len(run)} digits is above the vertex cap of {VERTEX_CAP}")
    return int(run or "0")


_LABEL = re.compile(r"([a-z])([1-9][0-9]*)\.(.+)")


def vertex(family: str, s: int, label: str) -> int:
    """The id of the vertex labelled ``label`` in family(s), one of h1–h4,
    read off its template without building it: ``vertex("h2", 3, "w1.2")``."""
    t = _TEMPLATES[family]
    if label in t.hub_at:
        return t.b * s + t.hub_at[label]
    m = _LABEL.fullmatch(label)
    if m and 1 <= int(m[2]) <= s and (m[1], m[3]) in t.label_at:
        return (int(m[2]) - 1) * t.b + t.label_at[m[1], m[3]]
    raise ConstructionError(f"{family}({s}) has no vertex {label!r}")


def _validate(fg: NamedGraph, min_degree: int, regular: int | None = None) -> NamedGraph:
    """``fg``, or ConstructionError naming it and the first failed test:
    ``core.gate`` with ``min_degree``, then ``regular`` degrees if given."""
    failed = gate(fg.graph, min_degree=min_degree)
    if failed:
        raise ConstructionError(f"{fg.id}: fails the class gate: {failed}")
    if regular is not None and degree_classes(fg.graph).keys() != {regular}:
        raise ConstructionError(f"{fg.id}: not {regular}-regular")
    return fg


def _build(family: str, s: int) -> NamedGraph:
    """family(s) from its template: graph, labels, generators, then ``_validate``."""
    t = _TEMPLATES[family]
    if s < t.min_size:
        raise ConstructionError(f"{family} needs s >= {t.min_size}")
    n = order(family, s)
    b = t.b
    hub0 = b * s
    bases = range(0, hub0, b)
    edges = [(base + x, base + y) for base in bases for x, y in t.block]
    edges += [(base + x, hub0 + h) for base in bases for x, h in t.attach]
    labels = {base + x: f"{c}{i}.{rest}"
              for i, base in enumerate(bases, 1) for x, (c, rest) in enumerate(t.parts)}
    labels.update(zip(range(hub0, n), t.hubs))
    if t.ring:
        x, y = t.ring
        edges += [(base + x, (base + b + y) % n) for base in bases]
        side = t.side
        gens = [_perm(range(n), lambda v: (v + b) % n),
                _perm(range(n), lambda v: (-(v // b)) % s * b + side[v % b])]
    else:
        # the transposition of copies i and i+1, built from its two blocks alone
        gens = [_perm(range(base, base + 2 * b), lambda v, mid=base + b: v + b if v < mid else v - b)
                for base in bases[:-1]]
    gens += [dict(moves) for moves in t.copy1]
    gens += [{**{base + x: base + y for base in bases for x, y in block},
              **{hub0 + h: hub0 + k for h, k in hubs}} for block, hubs in t.every]
    fg = NamedGraph(f"{family}:{s}", build(n, edges), labels, tuple(gens))
    return _validate(fg, min(3, s * t.share), t.regular)


def h1(s: int) -> NamedGraph:
    """s disjoint 6-cycles plus hubs v1,v2,v3; u^(i)_j ~ v_h iff j = h (mod 3).

    Order 6s+3.  Minimum degree 3 needs s >= 2 (the hubs have degree 2s).
    """
    return _build("h1", s)


def h2(s: int) -> NamedGraph:
    """s copies of the double-5-cycle gadget joined through the hub z.

    Each copy has 5-cycles u1..u5 and v1..v5 plus w_j adjacent to u_j, v_j;
    z is adjacent to every w.  Order 15s+1.
    """
    return _build("h2", s)


def h3(s: int) -> NamedGraph:
    """Ring of s 14-vertex gadget copies joined by edges u^(i)_2 u^(i+1)_1 (mod s).

    Order 14s, 3-regular.  s >= 4 keeps the ring from closing short cycles.
    """
    return _build("h3", s)


def h4(s: int) -> NamedGraph:
    """s copies of the 9-vertex h1 block plus a hub z on all v vertices.

    Each block B_i is a 6-cycle with v_1,v_2,v_3 attached by the mod-3 rule;
    B_i together with z induces a Petersen graph.  Order 9s+1.
    """
    return _build("h4", s)


# ---------------------------------------------------------------- gp

def gp(n: int) -> NamedGraph:
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
    fg = NamedGraph(f"gp:{n}", build(vertices, edges), labels, gens)
    return _validate(fg, 3, regular=3)


FAMILIES: dict[str, Callable[[int], NamedGraph]] = {"h1": h1, "h2": h2, "h3": h3, "h4": h4, "gp": gp}


def make_family(family_id: str) -> NamedGraph:
    """Build a family id like "h1:5" or "gp:25", as ``patterns.make`` does."""
    head, sep, tail = family_id.strip().lower().partition(":")
    if head not in FAMILIES:
        raise ConstructionError(f"unknown family id {family_id!r}")
    if not sep:
        raise ConstructionError(f"family id {family_id!r} needs a size, as in {head}:5")
    if not re.fullmatch("[0-9]+", tail):
        raise ConstructionError(f"bad size in family id {family_id!r}")
    return FAMILIES[head](read_size(tail))
