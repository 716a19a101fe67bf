"""Catalog of the named tree patterns and the three small cubic graphs.

Every catalog tree is one parent array and one name list through one
builder, ``_tree``: vertex v >= 1 hangs from an earlier vertex, so vertex 0
is the root and ids follow the order the names are listed in.  All but
T8star are a spine: the main path u1..un, then legs hung from it in a fixed
order (the length-2 branch at u3 is v3, v3', pendants are w_i at u_i).
Embeddings and witness sets therefore replay deterministically.  ``make``
resolves every graph id to a ``families.NamedGraph``: fixed names (T8_1,
petersen, ...) from one table, ``_NAMED``, and sized ids (T9, S8:0110, h1:5,
...) from another, ``_FORMS``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import lru_cache

from .core import Graph, bits, build, check_order, contract_edge, degree_classes, is_connected
from .errors import ConstructionError, NotATreeError, UsageError
from .families import NamedGraph, make_family, read_size
from . import embed, families


def _tree(tree_id: str, parents: list[int], names: list[str]) -> NamedGraph:
    """Vertex v >= 1 hangs from ``parents[v] < v`` and is labelled ``names[v]``;
    ``parents[0]`` is not read."""
    edges = [(parents[v], v) for v in range(1, len(names))]
    return NamedGraph(tree_id, build(len(names), edges), dict(enumerate(names)))


def _spine(tree_id: str, n: int, legs: list[tuple[int, str]]) -> NamedGraph:
    """The path u1..un plus legs: ``(i, "a b")`` hangs the path a-b from u_i."""
    check_order(n + sum(len(leg.split()) for _, leg in legs))
    parents = [0, *range(n - 1)]
    names = [f"u{i + 1}" for i in range(n)]
    for i, leg in legs:
        at = i - 1
        for name in leg.split():
            parents.append(at)
            at = len(names)
            names.append(name)
    return _tree(tree_id, parents, names)


def path(n: int) -> NamedGraph:
    if n < 1:
        raise ConstructionError("path needs n >= 1")
    return _spine(f"P{n}", n, [])


def cycle(n: int) -> NamedGraph:
    if n < 3:
        raise ConstructionError("cycle needs n >= 3")
    check_order(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return NamedGraph(f"C{n}", build(n, edges), {i: f"u{i + 1}" for i in range(n)})


def t_tree(n: int) -> NamedGraph:
    """Path u1..un plus the branch u3-v3-v3'.  Order n+2."""
    if n < 4:
        raise ConstructionError("T-tree needs n >= 4")
    return _spine(f"T{n}", n, [(3, "v3 v3'")])


def tstar_tree(n: int) -> NamedGraph:
    """T-tree with a second length-2 branch at u_{n-2}.  Order n+4."""
    if n < 6:
        raise ConstructionError("Tstar-tree needs n >= 6")
    return _spine(f"Tstar{n}", n, [(3, "v3 v3'"), (n - 2, f"w{n - 2} w{n - 2}'")])


def s_tree(n: int, flags: tuple[int, ...]) -> NamedGraph:
    """T-tree with pendants w_i at each u_i (4 <= i <= n-1) where the flag is 1."""
    if n < 5:
        raise ConstructionError("S-tree needs n >= 5")
    if len(flags) != n - 4 or any(f not in (0, 1) for f in flags):
        raise ConstructionError(f"S{n} needs {n - 4} flags in {{0,1}}")
    pendants = [(i, f"w{i}") for i, f in zip(range(4, n), flags) if f]
    bits = "".join(str(f) for f in flags)
    return _spine(f"S{n}:{bits}", n, [(3, "v3 v3'"), *pendants])


def t8_1() -> NamedGraph:
    """Path of 8, branch at u3, pendants at u5 and u6 (order 12)."""
    return _spine("T8_1", 8, [(3, "v3 v3'"), (5, "w5"), (6, "w6")])


def t8_2() -> NamedGraph:
    """Path of 8, branch at u3, pendant at u4 (order 11)."""
    return _spine("T8_2", 8, [(3, "v3 v3'"), (4, "w4")])


def s8_1() -> NamedGraph:
    """Path of 8, length-2 branches at u3 and u6, pendants at u4, u5 (order 14)."""
    return _spine("S8_1", 8, [(3, "v3 v3'"), (6, "v6 v6'"), (4, "w4"), (5, "w5")])


def s8_2() -> NamedGraph:
    """Path of 8 with pendants at u4 and u5 (order 10)."""
    return _spine("S8_2", 8, [(4, "w4"), (5, "w5")])


def t8star(p1: int, p2: int) -> NamedGraph:
    """Double spider of order 2*p1 + 2*p2 + 6.

    Hubs v and w are joined by the path v-a1-b1-w; a1 carries the pendant
    x1; v carries p1 legs of length 2 plus one extra pendant; w carries p2
    legs of length 2.
    """
    if p1 < 1 or p2 < 1:
        raise ConstructionError("t8star needs p1, p2 >= 1")
    check_order(2 * p1 + 2 * p2 + 6)
    parents = [0, 0, 1, 2, 1, 0]
    names = ["v", "a1", "b1", "w", "x1", f"a{p1 + 2}"]
    for hub, legs in ((0, [f"a{i} x{i}" for i in range(2, p1 + 2)]),
                      (3, [f"b{j} y{j}" for j in range(2, p2 + 2)])):
        for leg in legs:
            parents += [hub, len(names)]
            names += leg.split()
    return _tree(f"T8star:{p1},{p2}", parents, names)


def petersen() -> NamedGraph:
    """Generalized Petersen GP(5,2), ``families.gp(5)`` under its own id:
    outer u_i, inner v_i, spokes u_i v_i."""
    return replace(families.gp(5), id="petersen")


def heawood() -> NamedGraph:
    """Fano incidence graph in its standard circular (LCF [5,-5]^7) labeling.

    Even ids are points, odd ids are lines; (0,1) is a cycle edge, which is
    what contracted_heawood() contracts.
    """
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return NamedGraph("heawood", build(14, edges), {i: str(i) for i in range(14)})


def contracted_heawood() -> NamedGraph:
    g = contract_edge(heawood().graph, (0, 1))
    return NamedGraph("contracted_heawood", g, {i: str(i) for i in range(13)})


# Every fixed catalog name, keyed by its lower-case id.
_NAMED = {f.__name__: f for f in (t8_1, t8_2, s8_1, s8_2, petersen, heawood, contracted_heawood)}
# Every sized id form, full-matched against the lower-case id; sizes and
# flags are ASCII digits; ``s_tree`` and ``make_family`` word their own errors.
_FORMS = (
    (re.compile(r"t8star:([0-9]+),([0-9]+)"), lambda p1, p2: t8star(read_size(p1), read_size(p2))),
    (re.compile(r"tstar([0-9]+)"), lambda n: tstar_tree(read_size(n))),
    (re.compile(r"s([0-9]+):([0-9]*)"), lambda n, flags: s_tree(read_size(n), tuple(map(int, flags)))),
    (re.compile(r"p([0-9]+)"), lambda n: path(read_size(n))),
    (re.compile(r"c([0-9]+)"), lambda n: cycle(read_size(n))),
    (re.compile(r"t([0-9]+)"), lambda n: t_tree(read_size(n))),
    (re.compile(r"((?:h[1-4]|gp)(?::.*)?)", re.S), make_family),
)


@lru_cache(maxsize=embed.PLAN_CACHE)
def make(graph_id: str) -> NamedGraph:
    """Resolve a graph id: T9, T8_1, S8:0110, Tstar8, T8star:2,1, P10,
    petersen, h1:5, gp:25, ...

    The record is built once while it stays among the last PLAN_CACHE ids
    asked for, as the search plan of its graph is (``embed._plan``), and is
    shared: callers must not mutate it.
    """
    s = graph_id.strip().lower()
    if s in _NAMED:
        return _NAMED[s]()
    for form, builder in _FORMS:
        m = form.fullmatch(s)
        if m:
            return builder(*m.groups())
    raise UsageError(f"unknown pattern id {graph_id!r}")


def is_tree(g: Graph) -> bool:
    return g.n > 0 and is_connected(g) and g.edge_count == g.n - 1


def is_caterpillar(t: Graph) -> bool:
    """True iff deleting the vertices of some path leaves no edges.

    Decided by leaf stripping: a tree is a caterpillar exactly when removing
    all its leaves yields a (possibly empty) path.  The inner vertices (degree
    >= 2) induce a subtree, which is a path iff each inner vertex has at most
    two inner neighbours: one row AND each.
    """
    if not is_tree(t):
        raise NotATreeError("is_caterpillar needs a tree")
    inner = sum(m for d, m in degree_classes(t).items() if d >= 2)
    return all((t.row(v) & inner).bit_count() <= 2 for v in bits(inner))


def is_subtree(t: Graph, host: Graph) -> bool:
    """Subgraph containment for trees in trees.

    Any connected subgraph of a tree is induced, so this reduces to an
    induced embedding and is routed through the engine.
    """
    if not is_tree(t) or not is_tree(host):
        raise NotATreeError("is_subtree needs two trees")
    return embed.find_induced(t, host) is not None
