from __future__ import annotations

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import islice
from random import Random

import pytest

from treefree import families
from treefree.core import VERTEX_CAP, build, diameter, induced, is_automorphism, is_c3c4_free, stats
from treefree.embed import is_isomorphic
from treefree.errors import ConstructionError
from treefree.families import gp, h1, h2, h3, h4, make_family, order, vertex
from treefree.graphio import emit_dot, emit_graph6
from treefree.patterns import cycle, path, petersen, s_tree, t_tree

from .oracles import (automorphism_orbits, generator_orbits, networkx_graph, oracle_is_automorphism,
                      random_girth5_cubic, shortest_cycle, verify_embedding)


def _ids(family: str, s: int, labels: str) -> list[int]:
    """The ids of the space-separated ``labels`` in family(s)."""
    return [vertex(family, s, label) for label in labels.split()]


def test_h1_orders_and_degrees():
    for s in range(1, 9):
        g = h1(s).graph
        assert g.n == 6 * s + 3
        degs = Counter(g.degree(v) for v in range(g.n))
        assert degs == Counter({3: 6 * s}) + Counter({2 * s: 3})
        assert g.degree(vertex("h1", s, "v1")) == 2 * s
        assert stats(g).connected and is_c3c4_free(g)


def test_h2_orders_and_degrees():
    for s in range(1, 6):
        g = h2(s).graph
        assert g.n == 15 * s + 1
        assert g.degree(vertex("h2", s, "z")) == 5 * s
        for i in range(1, s + 1):
            for j in range(1, 6):
                assert g.degree(vertex("h2", s, f"w{i}.{j}")) == 3
                assert g.degree(vertex("h2", s, f"u{i}.{j}")) == 3
                assert g.degree(vertex("h2", s, f"v{i}.{j}")) == 3
        assert stats(g).min_degree >= 3


def test_h3_is_cubic_with_21s_edges():
    for s in (4, 5, 6):
        g = h3(s).graph
        assert g.n == 14 * s and g.edge_count == 21 * s
        st = stats(g)
        assert (st.min_degree, st.max_degree, st.connected) == (3, 3, True)
    with pytest.raises(ConstructionError):
        h3(3)


def test_h3_gadget_shape():
    g = h3(4).graph
    # ring edges u2 -> next u1; inside a copy u1 and u2 see only v's
    assert g.has_edge(*_ids("h3", 4, "u1.2 u2.1"))
    assert g.has_edge(*_ids("h3", 4, "u4.2 u1.1"))
    assert shortest_cycle(g) >= 5


def test_h4_orders_and_hub_degree():
    for s in range(1, 6):
        g = h4(s).graph
        assert g.n == 9 * s + 1
        assert g.degree(vertex("h4", s, "z")) == 3 * s
        assert stats(g).min_degree >= 3


def test_h4_blocks_with_hub_are_petersen():
    g = h4(3).graph
    pet = petersen().graph
    for i in (1, 2, 3):
        block = _ids("h4", 3, f"u{i}.1 u{i}.2 u{i}.3 u{i}.4 u{i}.5 u{i}.6 v{i}.1 v{i}.2 v{i}.3 z")
        assert is_isomorphic(induced(g, block), pet)


def test_h4_contains_a_long_induced_path():
    g = h4(3).graph
    p = _ids("h4", 3, "u1.3 u1.2 u1.1 v1.1 z v2.1 u2.1 u2.2")
    assert verify_embedding(path(8).graph, g, p)


def test_h2_fixed_t8_witnesses():
    g = h2(3).graph
    t8 = t_tree(8).graph
    first = _ids("h2", 3, "w1.2 u1.2 u1.1 u1.4 u1.5 w1.1 v1.1 v1.5 v1.4 v1.3")
    second = _ids("h2", 3, "w1.2 u1.2 u1.1 v1.1 w1.1 u1.5 u1.4 w1.4 v1.4 v1.3")
    for wset in (first, second):
        assert is_isomorphic(induced(g, wset), t8)


def test_h3_witness_sets_pin_the_gadget():
    s = 4
    g = h3(s).graph
    t5 = t_tree(5).graph
    s700 = s_tree(7, (1, 0, 0)).graph
    prongs = [
        _ids("h3", s, "u1.1 v1.1.1 w1.1.1 w1.2.2 w1.1.3 w1.2.1 w1.2.3"),
        _ids("h3", s, "w1.1.2 v1.1.1 w1.1.1 v1.1.2 w1.1.3 w1.2.1 v1.2.1"),
    ]
    for wset in prongs:
        assert is_isomorphic(induced(g, wset), t5)
    deg3_center = _ids("h3", s, "u4.2 u1.1 v1.1.1 w1.1.3 w1.1.1 w1.1.2 w1.1.4 w1.2.3 v1.2.2 u1.2")
    ring_center = _ids("h3", s, "w1.1.1 v1.1.1 u1.1 w1.1.4 v1.1.2 u4.2 v4.2.2 v4.2.1 w4.2.1 w4.1.1")
    for wset in (deg3_center, ring_center):
        assert is_isomorphic(induced(g, wset), s700)


def test_gp_examples():
    assert is_isomorphic(gp(5).graph, petersen().graph)
    g = gp(25).graph
    assert g.n == 50 and stats(g) == (3, 3, True, False) and is_c3c4_free(g)
    for bad in (4, 6, 3):
        with pytest.raises(ConstructionError):
            gp(bad)


def test_gp_diameter_grows():
    diams = [diameter(gp(n).graph) for n in range(5, 42, 2)]
    assert all(a <= b for a, b in zip(diams, diams[1:]))
    assert diams[0] < diams[-1]


def test_make_family_grammar():
    assert make_family("h1:5").graph.n == 33
    assert make_family("gp:25").graph.n == 50
    for bad in ("h5:2", "h1", "gp:x", "h1:1_0", "gp:\uff12\uff15", "h1:+5", "h1: 5", "h1:" + "9" * 5000):
        with pytest.raises(ConstructionError):
            make_family(bad)


@pytest.mark.parametrize("make, size", [(gp, 32769), (h3, 4682), (h1, 10923), (h2, 4369), (h4, 7282)])
def test_orders_above_the_cap_are_refused_before_building(make, size):
    # one size step below each is at or under the cap; the refusal comes
    # before any vertex row or generator is built
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError, match=f"above the cap of {VERTEX_CAP}"):
            make(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_low_s_values():
    assert h1(1).graph.n == 9
    assert h2(1).graph.n == 16
    assert h4(1).graph.n == 10
    # h4(1) is one block plus z: the Petersen graph itself
    assert is_isomorphic(h4(1).graph, petersen().graph)


_TEMPLATE_SIZES = [(make, s) for make in (h1, h2, h3, h4) for s in range(4 if make is h3 else 1, 9)]


def test_template_outputs_are_pinned():
    """graph6, dot and the generator list (the same dicts in the same order)
    of h1, h2, h4 at s = 1..8 and h3 at s = 4..8, as one digest."""
    digest = hashlib.sha256()
    for make, s in _TEMPLATE_SIZES:
        fg = make(s)
        digest.update(emit_graph6(fg.graph).encode())
        digest.update(emit_dot(fg.graph, fg.labels).encode())
        digest.update(repr([sorted(m.items()) for m in fg.generators]).encode())
    assert digest.hexdigest() == "07ee85e0afe8a8db6233b19a0342c9a2b9d2ecb070e01a7b0db94ceee8ee68d8"


def test_labels_round_trip_through_vertex_and_orders_are_derived():
    for make, s in _TEMPLATE_SIZES:
        fg = make(s)
        assert order(make.__name__, s) == fg.graph.n == len(fg.labels)
        assert all(vertex(make.__name__, s, fg.labels[v]) == v for v in range(fg.graph.n))
    for label in ("u6.1", "u0.1", "u01.1", "u1.7", "v4", "x1.1", "u1", "z"):
        with pytest.raises(ConstructionError, match="has no vertex"):
            vertex("h1", 5, label)


@pytest.mark.parametrize("make, size, count", [
    (h1, 2, 2), (h1, 4, 2), (h2, 2, 3), (h2, 4, 3), (h3, 4, 3), (h3, 5, 3),
    (h4, 2, 3), (h4, 4, 3), (gp, 7, 2), (gp, 9, 2),
])
def test_generators_reach_every_automorphism_orbit(make, size, count):
    """The generator orbits are the orbits of the whole automorphism group,
    as the brute-force automorphism search decides them pair by pair."""
    fg = make(size)
    orbits = automorphism_orbits(fg.graph)
    assert len(orbits) == count
    assert generator_orbits(fg.graph.n, fg.generators) == orbits


def _full(n: int, moves: dict[int, int]) -> list[int]:
    """The generator ``moves`` as a full-length list: entry x is the image of x."""
    return [moves.get(x, x) for x in range(n)]


def _compose(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """The moves of x -> p(q(x))."""
    return {x: y for x in p.keys() | q.keys() if (y := p.get(q.get(x, x), q.get(x, x))) != x}


def test_generators_are_edge_preserving_permutations():
    for fg in (h1(1), h1(3), h2(1), h2(3), h3(4), h3(6), h4(1), h4(3), gp(5), gp(11)):
        g = fg.graph
        for moves in fg.generators:
            assert all(x != y for x, y in moves.items())  # fixed vertices are left out
            perm = _full(g.n, moves)
            assert sorted(perm) == list(range(g.n))
            assert sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges()) == list(g.edges())


@pytest.mark.parametrize("make, size", [(h1, 3), (h1, 100), (h2, 2), (h2, 100), (h3, 4), (h3, 100),
                                        (h4, 2), (h4, 100), (gp, 7), (gp, 201)])
def test_generators_store_o_n_moves(make, size):
    # a full-length permutation per copy swap would total about s * n entries
    fg = make(size)
    assert sum(map(len, fg.generators)) <= 5 * fg.graph.n


def test_a_large_hub_family_builds_in_o_n_memory():
    # s - 1 full-length copy swaps peak at ~59 MB here
    tracemalloc.start()
    try:
        h1(500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("make, size", [(h1, 3), (h2, 2), (h3, 4), (h4, 2), (gp, 7)])
def test_a_non_automorphism_generator_fails_construction(monkeypatch, make, size):
    """Every generator composed with the swap of vertex 0 and the last vertex,
    which lie in different orbits of each of these hosts."""
    n = make(size).graph.n
    orbit_of = {v: k for k, orbit in enumerate(automorphism_orbits(make(size).graph)) for v in orbit}
    assert orbit_of[0] != orbit_of[n - 1]
    swap = {0: n - 1, n - 1: 0}
    real = families._validate
    monkeypatch.setattr(families, "_validate", lambda fg, *args, **kwargs: real(
        replace(fg, generators=tuple(_compose(swap, moves) for moves in fg.generators)), *args, **kwargs))
    with pytest.raises(ConstructionError, match="not an automorphism"):
        make(size)


def test_a_non_permutation_generator_fails_construction(monkeypatch):
    # every generator also sends the last vertex (hub v3) to vertex 0
    real = families._validate
    monkeypatch.setattr(families, "_validate", lambda fg, *args, **kwargs: real(
        replace(fg, generators=tuple({**moves, fg.graph.n - 1: 0} for moves in fg.generators)),
        *args, **kwargs))
    with pytest.raises(ConstructionError, match="not an automorphism"):
        h1(3)


@pytest.mark.parametrize("make, size", [(h1, 3), (h2, 2), (h3, 4), (h4, 2), (gp, 7)])
def test_a_corrupted_generator_fails_construction(make, size):
    """Each generator with the images of its two lowest moved vertices
    swapped, and each one that fixes a vertex with its highest fixed vertex
    (the hub of h1, h2 and h4) moved: exchanged with its lowest moved vertex.
    The check reads only the rows of the moved vertices, and still agrees
    with the edge-by-edge definition on the generators and their products."""
    fg = make(size)
    g = fg.graph
    corrupted = []
    for moves in fg.generators:
        moved = sorted(moves)
        fixed = [x for x in range(g.n) if x not in moves]
        pairs = [moved[:2]] + ([[fixed[-1], moved[0]]] if fixed else [])
        for a, b in pairs:
            bad = dict(moves)
            bad[a], bad[b] = moves.get(b, b), moves.get(a, a)
            corrupted.append(bad)
    assert len(corrupted) > len(fg.generators)  # some corruption moved a fixed vertex
    for bad in corrupted:
        assert not is_automorphism(g, bad) and not oracle_is_automorphism(g, bad)
        with pytest.raises(ConstructionError, match="generator 0 is not an automorphism"):
            families._validate(replace(fg, generators=(bad,)), 3)
    for p in fg.generators:
        for q in fg.generators:
            product = _compose(p, q)
            assert is_automorphism(g, product) and oracle_is_automorphism(g, product)


def test_a_map_that_keeps_the_moved_rows_must_still_be_a_permutation():
    # in C4, 0 -> 2 carries N(0) onto N(2) = N(0), so only the check that the
    # moved set maps onto itself tells this map from an automorphism
    c4 = cycle(4).graph
    assert not is_automorphism(c4, {0: 2})
    assert is_automorphism(c4, {0: 2, 2: 0})
    # an id outside 0..n-1, even one a permutation of the keys would allow
    assert not is_automorphism(c4, {0: 4, 4: 0})
    assert not is_automorphism(c4, {-1: 0, 0: -1})


def test_automorphism_check_matches_the_edge_by_edge_oracle():
    """Seeded relabellings of small gp, h1-h4 and random girth-5 hosts, with
    true automorphisms (the family generators carried along, or the first
    few networkx finds), each with the images of two moved vertices swapped,
    seeded permutations of a few vertices, and maps that are not
    permutations: a key sent outside the keys, two keys sent to one image,
    and an image outside 0..n-1."""
    nx = pytest.importorskip("networkx")
    rng = Random(36)
    hosts = [(fg.graph, fg.generators) for fg in (gp(7), gp(9), h1(2), h2(1), h2(2), h3(4), h4(2))]
    for n in (10, 12, 14, 16):
        g = random_girth5_cubic(rng, n)
        h = networkx_graph(g)
        isos = islice(nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter(), 6)
        hosts.append((g, [{x: y for x, y in iso.items() if x != y} for iso in isos]))
    agreed = Counter()
    for g, gens in hosts:
        perm = list(range(g.n))
        rng.shuffle(perm)
        host = build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        true = [{perm[x]: perm[y] for x, y in moves.items()} for moves in gens]
        maps = list(true)
        for moves in true:
            if len(moves) > 2:
                a, b = rng.sample(sorted(moves), 2)
                bad = dict(moves)
                bad[a], bad[b] = moves[b], moves[a]
                maps.append(bad)
        for _ in range(20):
            part = rng.sample(range(g.n), rng.randint(2, g.n))
            images = rng.sample(part, len(part))
            maps.append(dict(zip(part, images)))
            maps.append(dict(zip(part[1:], images)))
            maps.append({**dict(zip(part, images)), part[0]: images[1]})
            maps.append({**dict(zip(part, images)), part[0]: g.n + rng.randrange(3)})
        assert all(is_automorphism(host, moves) for moves in true)
        for moves in maps:
            verdict = is_automorphism(host, moves)
            assert verdict == oracle_is_automorphism(host, moves), (emit_graph6(host), moves)
            agreed[verdict] += 1
    assert agreed[False] > agreed[True] > 30
