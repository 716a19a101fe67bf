from __future__ import annotations

import hashlib
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefree import core
from treefree.core import (
    VERTEX_CAP,
    bits,
    block_swaps,
    build,
    components,
    contract_edge,
    degree_classes,
    diameter,
    distance,
    induced,
    is_bipartite,
    is_c3c4_free,
    is_connected,
    mask_of,
    nbhd,
    orbits,
    rotation_roots,
    stats,
)
from treefree.errors import ConstructionError, DisconnectedError, DomainError, MissingEdgeError
from treefree.families import gp, h1, h2, h3, h4
from treefree.graphio import emit_graph6, parse_graph6
from treefree.patterns import cycle, heawood, path, petersen
from treefree.embed import is_isomorphic

from .oracles import (
    bfs_distances,
    brute_diameter,
    generalized_petersen,
    generator_orbits,
    girth_at_least_5,
    has_c3_or_c4,
    oracle_block_rotation,
    oracle_is_automorphism,
    random_girth5_cubic,
    random_girth5_necklace,
    random_graph,
    shortest_cycle,
)


def test_build_complete_graph():
    g = build(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3 and g.edge_count == 3


def test_build_rejects_loop():
    with pytest.raises(ConstructionError):
        build(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ConstructionError):
        build(3, [(0, 3)])


def test_build_refuses_an_order_outside_the_vertex_cap():
    for n in (-1, VERTEX_CAP + 1):
        with pytest.raises(ConstructionError, match=f"^vertex count {n} outside 0..65535$"):
            build(n, [])
    assert build(VERTEX_CAP, []).n == VERTEX_CAP


def test_build_dedups_symmetric_pair():
    g = build(4, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_c3c4_free_examples():
    assert not is_c3c4_free(build(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_c3c4_free(cycle(5).graph)
    assert is_c3c4_free(petersen().graph)
    assert not has_c3_or_c4(petersen().graph)


def test_c3c4_free_matches_neighborhood_characterization():
    rng = Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 9), 0.35)
        by_def = not has_c3_or_c4(g)
        independent = all(
            not (g.row(u) & g.row(v))
            for u in range(g.n)
            for v in g.neighbors(u)
        )
        shared = all(
            (g.row(u) & g.row(v)).bit_count() <= 1
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        assert is_c3c4_free(g) == by_def == (independent and shared)


def _nx_graph(g):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def test_c3c4_free_agrees_with_networkx_girth_on_hub_hosts():
    # a hub of degree d adds d (d - 1) to the count identity.  An edge from a
    # vertex to one two steps away closes a C3, to one three steps away a C4
    # and no C3; each runs from the hub when the hub has such a vertex (h2's
    # and h4's hubs reach every vertex in two steps)
    nx = pytest.importorskip("networkx")
    hosts = [h1(s).graph for s in (2, 3, 5)] + [h2(s).graph for s in (1, 3, 4)]
    hosts += [h4(s).graph for s in (2, 3, 5)]
    from_hub = 0
    for g in hosts:
        G = _nx_graph(g)
        assert is_c3c4_free(g) and nx.girth(G) >= 5
        hub = max(G, key=lambda v: (G.degree(v), -v))
        for steps in (2, 3):
            u, v = next((u, v) for u in (hub, *G) for v, d in
                        sorted(nx.single_source_shortest_path_length(G, u, cutoff=3).items())
                        if d == steps)
            from_hub += u == hub
            extra = build(g.n, [*g.edges(), (u, v)])
            assert nx.girth(_nx_graph(extra)) == steps + 1
            assert not is_c3c4_free(extra)
    assert from_hub == len(hosts) + 3  # every C3 edge, and h1's C4 edges


def test_c3c4_free_agrees_with_networkx_girth_with_isolated_vertices():
    nx = pytest.importorskip("networkx")
    rng = Random(61)
    pet, c5, c4 = petersen().graph, cycle(5).graph, cycle(4).graph

    def union(*parts, isolated=0):
        edges, base = [], 0
        for part in parts:
            edges += [(base + a, base + b) for a, b in part.edges()]
            base += part.n
        return build(base + isolated, edges)

    graphs = [build(1, []), build(3, []), union(pet, isolated=2), union(c5, pet, c5),
              union(pet, c4, isolated=1), union(c5, build(3, [(0, 1), (1, 2), (0, 2)]), isolated=3)]
    for _ in range(150):
        n = rng.randint(2, 30)
        graphs.append(random_graph(rng, n, rng.choice([0.5, 1.0, 2.0, 4.0]) / n))
    free = isolated = 0
    for g in graphs:
        G = _nx_graph(g)
        assert is_c3c4_free(g) == girth_at_least_5(g.n, g.edges()) == (nx.girth(G) >= 5), emit_graph6(g)
        free += nx.girth(G) >= 5
        isolated += any(d == 0 for _, d in G.degree())
    assert free >= 40 and len(graphs) - free >= 40 and isolated >= 100


def test_degree_classes_match_networkx_degree_histogram():
    nx = pytest.importorskip("networkx")
    rng = Random(67)
    graphs = [build(0, []), build(4, []), h2(3).graph]
    graphs += [random_graph(rng, rng.randint(1, 40), rng.choice([0.05, 0.2, 0.5])) for _ in range(60)]
    for g in graphs:
        classes = degree_classes(g)
        hist = nx.degree_histogram(_nx_graph(g))
        assert {d: m.bit_count() for d, m in classes.items()} == {d: c for d, c in enumerate(hist) if c}
        assert all(g.degree(v) == d for d, m in classes.items() for v in bits(m))
        assert sum(classes.values()) == (1 << g.n) - 1
        assert degree_classes(g) is classes  # kept on the graph
        assert stats(g)[:2] == (min(classes, default=0), max(classes, default=0))


def test_random_girth5_cubic_is_pinned():
    # the first graphs the test generator draws at three seeds; its filter is
    # a pair test of its own, independent of core.is_c3c4_free
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        rng = Random(seed)
        for n in (24, 30, 40):
            g = random_girth5_cubic(rng, n)
            assert is_c3c4_free(g) and is_connected(g) and {g.degree(v) for v in range(n)} == {3}
            h.update(emit_graph6(g).encode() + b"\n")
    assert h.hexdigest()[:16] == "09f0e95df196e5a8"


def test_distance_examples():
    c6 = cycle(6).graph
    assert distance(c6, 0, 3) == 3
    assert distance(c6, 2, 2) == 0
    two = build(4, [(0, 1), (2, 3)])
    assert distance(two, 0, 3) is None
    p5 = path(5).graph
    for u, v in ((0, -1), (0, 9), (9, 0)):
        with pytest.raises(DomainError):
            distance(p5, u, v)


def test_distance_is_a_metric_on_samples():
    rng = Random(9)
    for _ in range(40):
        g = random_graph(rng, 8, 0.4)
        for _ in range(20):
            a, b, c = (rng.randrange(8) for _ in range(3))
            dab, dbc, dac = distance(g, a, b), distance(g, b, c), distance(g, a, c)
            assert dab == distance(g, b, a)
            assert (dab == 0) == (a == b)
            if None not in (dab, dbc, dac):
                assert dac <= dab + dbc


def test_diameter_examples():
    assert diameter(path(5).graph) == 4
    assert diameter(petersen().graph) == 2
    assert brute_diameter(petersen().graph) == 2
    assert diameter(build(1, [])) == 0
    with pytest.raises(DisconnectedError):
        diameter(build(4, [(0, 1), (2, 3)]))


def _with_round_trip(g):
    return [g, parse_graph6(emit_graph6(g))]


def test_rotation_roots_on_constructor_labelled_rings():
    # gp(n) turns 2 blocks of n ids by 1, h3(s) 1 block by 14 and C11 1
    # block by 1, and so do their graph6 copies; the mask holds the least
    # vertex of each orbit of the oracle's rotation
    rings = [(gp(n).graph, 1 | 1 << n) for n in range(5, 132, 2)]
    rings += [(h3(s).graph, (1 << 14) - 1) for s in range(4, 13)]
    rings.append((cycle(11).graph, 1))
    for g, mask in rings:
        assert orbits([oracle_block_rotation(g)], g.n)[0] == mask, g
        assert [rotation_roots(copy) for copy in _with_round_trip(g)] == [mask, mask], g


def test_orbits_join_two_classes_whichever_root_is_lower():
    # the 4-cycle (0 5 1 4): its moves 5 -> 1 and 4 -> 0 join classes whose
    # second root is the lower one, which a union one way round leaves
    # apart (roots 0b1111, sizes {0: 2, 1: 2})
    cycle4 = {5: 1, 4: 0, 1: 4, 0: 5}
    assert orbits([cycle4], 6) == (0b1101, {0: 4})
    cases = [(6, [cycle4])]
    rng = Random(2027)
    for _ in range(40):
        n = rng.randint(2, 12)
        gens = []
        for _ in range(rng.randint(1, 3)):
            moved = rng.sample(range(n), rng.randint(2, n))
            image = moved[:]
            rng.shuffle(image)
            gens.append({x: y for x, y in zip(moved, image) if x != y})
        cases.append((n, gens))
    for n, gens in cases:
        found = generator_orbits(n, gens)
        assert orbits(gens, n) == (sum(1 << orbit[0] for orbit in found),
                                   {orbit[0]: len(orbit) for orbit in found if len(orbit) > 1}), gens


def test_rotation_roots_is_none_without_one():
    rng = Random(2026)
    g = gp(41).graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    hosts = [build(g.n, [(perm[a], perm[b]) for a, b in g.edges()])]
    hosts += [random_girth5_cubic(rng, 2 * rng.randint(25, 60)) for _ in range(3)]
    # the 2-switch u20-u21, v21-v23 -> u20-v21, u21-v23 keeps every degree
    # and vertex 0's row under gp(41)'s rotation, so only the whole
    # automorphism check can refuse that rotation
    u20, u21, v21, v23 = 20, 21, 41 + 21, 41 + 23
    switched = build(g.n, [e for e in g.edges() if e not in ((u20, u21), (v21, v23))]
                     + [(u20, v21), (u21, v23)])
    rotation = oracle_block_rotation(g)
    assert [switched.degree(v) for v in range(g.n)] == [3] * g.n
    assert sum(1 << rotation[u] for u in bits(switched.row(0))) == switched.row(rotation[0])
    for host in hosts + [switched]:
        assert rotation_roots(host) is None and oracle_block_rotation(host) is None


def test_rotation_roots_are_found_once_per_graph(monkeypatch):
    # the mask, or None, is kept on the graph after the first ask
    calls = []
    find = core._rotation_roots
    monkeypatch.setattr(core, "_rotation_roots", lambda g: calls.append(g.n) or find(g))
    ring, line = parse_graph6(emit_graph6(gp(41).graph)), parse_graph6(emit_graph6(path(7).graph))
    assert [rotation_roots(g) for g in (ring, ring, line, line)] == [1 | 1 << 41] * 2 + [None] * 2
    assert calls == [82, 7]


def _copy_swap(base: int, b: int) -> dict[int, int]:
    """The moves of the swap of ids base .. base + b - 1 with the next b ids."""
    return {**{x: x + b for x in range(base, base + b)}, **{x + b: x for x in range(base, base + b)}}


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def test_block_swaps_of_graph6_copy_hosts_are_automorphisms():
    # h1, h2 and h4 read back from graph6: every swap of adjacent copies,
    # after one swap inside copy 1 (h1 and h4: its halves u1 u2 u3 and u4 u5
    # u6; h2: its u and v 5-cycles)
    hosts = [(h1(s).graph, 3, 6, s) for s in range(2, 7)]
    hosts += [(h2(s).graph, 5, 15, s) for s in range(1, 6)]
    hosts += [(h4(s).graph, 3, 9, s) for s in range(1, 6)]
    for g, half, b, s in hosts:
        copy = parse_graph6(emit_graph6(g))
        swaps = block_swaps(copy)
        assert all(oracle_is_automorphism(copy, moves) for moves in swaps), g
        assert list(swaps) == [_copy_swap(0, half)] + [_copy_swap(i * b, b) for i in range(s - 1)], g
    # h2(3) with edge u3-u4 of copy 2 dropped: the swap of copies 1 and 2
    # keeps vertex 0's row, so only the whole automorphism check refuses it
    g = h2(3).graph
    damaged = build(g.n, [e for e in g.edges() if e != (17, 18)])
    assert sum(1 << _copy_swap(0, 15)[u] for u in bits(damaged.row(0))) == damaged.row(15)
    swaps = block_swaps(damaged)
    assert all(oracle_is_automorphism(damaged, moves) for moves in swaps)
    assert list(swaps) == [_copy_swap(0, 5)]


def test_block_swaps_are_empty_without_copies_in_id_order():
    rng = Random(34)
    hosts = [parse_graph6(emit_graph6(gp(n).graph)) for n in range(5, 32, 2)]
    hosts += [parse_graph6(emit_graph6(h3(s).graph)) for s in (5, 7)]
    hosts += [_relabelled(rng, fg.graph) for fg in (h1(3), h2(2), h4(3), gp(11))]
    hosts += [random_girth5_cubic(rng, 2 * rng.randint(10, 30)) for _ in range(4)]
    for g in hosts:
        assert block_swaps(g) == (), g
    # an even ring's half turn swaps its two halves, a block of 7s ids each
    for s in (4, 6):
        assert block_swaps(h3(s).graph) == (_copy_swap(0, 7 * s),)


def test_block_swaps_hold_at_most_2n_moves_and_are_found_once_per_graph(monkeypatch):
    # the scan stops at the first block size that swaps three or more blocks
    calls = []
    find = core._block_swaps
    monkeypatch.setattr(core, "_block_swaps", lambda g: calls.append(g.n) or find(g))
    for fg, b in ((h1(500), 6), (h2(200), 15), (h4(300), 9)):
        g = parse_graph6(emit_graph6(fg.graph))
        swaps = block_swaps(g)
        assert block_swaps(g) is swaps
        s = int(fg.id.partition(":")[2])
        assert list(swaps[1:]) == [_copy_swap(i * b, b) for i in range(s - 1)]
        assert sum(map(len, swaps)) <= 2 * g.n
    assert calls == [3003, 3001, 2701]


def _two_c5s():
    """Two 5-cycles on ids 0..4 and 5..9: turning the ids by 5 swaps them,
    the least block rotation, so the roots are 0..4."""
    return build(10, [(b + i, b + (i + 1) % 5) for b in (0, 5) for i in range(5)])


def test_rotation_diameter_equals_the_lock_step_sweep_and_networkx(monkeypatch):
    nx = pytest.importorskip("networkx")
    rng = Random(77)
    hosts = [gp(n).graph for n in range(5, 60, 6)] + [h3(s).graph for s in (4, 5, 8)]
    hosts += [random_girth5_necklace(rng, copies, 14, alike=True) for copies in (3, 5)]
    assert all(rotation_roots(g) is not None for g in hosts)
    assert rotation_roots(_two_c5s()) == (1 << 5) - 1
    with pytest.raises(DisconnectedError):
        diameter(_two_c5s())  # the first ball is one C5
    by_rotation = [diameter(g) for g in hosts]
    assert by_rotation == [nx.diameter(nx.Graph(list(g.edges()))) for g in hosts]
    # hiding the rotation sends every host through the lock-step sweep
    monkeypatch.setattr(core, "rotation_roots", lambda g: None)
    assert [diameter(g) for g in hosts] == by_rotation
    with pytest.raises(DisconnectedError):
        diameter(_two_c5s())


def test_c3c4_free_within_a_mask_tests_the_cycles_through_it():
    # a C3 or C4 passes through v iff two neighbours of v are adjacent or
    # share a neighbour other than v
    rng = Random(83)
    for _ in range(60):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice([1.0, 2.0, 3.0]) / n)
        nbrs = [set(g.neighbors(v)) for v in range(n)]
        through = [any(u in nbrs[w] or nbrs[u] & nbrs[w] - {v} for u, w in combinations(nbrs[v], 2))
                   for v in range(n)]
        assert [is_c3c4_free(g, 1 << v) for v in range(n)] == [not t for t in through]
        assert is_c3c4_free(g, (1 << n) - 1) == is_c3c4_free(g) == (not any(through))
        assert is_c3c4_free(g, 0)


def test_rotation_roots_decide_c3c4_freeness():
    # the block rotation carries every C3 and C4 onto one through an orbit
    # root, so the roots decide the graph.  The C4s of GP(8, 2) and
    # GP(12, 3) and the C3s of GP(9, 3) run through the inner orbit alone,
    # so the lowest root by itself would call them free
    rng = Random(97)
    hosts = [generalized_petersen(n, k) for n in range(5, 17) for k in range(1, (n + 1) // 2)]
    hosts += [h3(s).graph for s in (4, 5, 7)]
    hosts += [random_girth5_necklace(rng, copies, 2 * rng.randint(7, 9), alike=True) for copies in (3, 4, 6)]
    free = 0
    for g in hosts:
        roots = rotation_roots(g)
        girth5 = shortest_cycle(g) >= 5
        assert roots is not None and is_c3c4_free(g, roots) == is_c3c4_free(g) == girth5, emit_graph6(g)
        free += girth5
    assert (free, len(hosts) - free) == (41, 19)
    for n, k in ((8, 2), (12, 3), (9, 3)):
        g = generalized_petersen(n, k)
        roots = rotation_roots(g)
        assert roots == 1 | 1 << n
        assert not is_c3c4_free(g, roots) and is_c3c4_free(g, roots & -roots)


def _oracle_gates(g):
    """The class test from the oracles, at the minimum degrees 0, 2 and 3:
    BFS reach, the least row popcount, then the exhaustive short-cycle search."""
    if -1 in bfs_distances(g, 0):
        return ["disconnected"] * 3
    short = "c3_c4" if has_c3_or_c4(g) else None
    return ["min_degree" if min(g.degree(v) for v in range(g.n)) < least else short for least in (0, 2, 3)]


def test_the_gate_agrees_with_the_oracles():
    # 200 seeded graphs: random ones (mostly short-cycled or disconnected),
    # and relabelled girth-5 cubic ones whole, with an edge cut (minimum
    # degree 2) or beside a copy of themselves (disconnected, minimum degree 3)
    rng = Random(41)
    cubics = [random_girth5_cubic(rng, n) for n in (10, 12, 14, 14)]
    tags = set()
    for i in range(200):
        if i % 4:
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.2, 0.35, 0.5)))
        else:
            cubic = rng.choice(cubics)
            perm = rng.sample(range(cubic.n), cubic.n)
            edges = [(perm[a], perm[b]) for a, b in cubic.edges()]
            g = [build(cubic.n, edges), build(cubic.n, edges[1:]),
                 build(2 * cubic.n, edges + [(a + cubic.n, b + cubic.n) for a, b in edges])][i // 4 % 3]
        assert [core.gate(g, min_degree=least) for least in (0, 2, 3)] == _oracle_gates(g), emit_graph6(g)
        tags.add(core.gate(g))
    assert tags == {"disconnected", "min_degree", "c3_c4", None}


def test_the_rooted_gate_agrees_with_the_oracles_on_rotation_hosts():
    # GP(n, k) has the block rotation; GP(8, 2)'s C4s and GP(9, 3)'s C3s miss
    # vertex 0's orbit, and GP(12, 1), the prism, has C4s through it
    for n, k in ((5, 2), (7, 2), (8, 2), (8, 3), (9, 3), (9, 4), (12, 1), (12, 5), (13, 5)):
        g = generalized_petersen(n, k)
        assert rotation_roots(g) is not None
        assert core.gate(g, rooted=True) == core.gate(g) == _oracle_gates(g)[2], (n, k)
    # the gate's two cheaper tests come first, rooted or not
    gp7 = generalized_petersen(7, 2)
    cut = build(gp7.n, list(gp7.edges())[1:])
    assert core.gate(cut, rooted=True) == "min_degree"
    assert core.gate(gp(129).graph, rooted=True) is None


def test_shortest_cycle_examples():
    assert shortest_cycle(heawood().graph) == 6
    assert shortest_cycle(path(7).graph) is None
    assert shortest_cycle(cycle(7).graph) == 7


def test_contract_edge_examples():
    hw = heawood().graph
    g = contract_edge(hw, (0, 1))
    assert g.n == 13
    assert all(not g.has_edge(v, v) for v in range(g.n))
    k3 = build(3, [(0, 1), (1, 2), (0, 2)])
    k2 = contract_edge(k3, (0, 1))
    assert (k2.n, k2.edge_count) == (2, 1)
    with pytest.raises(MissingEdgeError):
        contract_edge(build(2, []), (0, 1))


def test_contract_edge_preserves_simplicity():
    rng = Random(21)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        edges = list(g.edges())
        if not edges:
            continue
        e = rng.choice(edges)
        h = contract_edge(g, e)
        assert h.n == g.n - 1
        for v in range(h.n):
            assert not h.has_edge(v, v)
            assert all(h.has_edge(u, v) for u in h.neighbors(v))


def test_stats_examples():
    assert stats(petersen().graph) == (3, 3, True, False)
    assert stats(heawood().graph) == (3, 3, True, True)
    assert stats(build(4, [])) == (0, 0, False, True)


def test_induced_examples():
    c5 = cycle(5).graph
    p4 = induced(c5, [0, 1, 2, 3])
    assert is_isomorphic(p4, path(4).graph)
    assert induced(c5, range(5)) == c5
    assert induced(c5, []).n == 0


def test_induced_edges_match_originals():
    rng = Random(2)
    for _ in range(60):
        g = random_graph(rng, 9, 0.4)
        keep = sorted(rng.sample(range(9), rng.randint(0, 9)))
        sub = induced(g, keep)
        for i, a in enumerate(keep):
            for j, b in enumerate(keep):
                if i < j:
                    assert sub.has_edge(i, j) == g.has_edge(a, b)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build(n, chosen)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_degree_is_row_popcount(g):
    assert all(g.degree(v) == sum(1 for _ in g.neighbors(v)) for v in range(g.n))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def _nx_samples():
    """(graph, networkx copy) pairs: seeded random graphs from empty to dense,
    disconnected ones included, the n = 0 and n = 1 graphs, and girth-4/5/6
    named graphs."""
    rng = Random(31)
    graphs = [build(0, []), build(1, []), build(2, []), petersen().graph, heawood().graph,
              gp(25).graph, cycle(4).graph, cycle(5).graph, path(9).graph]
    for _ in range(150):
        n = rng.randint(2, 40)
        graphs.append(random_graph(rng, n, rng.choice([0.5, 1.5, 3.0, 6.0]) / n))
    for g in graphs:
        yield g, _nx_graph(g)


def test_traversals_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = Random(37)
    disconnected = 0
    for g, G in _nx_samples():
        for v in range(g.n):
            lengths = nx.single_source_shortest_path_length(G, v)
            assert [distance(g, v, u) for u in range(g.n)] == [lengths.get(u) for u in range(g.n)]
        assert components(g) == sorted(sorted(c) for c in nx.connected_components(G))
        # seeded vertex masks: none, one vertex, every vertex, two random subsets
        masks = [0, (1 << g.n) - 1, rng.getrandbits(g.n), rng.getrandbits(g.n) & rng.getrandbits(g.n)]
        masks += [1 << rng.randrange(g.n)] if g.n else []
        for m in masks:
            within = nx.connected_components(G.subgraph(bits(m)))
            assert components(g, m) == sorted(sorted(c) for c in within)
            assert nbhd(g, m) == mask_of(u for v in bits(m) for u in G[v])
        assert is_bipartite(g) == nx.is_bipartite(G)
        assert shortest_cycle(g) == (None if nx.girth(G) == float("inf") else nx.girth(G))
        if g.n == 0:
            assert is_connected(g)
            with pytest.raises(DisconnectedError):
                diameter(g)
        elif nx.is_connected(G):
            assert is_connected(g)
            assert diameter(g) == nx.diameter(G)
        else:
            disconnected += 1
            assert not is_connected(g)
            with pytest.raises(DisconnectedError):
                diameter(g)
    assert disconnected >= 20


def test_c3c4_free_agrees_with_networkx_girth():
    nx = pytest.importorskip("networkx")
    free = 0
    for g, G in _nx_samples():
        assert is_c3c4_free(g) == (nx.girth(G) >= 5)
        free += is_c3c4_free(g)
    assert free >= 20
