from __future__ import annotations

import sys
from hashlib import sha256
from itertools import combinations
from random import Random

import pytest

from treefree import core, embed
from treefree.cli import _freeness_sweep
from treefree.core import build, induced
from treefree.embed import (
    _search,
    _search_order,
    find_all_induced,
    find_induced,
    is_free,
    is_isomorphic,
)
from treefree.errors import CapacityError
from treefree.families import gp, h1, h2, h3, h4, vertex
from treefree.graphio import checked, emit_graph6, parse_graph6
from treefree.patterns import cycle, make, path, petersen, tstar_tree

from .oracles import (
    bfs_distances,
    generator_orbits,
    networkx_graph,
    oracle_find_induced,
    oracle_induced_maps,
    oracle_maps_along,
    oracle_stabiliser_orbits,
    perm_isomorphic,
    random_girth5_cubic,
    random_girth5_necklace,
    random_graph,
    random_tree,
    verify_embedding,
)
from .test_patterns import _CATALOG_IDS

K3 = build(3, [(0, 1), (1, 2), (0, 2)])


def test_triangle_free_host():
    assert find_induced(K3, cycle(5).graph) is None


def test_p10_absent_from_h1():
    assert find_induced(path(10).graph, h1(5).graph) is None
    assert is_free(h1(5).graph, path(10).graph)


def test_tstar9_found_in_h1_and_quoted_witness_verifies():
    host = h1(5).graph
    emb = find_induced(tstar_tree(9).graph, host)
    assert emb is not None
    assert verify_embedding(tstar_tree(9).graph, host, emb)
    quoted = [vertex("h1", 5, label)
              for label in "u1.6 u1.1 v1 u4.6 u4.1 u2.1 u2.6 u2.5 v2 u5.3 u5.2 u3.2 u3.3".split()]
    assert is_isomorphic(induced(host, quoted), tstar_tree(9).graph)


def test_verify_embedding_rejects_bad_maps():
    p3 = path(3).graph
    c4 = cycle(4).graph
    assert verify_embedding(p3, c4, (0, 1, 2))
    assert not verify_embedding(p3, c4, (0, 1, 1))  # not injective
    assert not verify_embedding(p3, c4, (0, 1, 3))  # image misses middle edge... host edge (0,3) breaks induced
    assert not verify_embedding(p3, c4, (0, 1, 9))  # out of range


def test_empty_pattern_embeds():
    empty = build(0, [])
    assert find_induced(empty, K3) == ()
    assert oracle_find_induced(empty, K3) == ()


def test_pattern_cap():
    big = path(17).graph
    with pytest.raises(CapacityError):
        find_induced(big, h1(5).graph)


def test_oracle_caps():
    with pytest.raises(CapacityError):
        oracle_find_induced(path(9).graph, cycle(12).graph)
    with pytest.raises(CapacityError):
        oracle_find_induced(path(3).graph, h1(7).graph)


def test_oracle_trivial_cases():
    k2 = build(2, [(0, 1)])
    assert oracle_find_induced(k2, k2) is not None
    assert oracle_find_induced(cycle(4).graph, cycle(5).graph) is None


def test_engine_agrees_with_oracle_on_200_random_pairs():
    rng = Random(17)
    for _ in range(200):
        pattern = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.7))
        host = random_graph(rng, rng.randint(1, 20), rng.uniform(0.1, 0.5))
        fast = find_induced(pattern, host)
        slow = oracle_find_induced(pattern, host)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert verify_embedding(pattern, host, fast)


def test_monotonicity_of_containment():
    rng = Random(23)
    hits = 0
    for _ in range(200):
        pattern = random_graph(rng, rng.randint(2, 6), 0.4)
        host = random_graph(rng, rng.randint(4, 16), 0.3)
        if find_induced(pattern, host) is None:
            continue
        hits += 1
        keep = sorted(rng.sample(range(pattern.n), rng.randint(1, pattern.n)))
        sub = induced(pattern, keep)
        assert find_induced(sub, host) is not None
    assert hits >= 20


def test_freeness_invariant_under_relabeling():
    rng = Random(29)
    pattern = path(4).graph
    for _ in range(40):
        host = random_graph(rng, 10, 0.3)
        perm = list(range(10))
        rng.shuffle(perm)
        relabeled = build(10, [(perm[a], perm[b]) for a, b in host.edges()])
        assert is_free(host, pattern) == is_free(relabeled, pattern)


def test_witness_is_deterministic():
    host = h1(5).graph
    pattern = tstar_tree(9).graph
    assert find_induced(pattern, host) == find_induced(pattern, host)


def test_find_all_enumerates_soundly():
    c6 = cycle(6).graph
    p4 = path(4).graph
    embs = find_all_induced(p4, c6)
    assert len(embs) == 12  # 6 starting points x 2 directions
    assert all(verify_embedding(p4, c6, e) for e in embs)
    assert len(set(embs)) == len(embs)
    assert find_all_induced(p4, c6, limit=3) == embs[:3]


def test_iso_examples():
    assert not is_isomorphic(cycle(6).graph, build(6, [(a, b + 3) for a in range(3) for b in range(3)]))
    rng = Random(31)
    g = random_graph(rng, 9, 0.4)
    perm = list(range(9))
    rng.shuffle(perm)
    h = build(9, [(perm[a], perm[b]) for a, b in g.edges()])
    assert is_isomorphic(g, h)


def test_iso_agrees_with_permutation_oracle():
    rng = Random(37)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, 0.4)
        h = random_graph(rng, n, 0.4)
        assert is_isomorphic(g, h) == perm_isomorphic(g, h)


def test_iso_cap():
    # isomorphism shares the pattern cap, whichever argument is over it, and
    # the refusal names the argument that is
    cap = embed.PATTERN_CAP
    big, small = build(cap + 1, []), build(cap, [])
    for g, h, which in ((big, big, "first"), (big, small, "first"), (small, big, "second")):
        with pytest.raises(CapacityError) as err:
            is_isomorphic(g, h)
        assert str(err.value) == f"is_isomorphic's {which} input has {cap + 1} > {cap} vertices"
    assert is_isomorphic(small, small)


def test_petersen_p6():
    # existence decided by the oracle itself; the engine must agree
    pet = petersen().graph
    fast = find_induced(path(6).graph, pet)
    slow = oracle_find_induced(path(6).graph, pet)
    assert (fast is None) == (slow is None)


def test_pattern_components_may_land_beyond_every_pattern_distance():
    # the largest finite distance in K2+K1 and 2K2 is 1, yet in a path every
    # induced copy puts the components at host distance >= 2
    k2_k1 = build(3, [(0, 1)])
    two_k2 = build(4, [(0, 1), (2, 3)])
    p4, p5 = path(4).graph, path(5).graph
    assert find_induced(k2_k1, p4) == oracle_find_induced(k2_k1, p4) == (0, 1, 3)
    embs = find_all_induced(two_k2, p5)
    assert len(embs) == 8  # edges {0,1} and {3,4}, in either order and orientation
    assert all(verify_embedding(two_k2, p5, e) for e in embs)


def test_check_rows_of_edgeless_and_disconnected_patterns():
    # 3K1 has no pattern edge, so its check rows hold no N(h) entry; K2+K1
    # and P3+K3 read the non-neighbour entry across their components
    three_k1 = build(3, [])
    k2_k1 = build(3, [(0, 1)])
    p3_k3 = build(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    p5_k3 = build(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (5, 7)])
    hosts = [path(6).graph, cycle(7).graph, K3, build(5, []), p5_k3]
    rng = Random(61)
    hosts += [random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.6)) for _ in range(12)]
    seen = set()
    for host in hosts:
        for pattern in (three_k1, k2_k1, p3_k3):
            expected = _in_search_order(pattern, oracle_induced_maps(pattern, host))
            assert find_all_induced(pattern, host) == expected, (pattern.n, list(host.edges()))
            assert find_induced(pattern, host) == (expected[0] if expected else None)
            if expected:
                seen.add(pattern)
    assert seen == {three_k1, k2_k1, p3_k3}


def test_engine_agrees_with_networkx_above_the_oracle_host_cap():
    nx = pytest.importorskip("networkx")
    hosts = [gp(n).graph for n in range(21, 66, 4)]
    hosts += [h1(7).graph, h2(3).graph, h3(4).graph, h4(5).graph]
    trees = [make(t).graph for t in ("S8:0001", "T8_1", "T8_2", "T9")]
    for host in hosts:
        assert host.n > 40
        for tree in trees:
            emb = find_induced(tree, host)
            matcher = nx.isomorphism.GraphMatcher(networkx_graph(host), networkx_graph(tree))
            assert (emb is not None) == matcher.subgraph_is_isomorphic()
            assert emb is None or verify_embedding(tree, host, emb)


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _move_edge(rng, g):
    """Same order and size: one edge removed, one non-edge added."""
    edges = list(g.edges())
    non_edges = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b)]
    if not edges or not non_edges:
        return g
    gone = rng.choice(edges)
    return build(g.n, [e for e in edges if e != gone] + [rng.choice(non_edges)])


def _two_switch(rng, g, tries=100):
    """Same degree sequence: edges ab, cd become ac, bd.  Up to ``tries``
    random picks, then the valid switches listed and one drawn from them;
    ``g`` itself when it has none."""

    def valid(a, b, c, d):
        return len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d)

    edges = list(g.edges())
    for _ in range(tries if len(edges) > 1 else 0):
        (a, b), (c, d) = rng.sample(edges, 2)
        if valid(a, b, c, d):
            break
    else:
        switches = [(e, f) for e in edges for f in edges if valid(*e, *f)]
        if not switches:
            return g
        (a, b), (c, d) = rng.choice(switches)
    return build(g.n, [e for e in edges if e not in ((a, b), (c, d))] + [(a, c), (b, d)])


def test_two_switch_returns_the_graph_when_no_switch_is_valid():
    # every pair of edges of a 4-edge star shares the centre
    star = build(9, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert _two_switch(Random(5), star) is star
    two_paths = build(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    switched = _two_switch(Random(5), two_paths, tries=0)
    assert switched.edge_count == 4 and switched != two_paths
    assert sorted(map(switched.degree, range(6))) == sorted(map(two_paths.degree, range(6)))


def test_iso_agrees_with_networkx_up_to_the_pattern_cap():
    nx = pytest.importorskip("networkx")
    rng = Random(41)
    pairs = []
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, embed.PATTERN_CAP), rng.uniform(0.05, 0.3))
        pairs += [(g, _relabel(rng, g)), (g, _relabel(rng, _move_edge(rng, g)))]
    # cubic and vertex-transitive: one refinement class, so the search decides
    for n in (5, 7):
        g = gp(n).graph
        pairs += [(g, _relabel(rng, g)), (g, _relabel(rng, _two_switch(rng, g)))]
    for g, h in pairs:
        assert is_isomorphic(g, h) == nx.is_isomorphic(networkx_graph(g), networkx_graph(h))


def _prufer_tree(seq):
    """The labelled tree on len(seq) + 2 vertices with Prüfer sequence ``seq``;
    vertex v has degree 1 + the number of times v occurs in it."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return build(n, edges)


def test_iso_agrees_with_networkx_on_equal_degree_sequences():
    # the search alone must tell these apart: order, size and degree
    # sequence agree, so no check before it answers
    nx = pytest.importorskip("networkx")
    rng = Random(53)
    pairs = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(8, embed.PATTERN_CAP), rng.uniform(0.15, 0.3))
        h = g
        for _ in range(rng.randint(0, 2)):
            h = _two_switch(rng, h)
        pairs.append((g, _relabel(rng, h)))
    for _ in range(100):
        n = rng.randint(4, embed.PATTERN_CAP)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        shuffled = seq[:]
        rng.shuffle(shuffled)
        pairs.append((_prufer_tree(seq), _relabel(rng, _prufer_tree(shuffled))))
    verdicts = set()
    for g, h in pairs:
        assert sorted(map(g.degree, range(g.n))) == sorted(map(h.degree, range(h.n)))
        verdict = is_isomorphic(g, h)
        assert verdict == nx.is_isomorphic(networkx_graph(g), networkx_graph(h))
        verdicts.add(verdict)
    assert verdicts == {True, False}


CATALOG = ("P5", "P6", "P7", "P8", "P9", "P10", "T5", "T6", "T7", "T8", "T9",
           "Tstar6", "Tstar7", "Tstar8", "Tstar9", "S7:101", "S8:0001", "S8:0110",
           "T8_1", "T8_2", "S8_1", "S8_2", "T8star:1,1", "C5", "C6", "petersen")


def test_rooted_and_unrooted_freeness_agree_on_every_family():
    rng = Random(43)
    patterns = [make(name).graph for name in CATALOG]
    patterns += [random_tree(rng, rng.randint(5, 12)) for _ in range(100)]
    for fg in (h1(2), h1(3), h2(1), h2(2), h3(4), h3(5), h4(2), h4(3), gp(7), gp(11)):
        firsts = [find_induced(p, fg.graph) for p in patterns]
        assert [find_induced(p, fg.graph, fg.generators) for p in patterns] == firsts, fg
        verdicts = [is_free(fg.graph, p) for p in patterns]
        assert [is_free(fg.graph, p, fg.generators) for p in patterns] == verdicts, fg
        assert verdicts == [e is None for e in firsts]
        assert True in verdicts and False in verdicts, fg


@pytest.mark.parametrize("fg", [h1(3), h2(2), h3(4), h4(2), gp(7)], ids=lambda fg: fg.id.replace(":", "(") + ")")
def test_orbit_least_masks_the_least_vertex_of_each_generated_orbit(fg):
    # ``core.orbits`` on the full generator set and every subset of at most two
    # generators, as the orbit tables meet them below a placed prefix
    n = fg.graph.n
    gens = list(fg.generators)
    subsets = [gens] + [list(c) for r in (0, 1, 2) for c in combinations(gens, r)]
    for sub in subsets:
        orbits = generator_orbits(n, sub)
        least, sizes = core.orbits(sub, n)
        assert least == sum(1 << orbit[0] for orbit in orbits)
        # the sizes the Lemma-4.1 scan weights each root's pairs by
        assert sizes == {orbit[0]: len(orbit) for orbit in orbits if len(orbit) > 1}


@pytest.mark.parametrize("fg, tree, nodes", [
    (h2(3), "S8:0001", 116), (h2(3), "Tstar8", 119), (h1(6), "P10", 119),
    (h4(3), "S8_2", 201), (h3(6), "S7:101", 81),
], ids=lambda x: x.id.partition(":")[0] if hasattr(x, "id") else x)
def test_generator_rooted_freeness_searches_are_pinned(fg, tree, nodes):
    # the lemma sweeps' searches, counted with the plan built: the lowest
    # root under every generator, then the other roots cut to one per orbit;
    # searching the lowest root with no generator cut below it takes P10 to
    # 911 nodes
    pattern = make(tree).graph
    assert is_free(fg.graph, pattern, fg.generators)
    assert _nodes(lambda: find_induced(pattern, fg.graph, fg.generators)) == nodes


@pytest.mark.parametrize("fg, tree, nodes, unrooted", [
    (h2(3), "S8:0001", 688, 4420), (h1(6), "P10", 1145, 34421), (h4(3), "S8_2", 354, 3306),
], ids=lambda x: x.id.partition(":")[0] if hasattr(x, "id") else x)
def test_swap_rooted_freeness_searches_are_pinned(monkeypatch, fg, tree, nodes, unrooted):
    # the same hosts read back from graph6, which lost their generators,
    # counted with the plan built: the lowest root searched in full, then
    # the other roots cut to one per orbit of the detected block swaps, at
    # every depth; without the swaps every root is tried
    pattern, host = make(tree).graph, parse_graph6(emit_graph6(fg.graph))
    assert is_free(host, pattern)
    assert _nodes(lambda: find_induced(pattern, host)) == nodes
    monkeypatch.setattr(core, "block_swaps", lambda g: ())
    assert _nodes(lambda: find_induced(pattern, host)) == unrooted


def test_swap_rooting_misses_the_symmetry_inside_a_copy():
    # graph6 h2(3) against S8:0001, counted with the plan built: passing the
    # detected block swaps up front saves little over detecting them once
    # the lowest root fails; the family generators' 5-cycle symmetry inside
    # a copy, which no block swap holds, makes the gap
    fg, pattern = h2(3), make("S8:0001").graph
    host = parse_graph6(emit_graph6(fg.graph))
    assert is_free(host, pattern)
    assert _nodes(lambda: find_induced(pattern, host)) == 688
    assert _nodes(lambda: find_induced(pattern, host, core.block_swaps(host))) == 663
    assert _nodes(lambda: find_induced(pattern, fg.graph, fg.generators)) == 116


def test_rooting_is_ignored_when_candidates_are_given():
    # the iso search seeds every candidate mask, so generators must not cut it
    fg = h1(3)
    classes = [(1 << fg.graph.n) - 1] * fg.graph.n
    seeded = _search(fg.graph, fg.graph, None, initial=classes, generators=fg.generators)
    assert len(seeded) == len(_search(fg.graph, fg.graph, None))


def test_a_failing_sweep_reports_the_unrooted_witness():
    fg = h1(5)
    rep = _freeness_sweep("lemma.test", [fg], [path(9)])
    emb = find_induced(path(9).graph, fg.graph)
    assert emb is not None
    expected = checked("lemma.test", fg.graph, False, {"failed_on": {"host": "h1:5", "pattern": "P9"}},
                       {"embedding": list(emb)})
    assert rep.to_dict() == expected.to_dict()


# ------------------------------------------------------ periodic hosts

def _in_search_order(pattern, embeddings):
    """Embeddings sorted as the search meets them: by the image of each
    pattern vertex, taken in placement order."""
    order = _search_order(pattern)
    return sorted(embeddings, key=lambda e: [e[q] for q in order])


def _periodic(blocks, width, inner, link, flips=()):
    """``blocks`` copies of a ``width``-vertex block, block b on ids
    b*width .. b*width + width - 1: ``inner`` edges inside every block,
    ``link`` edges (i, j) from vertex i of block b to vertex j of block b + 1,
    then each pair in ``flips`` toggled.  Shifting by a multiple of
    ``width`` is a partial automorphism away from the ends and the flips."""
    edges = {(b * width + i, b * width + j) for b in range(blocks) for i, j in inner}
    edges |= {(b * width + i, (b + 1) * width + j) for b in range(blocks - 1) for i, j in link}
    edges = {(min(e), max(e)) for e in edges}
    for u, v in flips:
        edges ^= {(min(u, v), max(u, v))}
    return build(blocks * width, sorted(edges))


def _circulant_with_seam_cut(n, jumps):
    edges = {(i, (i + j) % n) for i in range(n) for j in jumps}
    return build(n, [e for e in edges if set(e) != {0, n - 1}])


def _periodic_hosts():
    return [
        # a path with a hanging P2 at every spine vertex; one P2's tip re-hung
        # on the next spine vertex
        _periodic(12, 3, [(0, 1), (1, 2)], [(0, 0)], flips=[(17, 16), (17, 18)]),
        # a strip of two parallel paths, a pendant on every spine vertex, and
        # one chord on the second path
        _periodic(10, 3, [(0, 1), (0, 2)], [(0, 0), (1, 1)], flips=[(13, 19)]),
        # a path with one 5-cycle closed on it: same balls, other edges
        _periodic(12, 1, [], [(0, 0)], flips=[(4, 8)]),
        _circulant_with_seam_cut(20, (1, 3)),
        _circulant_with_seam_cut(24, (1, 5)),
        gp(5).graph, gp(7).graph, gp(9).graph, h3(4).graph,
    ]


def _small_patterns():
    """Connected patterns whose natural order is connected, which keeps the
    oracle cheap: paths, cycles, a claw, a paw, a chair and random trees."""
    rng = Random(47)
    pats = [path(k).graph for k in range(2, 7)] + [cycle(k).graph for k in (4, 5, 6)]
    pats += [build(4, [(0, 1), (0, 2), (0, 3)]), build(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
             build(5, [(0, 1), (1, 2), (1, 3), (3, 4)])]
    return pats + [random_tree(rng, 6) for _ in range(3)]


def test_periodic_hosts_keep_witnesses_and_enumerations():
    # hosts where many roots see the same ball up to an id shift: the first
    # witness, the whole enumeration and its order equal the oracle's
    for host in _periodic_hosts():
        for pattern in _small_patterns():
            if host.n > 40 and pattern.n > 5:
                continue  # keeps the oracle's n^k cost down on h3(4)
            expected = _in_search_order(pattern, oracle_induced_maps(pattern, host))
            assert find_all_induced(pattern, host) == expected, (host.n, list(pattern.edges()))
            assert find_induced(pattern, host) == (expected[0] if expected else None)
            assert is_free(host, pattern) == (not expected)


def test_periodic_hosts_under_orbit_rooting():
    for fg in (gp(5), gp(7), gp(9), h3(4)):
        for pattern in _small_patterns():
            expected = next(oracle_induced_maps(pattern, fg.graph), None) is None
            assert is_free(fg.graph, pattern, fg.generators) == expected, (fg, list(pattern.edges()))


def test_disconnected_pattern_witnesses_on_a_periodic_host():
    # P3 + K3: the triangle may lie anywhere, outside every ball around the
    # root, so a failed root says nothing about a shifted one
    host = build(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 2), (8, 1), (8, 0)])
    pattern = build(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
    expected = _in_search_order(pattern, oracle_induced_maps(pattern, host))
    assert expected and find_induced(pattern, host) == expected[0]
    assert find_all_induced(pattern, host) == expected


def test_initial_masks_keep_shifted_roots_apart():
    # candidate masks tie roots to their labels: root 2 of the path fails only
    # because 1 and 3 are barred, and root 3, its shift, has embeddings
    host, p3 = path(10).graph, path(3).graph
    allowed = ((1 << 10) - 1) & ~0b1010
    masks = [allowed, (1 << 10) - 1, allowed]
    expected = _in_search_order(p3, [e for e in oracle_induced_maps(p3, host)
                                     if all(masks[q] >> x & 1 for q, x in enumerate(e))])
    assert (2, 3, 4) in expected
    assert _search(p3, host, None, initial=masks) == expected


# ------------------------------------------------- lazy rotation rooting

def _rotation_hosts():
    """Hosts labelled with a block rotation (gp(5..13), h3(4) and necklaces
    of alike beads), each followed by a relabelled copy, which has none."""
    rng = Random(83)
    hosts = [gp(n).graph for n in range(5, 14, 2)] + [h3(4).graph]
    hosts += [random_girth5_necklace(rng, copies, 14, alike=True) for copies in (3, 4)]
    return [g for host in hosts for g in (host, _relabel(rng, host))]


def _counted_detection(monkeypatch, detector="rotation_roots"):
    """Rebind ``core.rotation_roots`` (or ``detector``); each call appends its result."""
    calls = []
    detect = getattr(core, detector)
    monkeypatch.setattr(core, detector, lambda g: calls.append(detect(g)) or calls[-1])
    return calls


def test_lazy_rotation_rooting_keeps_the_first_hit(monkeypatch):
    # an unrooted first-hit search detects the host's rotation once, and only
    # when its lowest root (the least host vertex whose degree reaches
    # order[0]'s) has no embedding, then its block swaps if it has no
    # rotation; the witness is the oracle's first hit
    calls = _counted_detection(monkeypatch)
    swaps = _counted_detection(monkeypatch, "block_swaps")
    pats = _small_patterns() + [path(8).graph, make("S7:101").graph, make("T8_1").graph]
    seen = set()
    for host in _rotation_hosts():
        for pattern in pats:
            order = _search_order(pattern)
            expected = next(oracle_maps_along(pattern, host, order), None)
            degree = pattern.degree(order[0])
            lowest = min((x for x in range(host.n) if host.degree(x) >= degree), default=None)
            if pattern.n > host.n:
                lowest = None  # the search returns before it roots anything
            calls.clear()
            swaps.clear()
            assert find_induced(pattern, host) == expected, (host.n, list(pattern.edges()))
            assert is_free(host, pattern) == (expected is None)
            detected = lowest is not None and (expected is None or expected[order[0]] != lowest)
            assert len(calls) == 2 * detected
            assert len(swaps) == 2 * (detected and calls[0] is None)
            seen.add((detected, bool(calls and calls[0]), expected is None))
    # labelled and relabelled hosts both reach detection, with and without a hit
    assert {(True, True, False), (True, True, True), (True, False, False), (True, False, True)} <= seen
    assert (False, False, False) in seen


def test_rooted_searches_and_enumerations_detect_no_rotation(monkeypatch):
    # K3 and C4 have no embedding in these C3/C4-free hosts, so an unrooted
    # first-hit search detects the rotation of gp and h3, and the block
    # swaps of h1, h2 and h4, which have none; with generators, with initial
    # masks and in an enumeration the search must detect neither
    calls = _counted_detection(monkeypatch)
    swaps = _counted_detection(monkeypatch, "block_swaps")
    for fg in (gp(7), gp(11), h3(4), h1(3), h2(2), h4(2)):
        g, every = fg.graph, (1 << fg.graph.n) - 1
        ring = fg.id[:2] in ("gp", "h3")
        for pattern in (K3, cycle(4).graph):
            calls.clear()
            swaps.clear()
            assert find_induced(pattern, g) is None and len(calls) == 1
            assert bool(calls[0]) == ring and len(swaps) == (not ring) and all(swaps)
            calls.clear()
            swaps.clear()
            assert find_induced(pattern, g, fg.generators) is None and is_free(g, pattern, fg.generators)
            assert _search(pattern, g, 1, initial=[every] * pattern.n) == []
            assert find_all_induced(pattern, g) == find_all_induced(pattern, g, limit=2) == []
            assert not calls and not swaps
        if g.n <= embed.PATTERN_CAP:
            assert is_isomorphic(g, _relabel(Random(int(fg.id.split(":")[1])), g)) and not calls


def test_p5_enumeration_in_gp9_is_pinned():
    embs = find_all_induced(path(5).graph, gp(9).graph)
    assert len(embs) == 342
    assert embs[:10] == [
        (8, 0, 1, 2, 3), (8, 0, 1, 2, 11), (9, 0, 1, 2, 3), (8, 0, 1, 10, 12), (9, 0, 1, 10, 12),
        (9, 0, 1, 10, 17), (1, 0, 8, 7, 6), (1, 0, 8, 7, 16), (9, 0, 8, 7, 6), (1, 0, 8, 17, 15)]
    digest = sha256(repr(embs).encode()).hexdigest()
    assert digest == "8e25f50f5496f60edd5f43e28aebab6e77bc7223cfd0c5b6f246eecc6363e0b1"


# ------------------------------------------------- symmetry breaking

def _spider(*legs):
    """A centre 0 with a path of each given length hung on it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return build(n, edges)


def _symmetric_patterns():
    """Patterns whose automorphisms fix their first placed vertex nontrivially."""
    pats = [make(name).graph for name in ("S8:0001", "Tstar8", "S7:101", "T8_1", "C5", "C6")]
    pats += [_spider(2, 2, 2), _spider(1, 1, 2, 3, 3), _spider(1, 1, 1, 1, 1, 1)]
    return pats + [build(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])]  # P3 + K3


def _oracle_hosts():
    """(host, generators): seeded random hosts, then family hosts."""
    rng = Random(53)
    hosts = [(random_graph(rng, rng.randint(8, 16), rng.uniform(0.15, 0.45)), ()) for _ in range(24)]
    fams = (h1(2), h1(3), h2(1), h2(2), h3(4), h4(2), gp(7), gp(11))
    return hosts + [(fg.graph, fg.generators) for fg in fams]


def test_first_hits_are_the_least_map_in_search_order():
    outcomes = set()
    for host, gens in _oracle_hosts():
        for pattern in _symmetric_patterns():
            expected = next(oracle_maps_along(pattern, host, _search_order(pattern)), None)
            where = (host.n, list(pattern.edges()))
            assert find_induced(pattern, host) == expected, where
            assert find_all_induced(pattern, host, limit=1) == ([] if expected is None else [expected]), where
            assert is_free(host, pattern) == (expected is None), where
            if gens:
                assert find_induced(pattern, host, gens) == expected, where
                assert is_free(host, pattern, gens) == (expected is None), where
            outcomes.add((bool(gens), expected is None))
    assert len(outcomes) == 4


def test_enumerations_keep_every_automorphic_copy():
    rng = Random(61)
    pats = [p for p in _symmetric_patterns() if p.n <= 7]
    for _ in range(12):
        host = random_graph(rng, rng.randint(8, 12), rng.uniform(0.2, 0.4))
        for pattern in pats:
            expected = list(oracle_maps_along(pattern, host, _search_order(pattern)))
            assert find_all_induced(pattern, host) == expected, (host.n, list(pattern.edges()))
            assert find_all_induced(pattern, host, limit=2) == expected[:2]


def test_stabiliser_orbits_are_pinned_and_agree_with_the_whole_group():
    pinned = {
        "S8:0001": ([2, 1, 3, 4, 5, 6, 8, 0, 7, 9, 10],
                    [(), (8,), (), (), (), (), (), (), (10,), (), ()]),
        "Tstar8": ([2, 1, 3, 4, 5, 6, 8, 10, 0, 7, 9, 11],
                   [(), (8,), (), (), (), (10,), (), (), (), (), (), ()]),
    }
    for name, (order, cuts) in pinned.items():
        plan = embed._plan(make(name).graph)
        assert (plan.order, plan.cuts()) == (order, cuts)
    for pattern in _symmetric_patterns():
        plan = embed._plan(pattern)
        orbits = oracle_stabiliser_orbits(pattern, plan.order)
        assert plan.cuts()[0] == ()
        assert [{q, *cut} for q, cut in zip(plan.order, plan.cuts())][1:] == orbits[1:]


def test_initial_masks_turn_the_symmetry_cuts_off():
    # P3 places its centre, then leaf 0, then leaf 2; the one allowed map
    # sends leaf 2 below leaf 0, which a cut would drop: masks need not be
    # invariant under the pattern's automorphisms
    p3 = path(3).graph
    assert embed._plan(p3).cuts() == [(), (2,), ()]
    assert _search(p3, path(10).graph, 1, initial=[1 << 5, 1 << 4, 1 << 3]) == [(5, 4, 3)]


def test_plan_cache_stays_bounded_and_isomorphism_builds_no_cuts(monkeypatch):
    built = []
    orbits = embed._stabiliser_orbits
    monkeypatch.setattr(embed, "_stabiliser_orbits", lambda *a: built.append(a) or orbits(*a))
    embed._plan.cache_clear()
    rng = Random(59)
    seen = set()
    while len(seen) < 500:
        g = random_graph(rng, rng.randint(5, 16), 0.4)
        if g not in seen:
            seen.add(g)
            assert is_isomorphic(g, _relabel(rng, g))
    info = embed._plan.cache_info()
    assert info.misses == 500 and info.currsize == info.maxsize == embed.PLAN_CACHE
    assert not built


# ------------------------------------------------- sibling pigeonhole cut

def _pigeonhole_hosts():
    """(host, generators) cases, each a host where the cut fires for S8:0001:
    small family hosts and two seeded girth-5 cubic graphs."""
    fams = [h1(2), h1(3), h2(1), h2(2), gp(7)]
    cases = [pytest.param(fg.graph, fg.generators, id=fg.id) for fg in fams]
    return cases + [pytest.param(random_girth5_cubic(Random(67 + n), n), (), id=f"cubic{n}")
                    for n in (20, 24)]


def _pigeonhole_patterns():
    """Lemma and clause trees, a path, and one non-tree: a 6-cycle with a
    pendant on two opposite vertices."""
    pats = [make(name).graph for name in ("S8:0001", "T8_2", "Tstar8", "P6")]
    return pats + [build(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (3, 7)])]


@pytest.mark.parametrize("host, gens", _pigeonhole_hosts())
def test_pigeonhole_cut_keeps_every_embedding_and_the_first_hit(monkeypatch, host, gens):
    for pattern in _pigeonhole_patterns():
        expected = list(oracle_maps_along(pattern, host, _search_order(pattern)))
        first = expected[0] if expected else None
        where = list(pattern.edges())
        assert find_all_induced(pattern, host) == expected, where
        assert find_induced(pattern, host) == first, where
        assert find_induced(pattern, host, gens) == first, where
    # the cut fires here: S8:0001's enumeration visits fewer nodes with it
    tree = make("S8:0001").graph
    with_cut = _nodes(lambda: find_all_induced(tree, host))
    monkeypatch.setattr(embed._plan(tree), "kids", [()] * tree.n)
    assert _nodes(lambda: find_all_induced(tree, host)) > with_cut


def _nodes(search) -> int:
    """How many search nodes (calls of the search's ``place``) ``search()`` visits."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        calls += event == "call" and code.co_name == "place" and code.co_filename == embed.__file__

    sys.setprofile(profile)
    try:
        search()
    finally:
        sys.setprofile(None)
    return calls


def test_pigeonhole_cut_fires_on_the_hub_host(monkeypatch):
    # S8:0001 is absent from h2(3); searched without generators, two leaves of
    # one placed vertex are often left the same single candidate
    tree, host = make("S8:0001").graph, h2(3).graph
    assert find_induced(tree, host) is None
    with_cut = _nodes(lambda: find_induced(tree, host))
    monkeypatch.setattr(embed._plan(tree), "kids", [()] * tree.n)
    assert _nodes(lambda: find_induced(tree, host)) >= 3 * with_cut


# ------------------------------------------------- forward-check tags

def test_step_tags_agree_with_pattern_distances():
    """Each later vertex's tag against BFS distance from order[idx]: 1 when
    adjacent, 2 at distance 2, 0 farther away or in another component."""
    rng = Random(73)
    pats = [make(pid).graph for pid in _CATALOG_IDS]
    pats += [random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.5)) for _ in range(6)]
    pats += [build(4, []), build(9, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 5)])]
    for pattern in (p for p in pats if p.n <= embed.PATTERN_CAP):
        plan = embed._Plan(pattern)
        for idx, q in enumerate(plan.order):
            dist = bfs_distances(pattern, q)
            later = plan.order[idx + 1:]
            assert plan.steps[idx] == [(r, dist[r] if dist[r] in (1, 2) else 0) for r in later]


def test_distance_two_checks_prune_isomorphism_refutation(monkeypatch):
    # gp(7) against the cubic graph its spokes u1-v1 and u2-v2 make when
    # switched to u1-v2 and u2-v1: same degrees, not isomorphic
    fg = gp(7)
    g, ids = fg.graph, {name: v for v, name in fg.labels.items()}
    u1, v1, u2, v2 = (ids[name] for name in ("u1", "v1", "u2", "v2"))
    switched = build(g.n, [e for e in g.edges() if e not in ((u1, v1), (u2, v2))] + [(u1, v2), (u2, v1)])
    assert not is_isomorphic(g, switched)
    with_ring = _nodes(lambda: is_isomorphic(g, switched))
    plan = embed._plan(g)
    monkeypatch.setattr(plan, "steps", [[(r, 0 if t == 2 else t) for r, t in step] for step in plan.steps])
    assert not is_isomorphic(g, switched)
    assert _nodes(lambda: is_isomorphic(g, switched)) >= 2 * with_ring
