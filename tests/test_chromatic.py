from __future__ import annotations

import sys
from random import Random

import pytest

from treefree import chromatic
from treefree.chromatic import _k_colorable, _pick, chi_exact, chi_structured, peel
from treefree.core import Graph, build, induced, is_bipartite, mask_of
from treefree.errors import CapacityError
from treefree.graphio import emit_graph6
from treefree.patterns import cycle, heawood, path, petersen

from .oracles import (
    brute_chi,
    dsatur_greedy_colours,
    lowest_id_peel,
    mycielski,
    peel_fixpoint_core,
    planted_chi_graph,
    random_connected_graph,
    random_graph,
)


def _petersen_with_pendant_path(extra: int = 3):
    pet = petersen().graph
    edges = list(pet.edges())
    for i in range(extra):
        edges.append((9 + i if i else 0, 10 + i))
    return build(10 + extra, edges)


def test_peel_examples():
    dec = peel(cycle(5).graph)
    assert len(dec.core_vertices) == 0 and len(dec.order) == 5
    dec = peel(petersen().graph)
    assert dec.order == () and len(dec.core_vertices) == 10
    composite = _petersen_with_pendant_path()
    dec = peel(composite)
    assert set(dec.core_vertices) == set(range(10)) == peel_fixpoint_core(composite)


def test_peel_order_is_maximal_and_valid():
    rng = Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), 0.3)
        dec = peel(g)
        alive = set(range(g.n))
        for v in dec.order:
            assert sum(1 for u in g.neighbors(v) if u in alive) <= 2
            alive.remove(v)
        for v in alive:
            assert sum(1 for u in g.neighbors(v) if u in alive) >= 3
        assert alive == peel_fixpoint_core(g)


def _peel_samples() -> list[Graph]:
    """Seeded graphs: 60 small ones, 60 sparse ones on the orders of the chi
    bench corpus, then disjoint unions of two sparse ones with non-empty
    3-cores, their ids shuffled together, so that each union's 3-core splits
    into interleaved components."""
    rng = Random(19)
    graphs = [random_graph(rng, rng.randint(1, 14), rng.uniform(0.1, 0.6)) for _ in range(60)]
    for _ in range(60):
        n = rng.randint(25, 60)
        graphs.append(random_graph(rng, n, rng.uniform(2.4, 4.0) / (n - 1)))
    cored = [g for g in graphs[60:] if peel_fixpoint_core(g)]
    for a, b in zip(cored[::2], cored[1::2]):
        ids = list(range(a.n + b.n))
        rng.shuffle(ids)
        edges = [(ids[u], ids[v]) for u, v in a.edges()]
        edges += [(ids[a.n + u], ids[a.n + v]) for u, v in b.edges()]
        graphs.append(build(a.n + b.n, edges))
    return graphs


def test_peel_order_is_the_lowest_id_order():
    graphs = _peel_samples()
    assert any(len(peel(g).core_vertices) >= 10 for g in graphs[60:])
    for g in graphs:
        dec = peel(g)
        order, core = lowest_id_peel(g)
        assert list(dec.order) == order and list(dec.core_vertices) == core


def test_peel_core_components_match_networkx():
    nx = pytest.importorskip("networkx")
    split = 0
    for g in _peel_samples():
        dec = peel(g)
        G = nx.Graph(list(g.edges()))
        G.add_nodes_from(range(g.n))
        comps = sorted(sorted(c) for c in nx.connected_components(G.subgraph(dec.core_vertices)))
        assert [emit_graph6(c) for c in dec.core_components] == [
            emit_graph6(induced(g, c)) for c in comps]
        split += len(comps) > 1
    assert split >= 10


def test_chi_exact_examples():
    assert chi_exact(cycle(5).graph) == 3
    assert chi_exact(heawood().graph) == 2
    assert chi_exact(petersen().graph) == 3


def test_chi_exact_matches_brute_force():
    rng = Random(7)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 9), rng.uniform(0.1, 0.7))
        assert chi_exact(g) == brute_chi(g)


def test_chi_exact_relabel_invariant():
    rng = Random(11)
    for _ in range(30):
        g = random_graph(rng, 9, 0.4)
        perm = list(range(9))
        rng.shuffle(perm)
        h = build(9, [(perm[a], perm[b]) for a, b in g.edges()])
        assert chi_exact(g) == chi_exact(h)


def test_chi_exact_cap():
    with pytest.raises(CapacityError):
        chi_exact(build(30, []), cap=24)


def test_mycielski_graphs_have_chi_k():
    for k in range(2, 6):
        g = mycielski(k)
        assert chi_exact(g) == chi_structured(g) == k
    assert mycielski(5).n == 23


def test_pick_is_most_saturated_then_highest_degree_then_lowest_id():
    rng = Random(29)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.8))
        color = [rng.randrange(-1, 4) for _ in range(g.n)]  # -1: not yet colored
        left = [v for v in range(g.n) if color[v] < 0]
        if not left:
            continue
        classes = [mask_of(v for v in range(g.n) if color[v] == c) for c in range(4)]

        def key(x):
            seen = {color[u] for u in g.neighbors(x) if color[u] >= 0}
            return len(seen), g.degree(x), -x

        assert _pick(mask_of(left), [c for c in classes if c], g._rows) == max(left, key=key)


def test_k_colorable_and_dsatur_bound_brute_chi():
    rng = Random(23)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        chi = brute_chi(g)
        assert not _k_colorable(g, chi - 1)
        assert _k_colorable(g, chi)


def test_k_colorable_with_the_greedy_colour_count_is_one_greedy_pass(monkeypatch):
    # chi_exact needs no greedy upper bound because, given at least as many
    # colours as the greedy DSATUR pass uses, the search is that pass and
    # never backtracks: one pick per vertex
    calls = 0

    def counting_pick(*args):
        nonlocal calls
        calls += 1
        return _pick(*args)

    monkeypatch.setattr(chromatic, "_pick", counting_pick)
    rng = Random(37)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 18), rng.uniform(0.1, 0.9))
        for k in (dsatur_greedy_colours(g), g.n):
            calls = 0
            assert _k_colorable(g, k)
            assert calls == g.n, k


def test_colouring_search_is_not_bounded_by_the_recursion_limit():
    # one search level per vertex: an odd cycle longer than the recursion
    # limit is 3-coloured, and refuting 2 backtracks through every level
    n = (sys.getrecursionlimit() + 1) | 1
    g = cycle(n).graph
    assert chi_exact(g, cap=n) == 3
    assert not _k_colorable(g, 2)


def test_planted_colorings_need_backtracking_undo():
    # at k = chi the search has to back out of wrong colour classes to find the planted coloring
    rng = Random(31)
    for _ in range(200):
        k = rng.randint(3, 5)
        g = planted_chi_graph(rng, rng.randint(12, 20), k, rng.uniform(0.3, 0.7))
        assert _k_colorable(g, k) and not _k_colorable(g, k - 1)
        assert chi_exact(g) == chi_structured(g) == k


def _circulant(n: int) -> list[tuple[int, int]]:
    """C_n(1, 2): 4-regular, chromatic number 3 when 3 divides n, else 4 (n >= 6)."""
    return [(i, (i + d) % n) for i in range(n) for d in (1, 2)]


def test_cap_boundary():
    for cap in (10, 24):
        fits, over = build(cap, _circulant(cap)), build(cap + 1, _circulant(cap + 1))
        want = 3 if cap % 3 == 0 else 4
        assert chi_exact(fits, cap) == chi_structured(fits, cap) == want
        with pytest.raises(CapacityError, match=f"got {cap + 1}$"):
            chi_exact(over, cap)
        with pytest.raises(CapacityError, match=f"with {cap + 1} vertices exceeds cap {cap}"):
            chi_structured(over, cap)
    # the structured cap applies per 3-core component, not to the whole graph
    tailed = build(27, _circulant(24) + [(0, 24), (24, 25), (25, 26)])
    assert len(peel(tailed).core_vertices) == 24
    assert chi_structured(tailed) == 3
    with pytest.raises(CapacityError, match="got 27"):
        chi_exact(tailed)


def test_chi_structured_base_cases():
    assert chi_structured(build(0, [])) == 0
    assert chi_structured(build(3, [])) == 1
    assert chi_structured(path(6).graph) == 2
    assert chi_structured(cycle(5).graph) == 3
    assert chi_structured(_petersen_with_pendant_path()) == 3
    assert chi_exact(_petersen_with_pendant_path()) == 3


def test_chi_structured_cap_names_component():
    g = build(30, [(a, b) for a in range(26) for b in range(a + 1, 26)])
    with pytest.raises(CapacityError) as err:
        chi_structured(g, cap=24)
    assert "26" in str(err.value)


def test_chi_structured_equals_exact_on_random_connected():
    rng = Random(13)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.5))
        assert chi_structured(g) == chi_exact(g)


def test_bipartite_iff_chi_at_most_two():
    rng = Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), 0.3)
        assert is_bipartite(g) == (chi_exact(g) <= 2)
