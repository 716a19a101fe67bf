from __future__ import annotations

import hashlib
from itertools import product
from random import Random

import pytest

from treefree import patterns
from treefree.core import VERTEX_CAP, build, contract_edge, diameter, stats
from treefree.embed import is_isomorphic
from treefree.errors import ConstructionError, NotATreeError, UsageError
from treefree.families import gp
from treefree.graphio import emit_dot, emit_graph6
from treefree.patterns import (
    cycle,
    heawood,
    is_caterpillar,
    is_subtree,
    is_tree,
    make,
    path,
    petersen,
    s8_1,
    s8_2,
    s_tree,
    t8_1,
    t8_2,
    t8star,
    t_tree,
    tstar_tree,
)

from .oracles import caterpillar_by_spines, perm_isomorphic, random_tree, shortest_cycle


def test_orders_match_formulas():
    for n in range(4, 13):
        assert t_tree(n).graph.n == n + 2
    for n in range(6, 13):
        assert tstar_tree(n).graph.n == n + 4
    rng = Random(1)
    for n in range(5, 11):
        flags = tuple(rng.randint(0, 1) for _ in range(n - 4))
        assert s_tree(n, flags).graph.n == n + 2 + sum(flags)
    for p1 in range(1, 5):
        for p2 in range(1, 5):
            assert t8star(p1, p2).graph.n == 2 * p1 + 2 * p2 + 6


def test_all_catalog_trees_are_trees():
    for spec in (t_tree(9), tstar_tree(9), s_tree(8, (1, 1, 0, 1)), t8_1(), t8_2(),
                 s8_1(), s8_2(), t8star(3, 2)):
        assert is_tree(spec.graph), spec.id


def test_bounded_degree_patterns():
    for spec in (t_tree(9), tstar_tree(9), t8_1(), t8_2(), s8_1(), s8_2()):
        assert max(spec.graph.degree(v) for v in range(spec.graph.n)) <= 3


def test_t4_has_six_vertices():
    assert t_tree(4).graph.n == 6


def test_parameter_ranges():
    with pytest.raises(ConstructionError):
        t_tree(3)
    with pytest.raises(ConstructionError):
        tstar_tree(5)
    with pytest.raises(ConstructionError):
        s_tree(4, ())
    with pytest.raises(ConstructionError):
        s_tree(8, (1, 0, 1))  # needs 4 flags
    with pytest.raises(ConstructionError):
        t8star(0, 1)


def test_catalog_identities():
    assert is_isomorphic(s_tree(8, (0, 1, 1, 0)).graph, t8_1().graph)
    assert is_isomorphic(s_tree(8, (1, 0, 0, 0)).graph, t8_2().graph)
    assert is_isomorphic(t8star(1, 2).graph, t8_1().graph)
    assert is_subtree(t8_2().graph, t8star(2, 1).graph)


def test_s_all_zero_flags_is_t():
    for n in range(5, 11):
        assert is_isomorphic(s_tree(n, (0,) * (n - 4)).graph, t_tree(n).graph)


def test_t_tree_diameters():
    # diam(T_n) = max(n-1, 4): the branch tip is 4 away from u1
    assert diameter(t_tree(4).graph) == 4
    for n in range(5, 13):
        assert diameter(t_tree(n).graph) == n - 1


def test_caterpillar_examples():
    assert is_caterpillar(path(7).graph)
    assert not is_caterpillar(t_tree(5).graph)
    assert is_caterpillar(t_tree(4).graph)
    for n in range(5, 13):
        assert not is_caterpillar(t_tree(n).graph)
    with pytest.raises(NotATreeError):
        is_caterpillar(cycle(4).graph)


def test_caterpillar_matches_spine_oracle():
    rng = Random(8)
    cases = [path(1).graph, path(2).graph, path(6).graph, t_tree(4).graph,
             t_tree(7).graph, tstar_tree(7).graph, s8_1().graph, s8_2().graph]
    cases += [random_tree(rng, rng.randint(1, 11)) for _ in range(60)]
    for t in cases:
        assert is_caterpillar(t) == caterpillar_by_spines(t)


def test_subtree_examples():
    assert is_subtree(t_tree(8).graph, t_tree(9).graph)
    assert not is_subtree(path(10).graph, t_tree(9).graph)
    with pytest.raises(NotATreeError):
        is_subtree(cycle(3).graph, t_tree(9).graph)


def test_subtree_reflexive_and_transitive_on_catalog():
    trees = [path(6).graph, t_tree(4).graph, t_tree(8).graph, t_tree(9).graph,
             t8_1().graph, t8_2().graph, s8_2().graph, tstar_tree(9).graph,
             s8_1().graph, s_tree(8, (0, 0, 0, 1)).graph]
    trees = [t for t in trees if t.n <= 14]
    rel = {}
    for i, a in enumerate(trees):
        for j, b in enumerate(trees):
            rel[i, j] = is_subtree(a, b)
        assert rel[i, i]
    for i, j in rel:
        for k in range(len(trees)):
            if rel[i, j] and rel[j, k]:
                assert rel[i, k]


def test_named_graphs():
    p = petersen().graph
    assert stats(p) == (3, 3, True, False) and shortest_cycle(p) == 5
    hw = heawood().graph
    assert hw.n == 14 and shortest_cycle(hw) == 6 and stats(hw).bipartite
    ch = make("contracted_heawood").graph
    assert ch.n == 13 and stats(ch).connected and stats(ch).min_degree >= 3
    with pytest.raises(UsageError):
        make("mcgee")


def test_heawood_is_the_fano_incidence_graph():
    # independent construction: points 0..6, lines of the Fano plane 7..13
    lines = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    edges = [(pt - 1, 7 + i) for i, line in enumerate(lines) for pt in line]
    fano = build(14, edges)
    assert is_isomorphic(heawood().graph, fano)


def test_contracting_any_heawood_edge_is_the_same_graph():
    hw = heawood().graph
    results = [contract_edge(hw, e) for e in hw.edges()]
    assert len(results) == 21
    base = results[0]
    assert all(is_isomorphic(base, other) for other in results[1:])


def test_gp5_matches_petersen_by_permutation_oracle():
    assert perm_isomorphic(gp(5).graph, petersen().graph)


def test_petersen_is_gp5_under_its_own_id(monkeypatch):
    monkeypatch.setattr(patterns, "build", None)  # it builds no graph of its own
    pet, gp5 = petersen(), gp(5)
    assert (pet.id, pet.graph, pet.labels) == ("petersen", gp5.graph, gp5.labels)


def test_make_grammar():
    assert make("T9").graph.n == 11
    assert make("T8_1").id == "T8_1"
    assert make("S8:0110").graph.n == 12
    assert make("Tstar8").graph.n == 12
    assert make("T8star:2,1").graph.n == 12
    assert make("petersen").graph.n == 10
    assert make("P10").graph.n == 10
    assert make("C6").graph.n == 6
    with pytest.raises(UsageError):
        make("X7")
    with pytest.raises(UsageError):
        make("S8:01a0")
    with pytest.raises(ConstructionError):
        make("T3")
    # an id matches one form in full, with ASCII digits, or nothing
    for bad in ("T8_3", "T9_1", "P1_0", "P+10", "p 10", "T\uff19", "tstar", "t8star:1,2,3"):
        with pytest.raises(UsageError, match="unknown pattern id"):
            make(bad)
    assert make("T9") is make("T9")  # one shared spec
    # family ids resolve here too, built by families.make_family
    assert make("h1:5").id == "h1:5" and make(" GP:25 ").graph == gp(25).graph


def test_canonical_labels():
    spec = t_tree(6)
    names = set(spec.labels.values())
    assert {"u1", "u6", "v3", "v3'"} <= names
    assert spec.labels[spec.graph.n - 2] == "v3"
    s = s_tree(8, (0, 0, 0, 1))
    assert "w7" in s.labels.values()


def test_s8_shapes():
    # degree profiles pin the two fixed trees
    def profile(g):
        return sorted(g.degree(v) for v in range(g.n))

    assert profile(s8_1().graph) == [1] * 6 + [2] * 4 + [3] * 4
    assert profile(s8_2().graph) == [1] * 4 + [2] * 4 + [3] * 2
    assert is_caterpillar(s8_2().graph)
    assert not is_caterpillar(s8_1().graph)


def test_pattern_graphs_have_no_leftover_vertices():
    for pid in ("T8_1", "T8_2", "S8_1", "S8_2", "Tstar9", "S8:1111"):
        g = make(pid).graph
        assert all(g.degree(v) >= 1 for v in range(g.n))


_CATALOG_IDS = (
    [f"P{n}" for n in range(1, 17)]
    + [f"C{n}" for n in range(3, 17)]
    + [f"T{n}" for n in range(4, 15)]
    + [f"Tstar{n}" for n in range(6, 13)]
    + [f"S{n}:" + "".join(bits) for n in range(5, 11) for bits in product("01", repeat=n - 4)]
    + [f"T8star:{p1},{p2}" for p1 in range(1, 5) for p2 in range(1, 5)]
    + ["T8_1", "T8_2", "S8_1", "S8_2", "petersen", "heawood", "contracted_heawood"]
)


def test_catalog_outputs_are_pinned():
    """id, graph6, dot and the sorted labels of every catalog id, as
    one digest: the builders keep every id, edge and name."""
    assert len(_CATALOG_IDS) == 197
    digest = hashlib.sha256()
    for pid in _CATALOG_IDS:
        spec = make(pid)
        digest.update(spec.id.encode())
        digest.update(emit_graph6(spec.graph).encode())
        digest.update(emit_dot(spec.graph, spec.labels).encode())
        digest.update(repr(sorted(spec.labels.items())).encode())
    assert digest.hexdigest() == "6b4dc663a86e0fbcb49500277029ff21692b911b0b3b8714f2b9da9a8d756793"


@pytest.mark.parametrize("pid, message", [
    ("P0", "path needs n >= 1"),
    ("C2", "cycle needs n >= 3"),
    ("T3", "T-tree needs n >= 4"),
    ("Tstar5", "Tstar-tree needs n >= 6"),
    ("S4:", "S-tree needs n >= 5"),
    ("S6:1", "S6 needs 2 flags in {0,1}"),
    ("S6:21", "S6 needs 2 flags in {0,1}"),
    ("T8star:0,1", "t8star needs p1, p2 >= 1"),
])
def test_invalid_catalog_ids_keep_their_messages(pid, message):
    with pytest.raises(ConstructionError) as info:
        make(pid)
    assert str(info.value) == message


@pytest.fixture
def uncached_make():
    """Clear make's cache around a test that patches a builder, so that no
    patched result is read from it or left in it."""
    make.cache_clear()
    yield
    make.cache_clear()


@pytest.mark.parametrize("pid, n", [
    ("P1000000", 1000000), ("C1000000", 1000000), ("T1000000", 1000002),
    ("Tstar1000000", 1000004), ("T8star:1000000,1", 2000008), ("P65536", 65536),
])
def test_over_cap_catalog_ids_are_refused_before_anything_is_built(
        monkeypatch, uncached_make, pid, n):
    built = []
    monkeypatch.setattr(patterns, "build", lambda *a: built.append(a))
    monkeypatch.setattr(patterns, "_tree", lambda *a: built.append(a))
    with pytest.raises(ConstructionError) as info:
        make(pid)
    assert str(info.value) == f"vertex count {n} outside 0..{VERTEX_CAP}"
    assert not built
    # an order at the cap gets past the check and reaches the builder
    make(f"P{VERTEX_CAP}")
    assert [len(a[2]) for a in built] == [VERTEX_CAP]
