"""Hypothesis property tests of the search engine against independent answers.

Derandomized with a small example budget, so every run checks the same
cases and the suite stays deterministic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from treefree.chromatic import chi_exact, peel
from treefree.core import Graph, build
from treefree.embed import find_induced, is_free, is_isomorphic
from treefree.families import gp, h1, h2, h3, h4
from treefree.witness import vw_paths

from .oracles import (
    all_vw_paths,
    brute_chi,
    lowest_id_peel,
    oracle_find_induced,
    perm_isomorphic,
    verify_embedding,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
HOSTS = (h1(2), h1(3), h2(1), h2(2), h3(4), h4(2), h4(3), gp(7), gp(9))


@st.composite
def graphs(draw, min_order: int, max_order: int) -> Graph:
    n = draw(st.integers(min_order, max_order))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def trees(draw, min_order: int, max_order: int) -> Graph:
    """Vertex i > 0 hangs off a drawn earlier vertex."""
    n = draw(st.integers(min_order, max_order))
    return build(n, [(i, draw(st.integers(0, i - 1))) for i in range(1, n)])


@st.composite
def sparse_graphs(draw, min_order: int, max_order: int) -> Graph:
    """n to 3n drawn pairs, so low-degree vertices and a 3-core both occur."""
    n = draw(st.integers(min_order, max_order))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n))
    return build(n, [(a, b) for a, b in pairs if a != b])


@st.composite
def relabelled_pairs(draw, max_order: int) -> tuple[Graph, Graph]:
    """g and a relabelling of g, after a degree-preserving edge swap when one is drawn."""
    g = draw(graphs(2, max_order))
    edges = set(g.edges())
    swaps = sorted(
        (e, f) for e in edges for f in edges
        if len({*e, *f}) == 4 and not g.has_edge(e[0], f[1]) and not g.has_edge(f[0], e[1])
    )
    if swaps and draw(st.booleans()):
        (a, b), (c, d) = draw(st.sampled_from(swaps))
        edges = (edges - {(a, b), (c, d)}) | {(a, d), (c, b)}
    perm = draw(st.permutations(range(g.n)))
    return g, build(g.n, [(perm[a], perm[b]) for a, b in edges])


@PROPERTY
@given(graphs(1, 6), graphs(1, 14))
def test_find_induced_agrees_with_the_oracle(pattern, host):
    emb = find_induced(pattern, host)
    assert (emb is None) == (oracle_find_induced(pattern, host) is None)
    assert emb is None or verify_embedding(pattern, host, emb)


@PROPERTY
@given(st.sampled_from(HOSTS), trees(2, 10))
def test_rooted_freeness_agrees_with_the_unrooted_search(fg, tree):
    assert is_free(fg.graph, tree, fg.generators) == is_free(fg.graph, tree)
    assert find_induced(tree, fg.graph, fg.generators) == find_induced(tree, fg.graph)


@PROPERTY
@given(graphs(2, 9), st.integers(0, 8), st.integers(3, 6))
def test_path_table_agrees_with_the_oracle(g, w, k):
    w %= g.n
    table = vw_paths(g, w, k)
    for v in range(g.n):
        if v != w and not g.has_edge(v, w):
            assert table.get(v, []) == all_vw_paths(g, v, w, k)
        else:
            assert v not in table


@PROPERTY
@given(relabelled_pairs(7))
def test_is_isomorphic_agrees_with_the_permutation_oracle(pair):
    g, h = pair
    assert is_isomorphic(g, h) == perm_isomorphic(g, h)


@PROPERTY
@given(graphs(1, 8))
def test_chi_exact_agrees_with_brute_force(g):
    assert chi_exact(g) == brute_chi(g)


@PROPERTY
@given(sparse_graphs(1, 20))
def test_peel_agrees_with_the_lowest_id_oracle(g):
    dec = peel(g)
    assert (list(dec.order), list(dec.core_vertices)) == lowest_id_peel(g)
