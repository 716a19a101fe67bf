"""Hypothesis property tests of the search engine against independent answers.

Derandomized with a small example budget, so every run checks the same
cases and the suite stays deterministic.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from treefree.core import Graph, build
from treefree.embed import find_induced, is_free, verify_embedding
from treefree.families import gp, h1, h2, h3, h4

from .oracles import oracle_find_induced

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
