from __future__ import annotations

import json
from hashlib import sha256
from itertools import combinations
from random import Random

import pytest

from treefree.core import bits, build, diameter, mask_of
from treefree.errors import (
    AdjacentEndpointsError,
    DomainError,
    InvalidWitnessError,
    UnsupportedRamseyError,
)
from treefree.families import gp, h1, h2, h3, h4, vertex
from treefree.graphio import emit_graph6, parse_graph6
from treefree.patterns import cycle, path
from treefree.witness import (
    _R3,
    RootTable,
    _has_independent_set,
    _independent_sets,
    _path_pair_clauses,
    _ramsey_levels,
    _sample_vw,
    check_geodesic,
    check_path_pair,
    closure_masks,
    compute_Mk,
    derived_sets,
    iter_vw_paths,
    ramsey_threshold,
    scan_path_pairs,
    survivor_bound,
    verify_ramsey_small,
    vw_paths,
)

from .oracles import (
    all_vw_paths,
    bfs_distances,
    canonical_classes,
    closure_oracle,
    independence_at_most,
    mk_oracle,
    networkx_graph,
    oracle_is_automorphism,
    path_pair_oracle,
    ramsey_growth,
    ramsey_labelled,
    random_graph,
)

LEMMA_41_HOSTS = (cycle(6).graph, cycle(8).graph, h1(3).graph, gp(25).graph)


def test_mk_on_cycles():
    assert compute_Mk(cycle(6).graph, 0, 3, 4) == {1, 5}
    assert compute_Mk(cycle(8).graph, 0, 3, 4) == {1}


def test_mk_rejects_adjacent_endpoints():
    with pytest.raises(AdjacentEndpointsError):
        compute_Mk(cycle(6).graph, 0, 1, 4)
    with pytest.raises(DomainError):
        compute_Mk(cycle(6).graph, 0, 3, 6)


def test_path_enumeration_matches_unpruned_oracle():
    """For every root w, the table holds exactly the non-adjacent v with a
    path, each with the oracle's paths in its (lexicographic) order."""
    rng = Random(59)
    hosts = [*LEMMA_41_HOSTS, path(7).graph]
    hosts += [random_graph(rng, rng.randint(3, 10), rng.uniform(0.2, 0.45)) for _ in range(100)]
    for g in hosts:
        for w in range(g.n):
            for k in range(3, 7):
                expected = {}
                for v in range(g.n):
                    if v == w or g.has_edge(v, w):
                        continue
                    if paths := all_vw_paths(g, v, w, k):
                        expected[v] = paths
                    assert list(iter_vw_paths(g, v, w, k)) == paths
                    if k in (4, 5):
                        mk = compute_Mk(g, v, w, k)
                        assert mk == mk_oracle(g, v, w, k)
                        assert all(g.has_edge(v, x) for x in mk)  # M_k is a neighbor set
                assert vw_paths(g, w, k) == expected


@pytest.mark.parametrize("call", [
    pytest.param(lambda g: vw_paths(g, 6, 4), id="vw_paths"),
    pytest.param(lambda g: list(iter_vw_paths(g, -2, 3, 4)), id="iter_vw_paths"),
    pytest.param(lambda g: compute_Mk(g, -2, 3, 4), id="compute_Mk-v"),
    pytest.param(lambda g: compute_Mk(g, 0, 9, 4), id="compute_Mk-w"),
    pytest.param(lambda g: derived_sets(g, 9, []), id="derived_sets-w"),
    pytest.param(lambda g: derived_sets(g, 0, [-3]), id="derived_sets-base"),
    pytest.param(lambda g: check_path_pair(g, (0, 1, 2, 3), (0, 5, 4, -3), 4),
                 id="check_path_pair"),
])
def test_witness_entry_points_reject_vertex_ids_outside_the_host(call):
    # on C6 a negative id would alias vertex 6 + v, and 6 or 9 would index past the rows
    with pytest.raises(DomainError):
        call(cycle(6).graph)


def test_path_table_needs_three_vertices():
    with pytest.raises(DomainError):
        vw_paths(cycle(6).graph, 0, 2)
    assert list(iter_vw_paths(cycle(6).graph, 0, 3, 2)) == []


def test_check_path_pair_on_c6():
    c6 = cycle(6).graph
    rep = check_path_pair(c6, (0, 1, 2, 3), (0, 5, 4, 3), 4)
    assert rep.passed and rep.witness["clauses"] == {"i": True, "iii": True}


def test_check_path_pair_rejects_bad_witnesses():
    c6 = cycle(6).graph
    with pytest.raises(InvalidWitnessError):
        check_path_pair(c6, (0, 1, 2, 3), (0, 1, 2, 3), 4)  # same second vertex
    with pytest.raises(InvalidWitnessError):
        check_path_pair(c6, (0, 1, 2, 4), (0, 5, 4, 3), 4)  # not a path
    with pytest.raises(InvalidWitnessError):
        check_path_pair(c6, (0, 1, 2), (0, 5, 4), 4)  # wrong order
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    with pytest.raises(InvalidWitnessError):
        check_path_pair(g, (0, 1, 2, 3), (0, 4, 3, 2), 4)  # chorded path


def test_scan_path_pairs_clean_hosts():
    for g in (cycle(6).graph, h1(3).graph):
        for k in (4, 5):
            rep = scan_path_pairs(g, k)
            assert rep.passed


def test_scan_violations_match_the_single_pair_check():
    # hosts with C3/C4 break the clauses; both checks test clause (v)'s
    # M_4 membership on the rows of v, w and q1's second vertex
    rng = Random(67)
    seen_v = 0
    for _ in range(30):
        g = random_graph(rng, rng.randint(6, 10), 0.35)
        for k in (4, 5):
            for bad in scan_path_pairs(g, k).witness["violations"]:
                single = check_path_pair(g, bad["q1"], bad["q2"], k)
                assert single.witness["clauses"] == bad["clauses"]
                seen_v += "v" in bad["clauses"]
    assert seen_v > 0


def test_path_pair_checks_read_one_table_of_their_own_order(monkeypatch):
    # clause (v) tests M_4 membership on rows: the single-pair check builds no
    # table, and the scan one order-k table per root w
    from treefree import witness

    orders = []

    def recording(g, w, k):
        orders.append((w, k))
        return vw_paths(g, w, k)

    monkeypatch.setattr(witness, "vw_paths", recording)
    g = gp(25).graph
    q1, q2 = next((p[0], p[1]) for p in vw_paths(g, 0, 5).values() if len(p) > 1)
    check_path_pair(g, q1, q2, 5)
    assert orders == []
    rep = scan_path_pairs(g, 5)
    assert sorted(orders) == [(w, 5) for w in range(g.n)]
    assert rep.passed and rep.witness["path_pairs"] > 0


def _scan_payload(g, k, **kwargs):
    payload = scan_path_pairs(g, k, **kwargs).to_dict()
    del payload["runtime_ms"]
    return payload


@pytest.mark.parametrize("fg", [h1(3), h1(5), h2(2), h3(4), h4(3), gp(11), gp(25)],
                         ids=lambda fg: fg.id)
def test_orbit_reduced_scans_equal_the_full_scans(fg):
    # one path table per orbit root, each root's pairs weighted by its orbit
    # size: the same report, vw_pairs included, as every (v, w) scanned
    for k in (4, 5):
        assert _scan_payload(fg.graph, k, generators=fg.generators) == _scan_payload(fg.graph, k)


def test_orbit_reduced_scans_build_one_table_per_root(monkeypatch):
    from treefree import witness

    orders = []

    def recording(g, w, k):
        orders.append((w, k))
        return vw_paths(g, w, k)

    monkeypatch.setattr(witness, "vw_paths", recording)
    # h1(3): 18 cycle vertices and 3 hubs; gp(25): the outer and inner rings
    for fg, roots in ((h1(3), [0, 18]), (gp(25), [0, 25])):
        orders.clear()
        rep = scan_path_pairs(fg.graph, 5, generators=fg.generators)
        assert rep.passed and orders == [(w, 5) for w in roots]


def test_failing_reduced_scans_rerun_in_full():
    # seeded hosts with short cycles and a twin transposition among their
    # automorphisms: a reduced scan meeting a violation gives the full
    # scan's report, so the first five violations come in (v, w) order
    rng = Random(89)
    failing = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(6, 10), 0.35)
        swaps = [{a: b, b: a} for a, b in combinations(range(g.n), 2)
                 if oracle_is_automorphism(g, {a: b, b: a})]
        if not swaps:
            continue
        for k in (4, 5):
            full = _scan_payload(g, k)
            assert _scan_payload(g, k, generators=swaps) == full
            failing += not full["pass"]
    assert failing == 14


@pytest.mark.parametrize("seed", [0, 1, 7, 4242])
@pytest.mark.parametrize("g", [gp(25).graph, h1(3).graph], ids=["gp(25)", "h1(3)"])
def test_sampled_pairs_are_decoded_from_their_indices(g, seed):
    # the pairs Random(seed).sample draws from the materialised list, v-major
    pairs = [(v, w) for v in range(g.n) for w in range(g.n) if v != w and not g.has_edge(v, w)]
    total = len(pairs)
    for m in (1, 40, total - 1, total):
        assert _sample_vw(g, m, seed) == Random(seed).sample(pairs, m)
    with pytest.raises(ValueError):
        _sample_vw(g, total + 1, seed)
    # from N samples on, the scan takes every pair
    for m in (total, total + 1):
        assert _scan_payload(g, 5, seed=seed, vw_samples=m) == _scan_payload(g, 5, seed=seed)
    assert _scan_payload(g, 5, seed=seed)["params"]["vw_pairs"] == total


def _path_pair_reports():
    """Every scan and every ordered pair's check of the 4.1 hosts and of
    seeded hosts with short cycles, both k; pairs come from the oracle."""
    rng = Random(83)
    hosts = [*LEMMA_41_HOSTS] + [random_graph(rng, rng.randint(6, 10), 0.35) for _ in range(60)]
    for g in hosts:
        for k in (4, 5):
            yield scan_path_pairs(g, k)
            for w in range(g.n):
                for v in range(g.n):
                    if v == w or g.has_edge(v, w):
                        continue
                    paths = all_vw_paths(g, v, w, k)
                    for q1 in paths:
                        for q2 in paths:
                            if q1[1] != q2[1]:
                                yield check_path_pair(g, q1, q2, k)


def test_path_pair_reports_are_pinned():
    # one sha256 over every report (runtime_ms dropped), taken before clause
    # (v) tested M_4 membership on rows; the failing reports include scans and
    # single pairs, and clause (v) both holds and fails among the pairs
    digest = sha256()
    reports = failing = failing_scans = 0
    clause_v = {True: 0, False: 0}
    for rep in _path_pair_reports():
        payload = rep.to_dict()
        del payload["runtime_ms"]
        digest.update(json.dumps(payload, sort_keys=True).encode())
        reports += 1
        failing += not rep.passed
        if rep.check_id == "lemma4.1.scan":
            failing_scans += not rep.passed
        elif "v" in rep.witness["clauses"]:
            clause_v[rep.witness["clauses"]["v"]] += 1
    assert (reports, failing, failing_scans, clause_v) == (4276, 1187, 61, {True: 704, False: 26})
    assert digest.hexdigest() == "8c34d7416067c97f713e5440b08f7fc746fc814b91ea9a492022b78172ad2c65"


@pytest.mark.parametrize("k", [2, 3, 6])
def test_path_pair_checks_need_k_4_or_5(k):
    # clause (i) reads only q[1] and q[2], so without the check k = 3 or k >= 6 passes on it alone
    c6 = cycle(6).graph
    with pytest.raises(DomainError):
        scan_path_pairs(c6, k)
    q1, q2 = (0, 1, 2, 3, 4, 5)[:k], (0, 5, 4, 3, 2, 1)[:k]
    with pytest.raises(DomainError):
        check_path_pair(c6, q1, q2, k)


def test_mask_clauses_match_the_set_oracle():
    """Every ordered pair of (v,w;k)-paths with distinct second vertices; gp(25)'s
    5-cycles give the pairs whose only cross edge is the allowed a2-b2 one."""
    rng = Random(71)
    hosts = [*LEMMA_41_HOSTS]
    hosts += [random_graph(rng, rng.randint(6, 10), 0.35) for _ in range(30)]
    failing = 0
    for g in hosts:
        for w in range(g.n):
            tables = {k: vw_paths(g, w, k) for k in (4, 5)}
            for k in (4, 5):
                for v, paths in tables[k].items():
                    # M_4 from the order-4 table: the oracle of the clauses' row test
                    m4 = frozenset(p[1] for p in tables[4].get(v, ())) if k == 5 else None
                    for q1 in paths:
                        for q2 in paths:
                            if q1[1] == q2[1]:
                                continue
                            want = path_pair_oracle(g, q1, q2, k, m4)
                            assert _path_pair_clauses(g._rows, q1, q2, k) == want
                            failing += not all(want.values())
    assert failing > 0


def _closure_agrees(g, w, root, base):
    want = closure_oracle(g, w, base)
    got = closure_masks(root, mask_of(base))
    for name in ("y1", "y2", "z1", "z2", "z3"):
        assert set(bits(getattr(got, name))) == want[name], (name, w, sorted(base))
    assert list(bits(got.clause_i)) == want["clause_i"]
    assert list(bits(got.clause_ii)) == want["clause_ii"]
    rep = derived_sets(g, w, base)
    for name in ("y1", "y2", "z1", "z2", "z3"):
        assert rep.witness[name] == sorted(want[name]), (name, w, sorted(base))
    violations = [{"clause": "i", "a": a} for a in want["clause_i"]]
    violations += [{"clause": "ii", "a": a} for a in want["clause_ii"]]
    assert rep.witness["violations"] == violations
    assert rep.passed == (not violations)
    return bool(violations)


def _connected_bases(g, region, sizes):
    """Every connected vertex set of the given sizes inside ``region``."""
    layer = {frozenset([v]) for v in region}
    found = set(layer) if 1 in sizes else set()
    for size in range(2, max(sizes) + 1):
        layer = {s | {u} for s in layer for v in s for u in g.neighbors(v)
                 if u in region and u not in s}
        if size in sizes:
            found |= layer
    return sorted(found, key=sorted)


def test_closure_sets_match_the_oracle_on_every_small_base_of_the_hub_hosts():
    for g in (h1(5).graph, gp(25).graph):
        degs = [g.degree(v) for v in range(g.n)]
        w = degs.index(max(degs))
        root = RootTable(g, w)
        dist = bfs_distances(g, w)
        region = {v for v in range(g.n) if dist[v] >= 2}
        bases = _connected_bases(g, region, (2, 3, 4))
        assert len(bases) > 400
        assert not any(_closure_agrees(g, w, root, base) for base in bases)


def test_closure_sets_match_the_oracle_on_hosts_with_short_cycles():
    # C3/C4 hosts break the edge-emptiness clauses, so violations occur
    rng = Random(73)
    broken = 0
    for _ in range(25):
        g = random_graph(rng, rng.randint(7, 11), 0.3)
        w = rng.randrange(g.n)
        dist = bfs_distances(g, w)
        region = [v for v in range(g.n) if dist[v] >= 2]
        if not region:
            continue
        root = RootTable(g, w)
        for _ in range(6):
            base = rng.sample(region, rng.randint(1, min(4, len(region))))
            broken += _closure_agrees(g, w, root, base)
    assert broken > 10


def _derived_sets_cases():
    """Every connected base of 1-3 vertices in N>=2(w) for two roots each of
    h1(5) and gp(25), then seeded bases on random hosts with short cycles."""
    for g in (h1(5).graph, gp(25).graph):
        for w in (0, g.n - 1):
            dist = bfs_distances(g, w)
            region = {v for v in range(g.n) if dist[v] >= 2}
            for base in _connected_bases(g, region, (1, 2, 3)):
                yield g, w, sorted(base)
    rng = Random(51)
    for _ in range(30):
        g = random_graph(rng, rng.randint(7, 11), 0.3)
        w = rng.randrange(g.n)
        dist = bfs_distances(g, w)
        region = [v for v in range(g.n) if dist[v] >= 2]
        for _ in range(4 if region else 0):
            yield g, w, rng.sample(region, rng.randint(1, min(4, len(region))))


def test_derived_sets_reports_are_pinned():
    # one sha256 over every report (runtime_ms dropped), taken before
    # derived_sets returned its report directly; a change to any closure set,
    # violation, verdict or parameter moves the digest, and the failing
    # reports include some that break both clauses
    digest = sha256()
    reports = failing = both_clauses = 0
    for g, w, base in _derived_sets_cases():
        rep = derived_sets(g, w, base)
        payload = rep.to_dict()
        del payload["runtime_ms"]
        digest.update(json.dumps(payload, sort_keys=True).encode())
        reports += 1
        failing += not rep.passed
        both_clauses += {v["clause"] for v in rep.witness["violations"]} == {"i", "ii"}
    assert (reports, failing, both_clauses) == (942, 23, 14)
    assert digest.hexdigest() == "e993d60e80aa5c2eff211f80c1c15c2460a369b5ccc3e3bc9b5e7752c6930e0b"


def test_derived_sets_empty_base():
    g = h1(5).graph
    w = vertex("h1", 5, "v1")
    rep = derived_sets(g, w, [])
    assert all(rep.witness[name] == [] for name in ("y1", "y2", "z1", "z2", "z3"))
    assert rep.passed


def test_derived_sets_domain_check():
    g = cycle(6).graph
    with pytest.raises(DomainError):
        derived_sets(g, 0, [1])  # neighbor of w
    with pytest.raises(DomainError):
        derived_sets(g, 0, [0])


def test_derived_sets_adjacent_pair_in_h1():
    g = h1(5).graph
    w = vertex("h1", 5, "v1")
    dist = bfs_distances(g, w)
    pair = next(
        (u, v)
        for u, v in g.edges()
        if dist[u] >= 2 and dist[v] >= 2
    )
    rep = derived_sets(g, w, pair)
    assert rep.passed
    y1, y2, z2, z3 = (set(rep.witness[name]) for name in ("y1", "y2", "z2", "z3"))
    assert y1 <= z2 and y2 <= z3
    nw = set(g.neighbors(w))
    n2 = {v for v in range(g.n) if dist[v] == 2}
    assert y2 <= nw and z3 <= nw
    assert y1 <= n2 and z2 <= n2


def test_derived_set_inclusions_on_random_bases():
    from treefree.cli import sample_connected_bases

    g = gp(25).graph
    rng = Random(47)
    for base in sample_connected_bases(g, 0, 25, rng):
        rep = derived_sets(g, 0, base)
        y1, y2, z2, z3 = (set(rep.witness[name]) for name in ("y1", "y2", "z2", "z3"))
        assert y1 <= z2 and y2 <= z3
        assert rep.passed


def test_ramsey_threshold_table():
    assert ramsey_threshold(1, 2) == 40
    assert ramsey_threshold(2, 1) == 32
    with pytest.raises(UnsupportedRamseyError):
        ramsey_threshold(3, 1)
    with pytest.raises(UnsupportedRamseyError):
        ramsey_threshold(1, 5)
    with pytest.raises(DomainError):
        ramsey_threshold(0, 1)


def test_survivor_bound_arithmetic():
    assert survivor_bound(40, 124) == 4837
    assert survivor_bound(32, 66) == 2047


def test_ramsey_2_and_3():
    rep2 = verify_ramsey_small(2)
    assert rep2.passed and parse_graph6(rep2.witness["lower_bound_witness"]).edge_count == 1
    rep3 = verify_ramsey_small(3)
    assert rep3.passed
    wit = parse_graph6(rep3.witness["lower_bound_witness"])
    assert wit.n == 5 and wit.edge_count == 5 and all(wit.degree(v) == 2 for v in range(5))
    with pytest.raises(UnsupportedRamseyError):
        verify_ramsey_small(5)


def test_failed_ramsey_report_names_a_refuting_graph(monkeypatch):
    from treefree import witness
    from treefree.embed import is_isomorphic

    # R(3,3) = 6, so a table claiming 5 is refuted by C5 on 5 vertices
    monkeypatch.setitem(witness._R3, 3, 5)
    rep = verify_ramsey_small(3)
    assert rep.status == "checked" and not rep.passed
    assert is_isomorphic(parse_graph6(rep.counterexample), cycle(5).graph)
    # a table claiming 7 is too large: nothing survives on 6 vertices, and
    # no graph refutes it, so the counterexample is the empty graph
    monkeypatch.setitem(witness._R3, 3, 7)
    rep = verify_ramsey_small(3)
    assert not rep.passed and rep.counterexample == "?"


def test_bitset_independence_test_matches_subset_enumeration():
    rng = Random(61)
    graphs = [build(0, [])] + [random_graph(rng, rng.randint(1, 11), rng.uniform(0.1, 0.7))
                               for _ in range(120)]
    for g in graphs:
        full = (1 << g.n) - 1
        for limit in range(0, 6):
            assert _has_independent_set(g._rows, full, limit + 1) != independence_at_most(g, limit)


@pytest.mark.parametrize("t, classes", [(2, [1, 1, 0]), (3, [1, 2, 2, 3, 1, 0])])
def test_ramsey_levels_match_the_labelled_oracle(t, classes):
    # classes on 1..R vertices by labelled brute force; the last 0 means no
    # labelled graph on R vertices avoids both a triangle and an independent t-set
    oracle = [len(canonical_classes(n, ramsey_labelled(n, t))) for n in range(1, len(classes) + 1)]
    assert oracle == classes
    rep = verify_ramsey_small(t)
    assert rep.passed and rep.params["value"] == len(classes) == _R3[t]
    assert rep.witness["level_classes"] == classes


def test_ramsey34_level_classes():
    rep = verify_ramsey_small(4)
    assert rep.passed and rep.params["value"] == _R3[4] == 9
    # triangle-free graphs with independence number <= 3, up to isomorphism, on 1..9 vertices
    assert rep.witness["level_classes"] == [1, 2, 3, 6, 9, 15, 9, 3, 0]


@pytest.mark.parametrize("t, first", [(2, "A_"), (3, "DUW"), (4, "GCrb`o")])
def test_ramsey_levels_match_the_unpruned_growth(t, first):
    # level by level, the maximum-degree growth keeps one graph of each class
    # that the unpruned growth, deduplicated by networkx, keeps
    nx = pytest.importorskip("networkx")
    levels = _ramsey_levels(t)
    oracle = ramsey_growth(t, _R3[t])
    assert [len(level) for level in levels] == [len(level) for level in oracle]
    for level, expected in zip(levels, oracle):
        expected = [networkx_graph(g) for g in expected]
        for g in level:
            h = networkx_graph(g)
            assert sum(nx.is_isomorphic(h, other) for other in expected) == 1, emit_graph6(g)
    assert verify_ramsey_small(t).witness["lower_bound_witness"] == first


def test_ramsey34_proves_few_isomorphisms(monkeypatch):
    # only extensions whose new vertex has maximum degree reach the buckets:
    # 55 isomorphism searches, where every independent-set extension makes 199
    from treefree import witness

    calls = 0
    real = witness.is_isomorphic

    def counted(pattern, host):
        nonlocal calls
        calls += 1
        return real(pattern, host)

    monkeypatch.setattr(witness, "is_isomorphic", counted)
    assert verify_ramsey_small(4).passed
    assert calls == 55


def test_independent_sets_skip_branches_below_the_least_size():
    # every independent set with at least ``least`` vertices, in the DFS
    # order (lexicographic order of the sorted vertex tuples)
    rng = Random(97)
    graphs = [build(0, [])] + [random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6))
                               for _ in range(80)]
    for g in graphs:
        independent = sorted(c for r in range(g.n + 1) for c in combinations(range(g.n), r)
                             if not any(g.has_edge(a, b) for a, b in combinations(c, 2)))
        for least in range(5):
            assert list(_independent_sets(g, least)) == [mask_of(c) for c in independent
                                                         if len(c) >= least], (g, least)


def test_ramsey34_enumerates_only_sets_of_maximum_degree_size(monkeypatch):
    # the growth asks each class g for its independent sets of at least
    # Delta(g) vertices: 352 sets, where the unpruned enumeration lists 858
    from treefree import witness

    sets = 0
    real = witness._independent_sets

    def counted(g, least):
        nonlocal sets
        for nb in real(g, least):
            sets += 1
            yield nb

    monkeypatch.setattr(witness, "_independent_sets", counted)
    assert verify_ramsey_small(4).passed
    assert sets == 352


def test_geodesic_check_on_gp():
    for n in (25, 33):
        g = gp(n).graph
        geo = _diameter_geodesic(g)
        assert len(geo) == diameter(g) + 1
        assert check_geodesic(g, geo).passed
    g = gp(25).graph
    with pytest.raises(InvalidWitnessError):
        check_geodesic(g, _diameter_geodesic(g)[:-1])  # not the full diameter
    with pytest.raises(InvalidWitnessError):
        check_geodesic(g, (0, 2, 4))
    with pytest.raises(DomainError):
        check_geodesic(path(5).graph, (0, 1, 2, 3, -1))


def test_geodesic_check_names_each_violated_clause():
    # geodesic 0-1-2-3 (diameter 3); 4 sees u1 and u3 of it: clause (i)
    g = build(5, [(0, 1), (1, 2), (2, 3), (0, 4), (2, 4)])
    rep = check_geodesic(g, (0, 1, 2, 3))
    assert rep.is_failure and parse_graph6(rep.counterexample) == g
    assert rep.witness["violations"] == [{"clause": "i", "y": 4, "hits": [0, 2]}]
    # adjacent off-path 4 and 5 attach one index apart: clause (ii)
    g = build(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])
    rep = check_geodesic(g, (0, 1, 2, 3))
    assert rep.is_failure and parse_graph6(rep.counterexample) == g
    assert rep.witness["violations"] == [{"clause": "ii", "edge": [4, 5], "gap": 1}]


def _diameter_geodesic(g):
    best = None
    for u in range(g.n):
        dist = bfs_distances(g, u)
        far = max(range(g.n), key=lambda v: dist[v])
        if best is None or dist[far] > best[2]:
            best = (u, far, dist[far])
    u, v, _ = best
    dist = bfs_distances(g, u)
    out = [v]
    while out[-1] != u:
        cur = out[-1]
        out.append(next(x for x in g.neighbors(cur) if dist[x] == dist[cur] - 1))
    return out[::-1]
