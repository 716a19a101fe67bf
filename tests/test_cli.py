from __future__ import annotations

import hashlib
import itertools
import os
import json
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import treefree
from treefree import cli, core, embed, families, graphio
from treefree.cli import (
    DIAM_CLAUSES,
    check_diam_theorem,
    check_maxdeg_theorem,
    main,
    sample_connected_bases,
    scan_corpus,
    verify_lemma,
)
from treefree.core import build
from treefree.errors import UsageError
from treefree.families import gp, h1, h3
from treefree.graphio import emit_graph6, parse_graph6
from treefree.patterns import contracted_heawood, cycle, heawood, make, petersen
from treefree.witness import (
    check_geodesic,
    check_path_pair,
    derived_sets,
    scan_path_pairs,
    verify_ramsey_small,
)

from .oracles import (all_vw_paths, generalized_petersen, random_girth5_cubic, random_girth5_necklace,
                      verify_embedding)


def _named_graph_corpus():
    k4 = build(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    graphs = [petersen().graph, heawood().graph, contracted_heawood().graph,
              cycle(5).graph, k4]
    return [emit_graph6(g) for g in graphs]


def _two_petersens():
    """Disconnected, though each component has min degree 3 and girth 5."""
    pet = petersen().graph
    return build(20, [(a + 10 * c, b + 10 * c) for c in (0, 1) for a, b in pet.edges()])


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from treefree import *", namespace)
    assert set(treefree.__all__) <= namespace.keys()


def test_verify_lemma_quick_slices():
    assert verify_lemma("2.2i", s_range=(5, 5)).passed
    assert verify_lemma("2.3", s_range=(3, 3)).passed
    assert verify_lemma("2.4", s_range=(4, 4)).passed
    assert verify_lemma("2.5", s_range=(3, 3)).passed
    assert verify_lemma("2.5p", s_range=(3, 3)).passed
    assert verify_lemma("2.2w").passed
    with pytest.raises(UsageError):
        verify_lemma("9.9")


def test_verify_lemma_property_suites():
    assert verify_lemma("4.1", seed=1).passed
    assert verify_lemma("5.1").passed
    assert verify_lemma("5.3").passed


def test_sampled_lemma_reports_are_pinned():
    # 4.1 checks every pair whatever the seed; 5.1 and 5.3 sample their bases
    assert verify_lemma("4.1", seed=0).witness == {"path_pairs": 2860}
    assert verify_lemma("4.1", seed=7).witness == {"path_pairs": 2860}
    for lemma_id in ("5.1", "5.3"):
        assert verify_lemma(lemma_id, seed=0).witness == {"bases_checked": 200}


def test_lemma_41_checks_every_path_pair_of_its_hosts():
    # the brute-force count: ordered pairs of induced (v,w;k)-paths with
    # distinct second vertices, over every non-adjacent (v, w) of the hosts
    total = 0
    for g in (cycle(6).graph, cycle(8).graph, h1(3).graph, gp(25).graph):
        for k in (4, 5):
            for v, w in itertools.permutations(range(g.n), 2):
                if not g.has_edge(v, w):
                    paths = all_vw_paths(g, v, w, k)
                    total += sum(q1[1] != q2[1] for q1 in paths for q2 in paths)
    assert total == 2860
    payloads = []
    for seed in (None, 0, 1, 7, 4242):
        payload = verify_lemma("4.1", seed=seed).to_dict()
        del payload["runtime_ms"]
        payloads.append(payload)
    assert payloads == [{"check_id": "lemma4.1", "params": {}, "pass": True, "status": "checked",
                         "witness": {"path_pairs": total}, "counterexample": None}] * 5


def test_bases_are_drawn_only_where_they_can_grow():
    # K1,3 at its centre has no vertex at distance 2 or more
    star = build(4, [(0, 1), (0, 2), (0, 3)])
    assert sample_connected_bases(star, 0, 10, Random(1)) == []
    # the path 0-1-2-3-4 with 5 hung from 1, rooted at 0: the region is
    # 2, 3, 4, 5, and 5 has no neighbour in it, so no base holds it
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    bases = sample_connected_bases(g, 0, 50, Random(3))
    assert len(bases) == 50
    assert {tuple(sorted(base)) for base in bases} == {(2, 3), (3, 4), (2, 3, 4)}


def test_diam_theorem_reports():
    rep = check_diam_theorem(gp(49).graph)
    assert rep.status == "checked" and rep.passed
    assert rep.witness["T9"]["found"]
    rep = check_diam_theorem(petersen().graph)
    assert rep.status == "vacuous" and not rep.passed and rep.counterexample is None
    rep = check_diam_theorem(cycle(9).graph)  # min degree 2: gate fails
    assert rep.status == "vacuous" and "gate" in rep.params["reason"]
    rep = check_diam_theorem(_two_petersens())
    assert rep.status == "vacuous" and rep.params["reason"] == "hypothesis gate failed: disconnected"


def test_the_gate_reads_the_minimum_degree():
    # Petersen with one edge subdivided: connected and C3/C4-free, with
    # degrees 2 and 3, so only the minimum degree fails the gate
    (a, b), *rest = petersen().graph.edges()
    g = build(11, [*rest, (a, 10), (10, b)])
    assert core.stats(g)[:3] == (2, 3, True) and core.is_c3c4_free(g)
    rep = check_diam_theorem(g)
    assert rep.status == "vacuous"
    assert rep.params["reason"] == "hypothesis gate failed: min degree 2 < 3"
    assert scan_corpus([emit_graph6(g)], "P8").params["rejections"]["min_degree"] == 1


def test_the_diam_gate_sees_short_cycles_off_vertex_0_orbit():
    # the C4s of GP(8, 2) and GP(12, 3) and the C3s of GP(9, 3) miss the
    # orbit of vertex 0 under the rotation, so the rooted gate must test
    # the inner root as well
    for n, k in ((8, 2), (12, 3), (9, 3)):
        g = generalized_petersen(n, k)
        assert core.rotation_roots(g) == 1 | 1 << n
        rep = check_diam_theorem(g)
        assert rep.status == "vacuous"
        assert rep.params["reason"] == "hypothesis gate failed: contains C3 or C4"


def test_the_diam_gate_tests_c3c4_once_per_rotation_orbit(monkeypatch):
    # gp(129) has 2 rotation orbits: the diam gate makes one row union per
    # root, and the max-degree gate, which does not read the rotation, one
    # per vertex.  The host is built first, so its construction's own gate
    # call is not counted
    g = gp(129).graph
    test, union = core.is_c3c4_free, core.nbhd
    unions = []  # row unions made inside each C3/C4 test
    inside = []

    def counted_test(g, within=None):
        unions.append(0)
        inside.append(True)
        try:
            return test(g, within)
        finally:
            inside.pop()

    def counted_union(g, mask):
        if inside:
            unions[-1] += 1
        return union(g, mask)

    monkeypatch.setattr(core, "is_c3c4_free", counted_test)
    monkeypatch.setattr(core, "nbhd", counted_union)
    assert check_diam_theorem(g).passed
    assert check_maxdeg_theorem(g).params["reason"] == "no threshold reached at this scale"
    assert unions == [2, 258]


def test_the_diam_gate_asks_for_no_rotation_before_its_c3c4_test(monkeypatch):
    # a host that fails connectivity or the minimum degree is refused before
    # the rooted C3/C4 test, so its rotation is never detected
    asked = []
    detect = core.rotation_roots
    monkeypatch.setattr(core, "rotation_roots", lambda g: asked.append(g.n) or detect(g))
    for g, reason in ((_two_petersens(), "disconnected"), (cycle(9).graph, "min degree 2 < 3")):
        assert check_diam_theorem(g).params["reason"] == f"hypothesis gate failed: {reason}"
    assert asked == []
    # a class member is tested through its orbit roots, and its diameter read by them
    assert check_diam_theorem(petersen().graph).status == "vacuous"
    assert asked and set(asked) == {10}


def test_diam_theorem_reaches_the_t8_clauses():
    for n in (65, 81, 129):
        host = gp(n).graph
        rep = check_diam_theorem(host)
        diam = rep.params["diameter"]
        assert diam >= 16 and rep.status == "checked" and rep.passed
        for name, threshold in DIAM_CLAUSES:
            clause = rep.witness[name]
            assert clause["checked"] == (diam >= threshold)
            if clause["checked"]:
                emb = clause["embedding"]
                assert clause["found"] and verify_embedding(make(name).graph, host, emb)
    assert rep.witness["T8_1"]["checked"]  # gp(129) reaches diam >= 20


def test_diam_theorem_builds_each_clause_tree_once():
    # patterns.make keeps the clause trees: two hosts that reach every
    # clause build each tree once between them
    make.cache_clear()
    for _ in range(2):
        rep = check_diam_theorem(gp(129).graph)  # every clause searched
        assert all(rep.witness[name]["found"] for name, _ in DIAM_CLAUSES)
    info = make.cache_info()
    assert (info.misses, info.hits) == (len(DIAM_CLAUSES), len(DIAM_CLAUSES))
    make.cache_clear()
    check_diam_theorem(cycle(9).graph)  # the gate fails before any tree is needed
    assert make.cache_info().misses == 0


def test_diam_theorem_witnesses_are_pinned():
    # the first embedding per clause, as the search has found it since the
    # clauses were first exercised; a faster search must not move them
    pinned = {
        49: {"T9": [50, 1, 0, 48, 47, 46, 45, 44, 43, 49, 51]},
        97: {"T8_1": [1, 0, 97, 99, 101, 4, 3, 100, 192, 95, 103, 5],
             "T8_2": [101, 99, 97, 0, 1, 98, 100, 3, 192, 190, 96],
             "T9": [98, 1, 0, 96, 95, 94, 93, 92, 91, 97, 99]},
        129: {"T8_1": [1, 0, 129, 131, 133, 4, 3, 132, 256, 127, 135, 5],
              "T8_2": [133, 131, 129, 0, 1, 130, 132, 3, 256, 254, 128],
              "T9": [130, 1, 0, 128, 127, 126, 125, 124, 123, 129, 131]},
    }
    for n, embeddings in pinned.items():
        expected = {name: {"checked": True, "found": True, "embedding": embeddings[name]}
                    if name in embeddings else {"checked": False} for name, _ in DIAM_CLAUSES}
        assert check_diam_theorem(gp(n).graph).witness == expected, n


def _unstamped(rep):
    out = rep.to_dict()
    out.pop("runtime_ms")
    return out


def test_diam_reports_from_the_sweep_levels_equal_per_clause_searches(monkeypatch):
    # every report is what the lock-step sweep's diameter and one plain
    # find_induced per reached clause give.  A host without a block rotation
    # takes its diameter from the sweep itself; a host with one (gp, h3)
    # takes it from one ball per orbit, which must give the sweep's value.
    # Across a host's diameter and its clause searches the rotation is
    # computed once
    rng = Random(512)
    hosts = [gp(n).graph for n in range(25, 130, 12)] + [h3(s).graph for s in (4, 5, 9, 14)]
    hosts += [random_girth5_cubic(rng, 2 * rng.randint(12, 20)) for _ in range(3)]
    hosts += [random_girth5_necklace(rng, copies, 2 * rng.randint(7, 9)) for copies in (4, 7)]
    computed = []  # hosts whose rotation was computed
    detect = core._rotation_roots
    monkeypatch.setattr(core, "_rotation_roots", lambda g: computed.append(id(g)) or detect(g))
    reports = [_unstamped(check_diam_theorem(g)) for g in hosts]
    # every host passes the gate, whose C3/C4 test asks first; its diameter
    # and its searches read the kept mask
    assert sorted(computed) == sorted(id(g) for g in hosts)
    rotated = [core.rotation_roots(g) is not None for g in hosts]
    assert any(rotated) and not all(rotated)
    with monkeypatch.context() as hidden:
        hidden.setattr(core, "rotation_roots", lambda g: None)
        swept = [core.diameter(g) for g in hosts]
    for g, rep, diam in zip(hosts, reports, swept):
        assert rep["params"]["diameter"] == diam
        for name, threshold in DIAM_CLAUSES:
            if diam < threshold:
                assert rep["witness"][name] == {"checked": False}
                continue
            emb = embed.find_induced(make(name).graph, g)
            assert rep["witness"][name] == {"checked": True, "found": emb is not None,
                                            "embedding": None if emb is None else list(emb)}
    # every clause is searched somewhere, and some hosts are vacuous
    assert {rep["status"] for rep in reports} == {"checked", "vacuous"}
    assert all(any(rep["witness"] and rep["witness"][name]["checked"] for rep in reports)
               for name, _ in DIAM_CLAUSES)


def test_diam_reports_are_the_same_with_the_rotation_hidden(monkeypatch):
    # a host with a block rotation takes its diameter from one ball per
    # orbit and roots its clause searches by the rotation.  core.diameter
    # and the search core both read core.rotation_roots, so hiding it sends
    # the host through the lock-step sweep and unrooted searches, and the
    # report must not change.  Relabelled and random hosts have no rotation
    # to hide
    rng = Random(4242)
    rotated = [gp(n).graph for n in range(25, 134, 4)] + [h3(s).graph for s in range(4, 25)]
    rotated += [random_girth5_necklace(rng, copies, 2 * rng.randint(7, 9), alike=True) for copies in (4, 6, 9)]
    plain = [random_girth5_cubic(rng, 2 * rng.randint(12, 30)) for _ in range(6)]
    plain += [random_girth5_necklace(rng, copies, 2 * rng.randint(7, 9)) for copies in (4, 6, 7)]
    for g in (gp(41).graph, h3(8).graph):
        perm = list(range(g.n))
        rng.shuffle(perm)
        plain.append(build(g.n, [(perm[a], perm[b]) for a, b in g.edges()]))
    assert all(core.rotation_roots(g) is not None for g in rotated)
    assert not any(core.rotation_roots(g) for g in plain)
    hosts = rotated + plain
    reports = [_unstamped(check_diam_theorem(g)) for g in hosts]
    assert [rep["params"]["diameter"] for rep in reports] == [core.diameter(g) for g in hosts]
    asked = []  # hosts the hidden detector was asked about, by the diameter or a search
    monkeypatch.setattr(core, "rotation_roots", lambda g: asked.append(id(g)) and None)
    assert [_unstamped(check_diam_theorem(g)) for g in hosts] == reports
    # the searches ask as well, after a failed lowest root
    assert max(asked.count(id(g)) for g in rotated) > 1
    # every clause is found on some rotated host, and is searched on some
    # plain host; some hosts are vacuous
    assert all(any(rep["witness"] and rep["witness"][name].get("found") for rep in reports[:len(rotated)])
               for name, _ in DIAM_CLAUSES)
    assert all(any(rep["witness"] and rep["witness"][name]["checked"] for rep in reports[len(rotated):])
               for name, _ in DIAM_CLAUSES)
    assert {rep["status"] for rep in reports} == {"checked", "vacuous"}


def test_theorem_prints_each_report_before_a_bad_record(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    # a byte above 127 is named as the file holds it, in its own record: 0xff
    # is no UTF-8 at all, and UTF-8 "é" is the two bytes 195 169
    for bad, byte in ((b"Bw!", 33), (b"B\xff", 255), ("Bé".encode(), 195)):
        corpus.write_bytes(emit_graph6(gp(53).graph).encode() + b"\n" + bad + b"\n")
        assert main(["theorem", "--input", str(corpus), "--which", "diam"]) == 2
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 and json.loads(out)["params"]["diameter"] == core.diameter(gp(53).graph)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"byte {byte} outside" in err and err.endswith("in record 2\n")
    # with --report the reports are also kept and written as one list
    corpus.write_text(emit_graph6(gp(53).graph) + "\n" + emit_graph6(petersen().graph) + "\n")
    report = tmp_path / "reports.json"
    assert main(["theorem", "--input", str(corpus), "--which", "diam", "--report", str(report)]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in printed] == ["checked", "vacuous"]
    assert json.loads(report.read_text()) == printed


def test_theorem_report_is_a_list_for_any_corpus_and_scan_writes_one_object(capsys, tmp_path):
    report = tmp_path / "reports.json"
    for records, which in (([], "diam"), ([gp(53).graph], "diam"), ([petersen().graph], "maxdeg")):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("".join(emit_graph6(g) + "\n" for g in records))
        assert main(["theorem", "--input", str(corpus), "--which", which,
                     "--report", str(report)]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(printed) == len(records)
        assert json.loads(report.read_text()) == printed
    assert main(["scan", "--corpus", str(corpus), "--tree", "P8", "--report", str(report)]) == 0
    assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--lemma", "9.9"], id="verify"),
    pytest.param(["scan", "--corpus", "{corpus}", "--tree", "P8"], id="scan"),
    pytest.param(["theorem", "--input", "{corpus}", "--which", "diam"], id="theorem"),
])
def test_a_run_that_exits_two_leaves_no_report_file(capsys, tmp_path, argv):
    # an earlier run's file at --report is removed before anything is built or
    # read, so a failing run cannot leave it looking like its own report
    corpus = tmp_path / "bad_second.g6"
    corpus.write_text(emit_graph6(gp(53).graph) + "\nBw!\n")
    report = tmp_path / "report.json"
    report.write_text("OLD")
    argv = [arg.format(corpus=corpus) for arg in argv]
    assert main([*argv, "--report", str(report)]) == 2
    assert not report.exists()
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--lemma", "4.1", "--s", "5..x"], id="verify-bad-range"),
    pytest.param(["scan", "--corpus", "{corpus}"], id="scan-no-tree"),
    pytest.param(["theorem", "--input", "{corpus}", "--which", "girth"], id="theorem-bad-choice"),
])
def test_a_refused_command_line_touches_no_file(capsys, tmp_path, argv):
    # argparse refuses the command line before any option is acted on, so the
    # file at --report is left as it was
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(emit_graph6(gp(53).graph) + "\n")
    report = tmp_path / "report.json"
    report.write_text("OLD")
    argv = [arg.format(corpus=corpus) for arg in argv]
    assert main([*argv, "--report", str(report)]) == 2
    assert report.read_text() == "OLD"
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["scan", "--tree", "P8", "--corpus"], id="scan"),
    pytest.param(["theorem", "--which", "diam", "--input"], id="theorem"),
])
def test_a_report_path_naming_the_input_is_refused(capsys, tmp_path, argv):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(emit_graph6(gp(53).graph) + "\n")
    before = corpus.read_text()
    assert main([*argv, str(corpus), "--report", str(tmp_path / "." / "corpus.g6")]) == 2
    assert corpus.read_text() == before
    assert "own input" in capsys.readouterr().err


def test_maxdeg_theorem_reports():
    rep = check_maxdeg_theorem(h1(8).graph)
    assert rep.status == "vacuous"
    assert rep.params["thresholds"] == {"T8_1": 943218, "T8_2": 190375, "T9": 197433}


def _digest(rep):
    payload = rep.to_dict()
    del payload["runtime_ms"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def test_lemma_and_maxdeg_reports_are_pinned():
    # sha256 prefixes of every report (runtime_ms dropped) as the lemma
    # catalogue produced them before it became one table; a change to any
    # verdict, witness or parameter moves its digest
    pinned = {
        "2.2i": "f0e70920c07f5129", "2.3": "5d0b67096e84d05d", "2.4": "fe4e35060e14a67c",
        "2.5": "51238cd0e0906a24", "2.5p": "29812d1246d622b6", "2.2w": "c81823b3395143c1",
        "4.1": "7fb603d0c573e501", "5.1": "20b2285168dc0423", "5.3": "99acd6d981bb4d95",
    }
    for lemma_id, digest in pinned.items():
        assert _digest(verify_lemma(lemma_id)) == digest, lemma_id
    # 4.1 checks every pair, so its seeded report is its default one
    seeded = {"4.1": "7fb603d0c573e501", "5.1": "a6f9fdd4ecd46e8d", "5.3": "60a907c8e7a4dfe2"}
    for lemma_id, digest in seeded.items():
        assert _digest(verify_lemma(lemma_id, seed=1)) == digest, lemma_id
    assert _digest(check_maxdeg_theorem(h1(8).graph)) == "a95bd3d1219a8257"
    assert _digest(check_maxdeg_theorem(petersen().graph)) == "d56d835fb4234d49"


def test_scan_corpus_returns_the_three_named_graphs():
    corpus = _named_graph_corpus() + [emit_graph6(_two_petersens())]
    rep = scan_corpus(corpus, "P8")
    assert rep.params["records"] == 6
    assert [m["index"] for m in rep.params["members"]] == [1, 2, 3]
    assert [m["graph6"] for m in rep.params["members"]] == corpus[:3]
    assert rep.params["rejections"] == {
        "disconnected": 1, "min_degree": 1, "c3_c4": 1, "tree_present": 0,
    }


def test_scan_corpus_streams_its_records():
    # rejected by the min-degree filter; 24 rows are past CPython's tuple
    # free lists, whose cached blocks tracemalloc would count as live
    record = emit_graph6(cycle(24).graph)

    def traced_peak(copies):
        corpus = [record] * copies
        tracemalloc.start()
        try:
            rep = scan_corpus(corpus, "P8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.params["records"] == copies
        return peak

    assert traced_peak(500) < 2 * traced_peak(50)


def test_every_report_is_stamped_by_the_one_clock(monkeypatch):
    """A fake clock advancing one second per read: a check that reads it only
    through ``timed`` spans 1 + 2 x (nested timed calls) readings."""
    ticks = itertools.count()
    monkeypatch.setattr(graphio, "perf_counter", lambda: float(next(ticks)))

    def assert_stamped(rep, nested=0):
        assert rep.runtime_ms == 1000 * (1 + 2 * nested), rep.check_id

    for lemma_id, s in (("2.2i", 5), ("2.3", 3), ("2.4", 4), ("2.5", 3), ("2.5p", 3),
                        ("2.2w", 5)):
        assert_stamped(verify_lemma(lemma_id, s_range=(s, s)))
    assert_stamped(verify_lemma("4.1"), nested=8)  # four hosts x k in {4, 5}
    for lemma_id in ("5.1", "5.3"):
        rep = verify_lemma(lemma_id)  # bases are checked on masks, with no nested report
        assert rep.witness["bases_checked"] == 200
        assert_stamped(rep)
    assert_stamped(check_diam_theorem(gp(25).graph))
    assert_stamped(check_maxdeg_theorem(petersen().graph))
    assert_stamped(scan_corpus(_named_graph_corpus(), "P8"))
    c6 = cycle(6).graph
    assert_stamped(check_path_pair(c6, (0, 1, 2, 3), (0, 5, 4, 3), 4))
    assert_stamped(scan_path_pairs(cycle(6), 4))
    assert_stamped(derived_sets(h1(5).graph, 0, []))
    for t in (2, 3, 4):
        assert_stamped(verify_ramsey_small(t))
    assert_stamped(check_geodesic(c6, (0, 1, 2, 3)))


def test_reports_are_deterministic_apart_from_runtime():
    def runs(check):
        out = []
        for _ in range(2):
            payload = check().to_dict()
            del payload["runtime_ms"]
            out.append(payload)
        return out

    first, second = runs(lambda: verify_lemma("2.2w"))
    assert first == second and first["witness"]
    corpus = _named_graph_corpus() + [emit_graph6(gp(n).graph) for n in (9, 11, 25)]
    first, second = runs(lambda: scan_corpus(corpus, "T9"))
    assert first == second and first["params"]["members"]


def test_scan_corpus_rejects_non_tree_pattern():
    with pytest.raises(UsageError):
        scan_corpus(_named_graph_corpus(), "C6")


def test_scan_rejects_tree_containing_hosts():
    rep = scan_corpus([emit_graph6(h1(5).graph)], "T9")
    assert rep.params["members"] == []
    assert rep.params["rejections"]["tree_present"] == 1


def test_cli_gen_and_chi(capsys, tmp_path):
    assert main(["gen", "--family", "petersen", "--format", "g6"]) == 0
    record = capsys.readouterr().out.strip()
    assert parse_graph6(record).n == 10
    target = tmp_path / "petersen.g6"
    target.write_text(record + "\n")
    assert main(["chi", "--input", str(target)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_gen_dot(capsys):
    assert main(["gen", "--family", "C3", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert "graph {" in out and "--" in out


def test_cli_check_free(capsys, tmp_path):
    host = tmp_path / "h1_5.g6"
    host.write_text(emit_graph6(h1(5).graph) + "\n")
    assert main(["check", "--host", str(host), "--pattern", "P10"]) == 0
    assert "free" in capsys.readouterr().out


def test_cli_check_names_where_the_pattern_is(capsys, tmp_path):
    g = gp(129).graph
    host = tmp_path / "gp129.g6"
    host.write_text(emit_graph6(g) + "\n")
    assert main(["check", "--host", str(host), "--pattern", "T8_2"]) == 0
    head, _, at = capsys.readouterr().out.strip().partition(" at ")
    assert head == "record 1: contains T8_2"
    assert verify_embedding(make("T8_2").graph, g, json.loads(at))


def test_cli_check_resolves_family_ids_as_it_does_petersen(capsys, tmp_path):
    # one resolver: petersen is the gp:5 record under its own id
    host = tmp_path / "h4_1.g6"
    host.write_text(emit_graph6(families.h4(1).graph) + "\n")  # one block plus z: a Petersen graph
    outs = []
    for pid in ("petersen", "gp:5", "GP:5"):
        assert main(["check", "--host", str(host), "--pattern", pid]) == 0
        outs.append(capsys.readouterr().out)
    at = list(embed.find_induced(gp(5).graph, families.h4(1).graph))
    assert outs == [f"record 1: contains {pid} at {at}\n" for pid in ("petersen", "gp:5", "gp:5")]


def _h4_with_a_block_edge_cut():
    g = families.h4(3).graph
    cut = (families.vertex("h4", 3, "u1.1"), families.vertex("h4", 3, "u1.2"))
    assert g.has_edge(*cut)
    return build(g.n, [e for e in g.edges() if e != cut])


def _square_of_c12():
    """C12 with each vertex also joined to the one two steps on: full of triangles."""
    return build(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 2)])


def _cube():
    return build(8, [(a, a | 1 << b) for a in range(8) for b in range(3) if not a >> b & 1])


@pytest.mark.parametrize("lemma_id, family, make_host, argv, params", [
    ("2.5p", "h4", _h4_with_a_block_edge_cut, ["--s", "3..3"],
     {"failed_on": {"s": 3, "block": 1, "isomorphic": False}}),
    ("4.1", "gp", _cube, [], {"failed_on": {"host": "gp:25", "k": 4}}),
    ("5.1", "h1", _square_of_c12, [], {"host": "h1:5", "w": 0, "X": [7, 8, 9]}),
    ("5.3", "h1", _square_of_c12, [], {"host": "h1:5", "w": 0, "X": [8, 9]}),
])
def test_a_rejected_lemma_host_is_the_counterexample_and_exits_one(
    monkeypatch, capsys, lemma_id, family, make_host, argv, params
):
    """Each lemma's failure branch, reached by swapping the host builder it
    reads for one whose graph the check must reject.  The family's
    generators are not automorphisms of that graph, so they go too."""
    host = make_host()
    real = getattr(families, family)
    monkeypatch.setattr(cli.families, family,
                        lambda size: replace(real(size), graph=host, generators=()))
    rep = verify_lemma(lemma_id, s_range=(3, 3) if argv else None)
    assert rep.status == "checked" and rep.is_failure
    assert parse_graph6(rep.counterexample) == host
    assert rep.params == params
    assert main(["verify", "--lemma", lemma_id, *argv]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample"] == rep.counterexample


def test_cli_verify_exit_codes_and_report(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "--lemma", "2.4", "--s", "4..4", "--report", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True and payload["status"] == "checked"
    assert set(payload) == {
        "check_id", "params", "pass", "status", "witness", "counterexample", "runtime_ms",
    }
    capsys.readouterr()


def test_cli_scan_and_theorem(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(_named_graph_corpus()) + "\n")
    assert main(["scan", "--corpus", str(corpus), "--tree", "P8"]) == 0
    capsys.readouterr()
    single = tmp_path / "gp49.g6"
    single.write_text(emit_graph6(gp(49).graph) + "\n")
    assert main(["theorem", "--input", str(single), "--which", "diam"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["pass"] is True


def test_cli_usage_and_format_errors(capsys, tmp_path):
    assert main(["verify", "--lemma", "nope"]) == 2
    assert main(["nosuchcommand"]) == 2
    bad = tmp_path / "bad.g6"
    bad.write_text("B`\n")
    assert main(["chi", "--input", str(bad)]) == 2
    capsys.readouterr()
    good = tmp_path / "k3.g6"
    good.write_text("Bw\n")
    _exit_two_with_one_line(
        capsys, ["scan", "--corpus", str(good), "--tree", "P8", "--jobs", "2"], "--jobs"
    )
    # a family id's own construction error is reported, not retried as a pattern id
    for family_id, needle in (("h3:2", "h3 needs s >= 4"), ("gp:6", "gp needs odd n >= 5"),
                              ("gp:32769", "above the cap"), ("h1:11000", "above the cap"),
                              ("h1:x", "bad size"), ("h1", "needs a size, as in h1:5"),
                              ("gp", "needs a size, as in gp:5"), ("h1:1_0", "bad size"),
                              ("gp:\uff12\uff15", "bad size"), ("T8_3", "unknown pattern id"),
                              ("T9_1", "unknown pattern id"), ("P1_0", "unknown pattern id"),
                              # a size too long for int() to read is over the cap
                              ("P" + "9" * 5000, "above the vertex cap"),
                              ("h1:" + "9" * 5000, "above the vertex cap")):
        _exit_two_with_one_line(capsys, ["gen", "--family", family_id], needle)
    # seeds are ASCII digits: int() would read 1_0 and a full-width 1
    for seed in ("\uff11_0", "1_0"):
        _exit_two_with_one_line(capsys, ["verify", "--lemma", "4.1", "--seed", seed], f"seed {seed!r}")
    _exit_two_with_one_line(capsys, ["scan", "--corpus", str(good), "--tree", "T8_3"],
                            "unknown pattern id")
    # an option's digit run too long for int() to read is refused in one
    # short line that does not echo it
    nines = "9" * 5000
    for argv, needle in ((["chi", "--input", str(good), "--cap", nines], "cap of 5000 digits"),
                         (["verify", "--lemma", "2.3", "--s", "3.." + nines], "a size of 5000 digits"),
                         (["verify", "--lemma", "4.1", "--seed", "0" + nines], "seed of 5000 digits")):
        assert len(_exit_two_with_one_line(capsys, argv, needle)) < 80
    # an argument holding a newline is quoted with the newline escaped, and a
    # path holding a NUL byte is refused before open() sees it
    _exit_two_with_one_line(capsys, ["verify", "--lemma", "2.3", "x\ny"], "unrecognized arguments: x\\ny")
    for argv in (["scan", "--corpus", "a\0b", "--tree", "P8"], ["verify", "--lemma", "2.3", "--report", "a\0b"]):
        _exit_two_with_one_line(capsys, argv, "holds a NUL byte")


@pytest.mark.parametrize("error", [IndexError("list index out of range"), ValueError("a\nb"), KeyError(3)])
def test_an_internal_error_exits_70_in_one_line(monkeypatch, capsys, error):
    # exit 1 is a counterexample and exit 2 bad input; an exception the
    # package did not mean to raise is neither
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "verify_lemma", broken)
    assert main(["verify", "--lemma", "2.3"]) == 70
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    # the line names the exception and the frame that raised it
    assert re.fullmatch(rf"internal error: {type(error).__name__}: .+ \(at test_cli\.py:[0-9]+\)\n", err)


def _exit_two_with_one_line(capsys, argv, needle):
    """Run ``argv``; it must exit 2 with one stderr line holding ``needle``, returned."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err and "Traceback" not in err
    return err


def test_cli_bad_size_range_exits_two(capsys):
    # sizes are ASCII digits: int() would read 4_0 and a full-width 4
    for s in ("a..b", "4_0..4_0", "\uff14..\uff14", " 5"):
        _exit_two_with_one_line(capsys, ["verify", "--lemma", "2.3", "--s", s],
                                f"invalid size range {s!r}")
    for lemma_id, s in (("4.1", "3..5"), ("5.1", "2..2"), ("5.3", "5")):
        _exit_two_with_one_line(capsys, ["verify", "--lemma", lemma_id, "--s", s],
                                "takes no size range")
    _exit_two_with_one_line(capsys, ["verify", "--lemma", "2.2w", "--s", "5..9"], "one size")
    for s in ("5..3", "0..3"):
        _exit_two_with_one_line(capsys, ["verify", "--lemma", "2.3", "--s", s], "needs 1 <= A <= B")


def test_an_empty_size_range_is_refused():
    # not a pass over zero hosts
    for lemma_id in ("2.2i", "2.3", "2.5p"):
        for s_range in ((5, 3), (0, 3)):
            with pytest.raises(UsageError, match="needs 1 <= A <= B"):
                verify_lemma(lemma_id, s_range)


def test_cli_verify_range_above_the_cap_exits_two_before_building(capsys):
    # the last size of each range is the first above the vertex cap; no host
    # of the range is built before the refusal
    for lemma_id, s, family in (("2.3", "3..4369", "h2(4369)"), ("2.2i", "5..10923", "h1(10923)"),
                                ("2.4", "4..4682", "h3(4682)"), ("2.5", "3..7282", "h4(7282)"),
                                ("2.5p", "3..7282", "h4(7282)"), ("2.2w", "10923", "h1(10923)")):
        start = time.perf_counter()
        _exit_two_with_one_line(capsys, ["verify", "--lemma", lemma_id, "--s", s],
                                f"{family} has")
        assert time.perf_counter() - start < 1.0


def test_freeness_sweep_builds_each_host_after_the_last_is_searched(monkeypatch):
    events = []
    build_h2, search = families.FAMILIES["h2"], cli.find_induced
    monkeypatch.setitem(families.FAMILIES, "h2", lambda s: events.append(f"h2({s})") or build_h2(s))
    monkeypatch.setattr(cli, "find_induced",
                        lambda p, g, gens=(): events.append(g.n) or search(p, g, gens))
    assert verify_lemma("2.3", (3, 4)).passed
    assert events == ["h2(3)", 46, 46, "h2(4)", 61, 61]
    # a sweep stops building at its first hit
    built = []
    hosts = (built.append(s) or h1(s) for s in (5, 6))
    assert not cli._freeness_sweep("lemma.test", hosts, [make("S8:0001")]).passed
    assert built == [5]


def test_cli_seed_on_a_lemma_that_does_not_sample_exits_two(capsys):
    for lemma_id in ("2.2i", "2.3", "2.4", "2.5", "2.5p", "2.2w"):
        _exit_two_with_one_line(capsys, ["verify", "--lemma", lemma_id, "--seed", "9"],
                                "takes no seed")
        with pytest.raises(UsageError):
            verify_lemma(lemma_id, seed=0)
    _exit_two_with_one_line(capsys, ["verify", "--lemma", "9.9", "--seed", "9"], "unknown lemma")
    # the sampling lemmas keep seed 0 when none is given
    assert verify_lemma("5.1").params["seed"] == 0


def test_cli_chi_cap_below_one_exits_two(capsys, tmp_path):
    k2 = tmp_path / "k2.g6"
    k2.write_text(emit_graph6(build(2, [(0, 1)])) + "\n")
    for cap in ("-5", "0", "1_0", "\uff13"):
        _exit_two_with_one_line(capsys, ["chi", "--input", str(k2), "--cap", cap], f"cap '{cap}'")
    assert main(["chi", "--input", str(k2), "--cap", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_missing_corpus_exits_two(capsys, tmp_path):
    missing = str(tmp_path / "missing.g6")
    _exit_two_with_one_line(capsys, ["scan", "--corpus", missing, "--tree", "S8:0001"], missing)


def test_cli_lemma_22w_below_witness_size_exits_two(capsys):
    _exit_two_with_one_line(capsys, ["verify", "--lemma", "2.2w", "--s", "1"], "s >= 5")


def test_cli_pattern_over_the_cap_exits_two_whatever_the_corpus(capsys, tmp_path):
    # K3 fails the hypothesis gate, so no search would ever see the pattern;
    # the cap is checked before any record is read
    k3 = tmp_path / "k3.g6"
    k3.write_text("Bw\n")
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    _exit_two_with_one_line(capsys, ["scan", "--corpus", str(k3), "--tree", "P17"], "17 > 16")
    _exit_two_with_one_line(capsys, ["check", "--host", str(empty), "--pattern", "P17"], "17 > 16")



def _run_module(*argv):
    src = str(Path(treefree.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "treefree.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_cli_module_process_exit_contract(tmp_path):
    ok = _run_module("verify", "--lemma", "2.4", "--s", "4..4")
    assert ok.returncode == 0
    lines = ok.stdout.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["pass"] is True
    bad = _run_module("scan", "--corpus", str(tmp_path / "missing.g6"), "--tree", "P8")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.count("\n") == 1 and "Traceback" not in bad.stderr


def test_cli_vacuous_is_not_failure(capsys, tmp_path):
    single = tmp_path / "pet.g6"
    single.write_text(emit_graph6(petersen().graph) + "\n")
    assert main(["theorem", "--input", str(single), "--which", "maxdeg"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "vacuous"


def test_checked_failure_maps_to_exit_one():
    # no honest input produces a checked failure, so emit synthetic reports
    from treefree.cli import _emit_report
    from treefree.graphio import Report

    good = Report(check_id="x", passed=True, status="checked")
    vac = Report(check_id="x", passed=False, status="vacuous")
    bad = Report(check_id="x", passed=False, status="checked", counterexample="Bw")
    assert [_emit_report(rep, None) for rep in (good, vac, bad)] == [0, 0, 1]
