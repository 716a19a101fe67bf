from __future__ import annotations

import io
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treefree import graphio
from treefree.core import build
from treefree.errors import CapacityError, FormatError
from treefree.graphio import Report, emit_dot, emit_graph6, parse_graph6, stream_corpus

from .oracles import random_graph

K3 = build(3, [(0, 1), (1, 2), (0, 2)])


def test_k3_round_trip_literals():
    # hand-encoded: N(3)='B'; bits x(0,1)=x(0,2)=x(1,2)=1 pad 000 -> 56+63='w'
    assert emit_graph6(K3) == "Bw"
    assert parse_graph6("Bw") == K3


def test_empty_graph_literal():
    assert emit_graph6(build(0, [])) == "?"
    assert parse_graph6("?").n == 0


def test_more_hand_encoded_records():
    # P4: bits (0,1),(0,2),(1,2),(0,3),(1,3),(2,3) = 101001 -> 41+63='h'
    p4 = build(4, [(0, 1), (1, 2), (2, 3)])
    assert emit_graph6(p4) == "Ch"
    # K4: all six bits set -> 63+63=126='~'
    k4 = build(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert emit_graph6(k4) == "C~"


def test_header_is_allowed():
    assert parse_graph6(">>graph6<<Bw") == K3


def test_dirty_padding_rejected():
    # '`' = 33 = 100001: one real edge plus nonzero padding
    with pytest.raises(FormatError):
        parse_graph6("B`")


def test_byte_out_of_range_has_offset():
    with pytest.raises(FormatError) as err:
        parse_graph6("B\x1f")
    assert err.value.offset == 1


def test_truncated_and_trailing():
    with pytest.raises(FormatError):
        parse_graph6("D")  # n=5 needs 2 body bytes
    with pytest.raises(FormatError):
        parse_graph6("Bww")


def test_emission_deterministic():
    g1 = build(4, [(0, 1), (2, 3)])
    g2 = build(4, [(2, 3), (0, 1), (1, 0)])
    assert g1 == g2
    assert emit_graph6(g1) == emit_graph6(g2)


def test_long_form_vertex_count():
    rng = Random(4)
    g = random_graph(rng, 65, 0.05)
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def test_long_form_vertex_count_above_vertex_cap():
    # N(n) digits are 6-bit groups + 63: 65536 = (16, 0, 0), 65535 = (15, 63, 63)
    with pytest.raises(FormatError, match="cap of 65535"):
        parse_graph6("~O??")
    with pytest.raises(FormatError, match="truncated"):
        parse_graph6("~N~~")


_G5 = "IheA@GUAo"  # gp(5), ten vertices, eight body bytes
_LONG = "~?@@" + "?" * 347  # 65 isolated vertices: 2080 bits in 347 bytes, 2 padding bits


@pytest.mark.parametrize("record, message, offset", [
    ("!w", "outside graph6 range", 0),
    (_G5[:4] + "!" + _G5[5:], "outside graph6 range", 4),
    (_G5[:-1] + "\x7f", "outside graph6 range", 8),
    (_G5[:-1] + "\u00e9", "outside graph6 range", 8),
    (">>graph6<<B!", "outside graph6 range", 1),
    ("D", "truncated", 1),
    ("D?", "truncated", 2),
    (_LONG[:-1], "truncated", 350),
    ("Bww", "trailing garbage", 2),
    (_LONG + "?", "trailing garbage", 351),
    ("B`", "nonzero padding", 1),
    (_LONG[:-1] + "@", "nonzero padding", 350),
    ("~A", "truncated long-form", 2),
    ("~~??", "8-byte", 1),
    ("~O??", "cap of 65535", 1),
])
def test_malformed_record_offsets(record, message, offset):
    assert parse_graph6(_G5).n == 10 and parse_graph6(_LONG).n == 65
    with pytest.raises(FormatError, match=message) as err:
        parse_graph6(record)
    assert err.value.offset == offset


def test_capacity_error_above_cap():
    class Fake:
        n = 258048

    with pytest.raises(CapacityError):
        emit_graph6(Fake())


@st.composite
def small_graphs(draw):
    # 63 and up take the four-byte N(n) form
    n = draw(st.integers(min_value=0, max_value=70))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return build(n, chosen)


@given(small_graphs())
@settings(max_examples=120, deadline=None)
def test_round_trip_is_identity(g):
    assert parse_graph6(emit_graph6(g)) == g


@pytest.mark.parametrize("chunk", [4, 8, 12, graphio._CHUNK])
def test_chunked_codec_matches_networkx(monkeypatch, chunk):
    # a body of a few bytes per chunk puts columns across every chunk boundary;
    # the fixed sizes take both N(n) forms and every padding length, at the
    # densities of the all-'?' and the all-'~' body
    nx = pytest.importorskip("networkx")
    monkeypatch.setattr(graphio, "_CHUNK", chunk)
    rng = Random(chunk)
    fixed = [(n, p) for n in (0, 1, 2, 62, 63, 64, 65) for p in (0, 1)]
    for n, p in fixed + [(rng.randint(0, 90), rng.random()) for _ in range(40)]:
        g = random_graph(rng, n, p)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        text = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert emit_graph6(g) == text
        assert parse_graph6(text) == g
        nbits = n * (n - 1) // 2
        full, rest = divmod(nbits, 6)
        body = text[len(text) - (nbits + 5) // 6:]
        if p == 0:
            assert body == "?" * len(body)
        elif p == 1:  # every bit set but the padding
            assert body == "~" * full + (chr(63 + ((1 << rest) - 1 << 6 - rest)) if rest else "")


def test_dot_output():
    k2 = build(2, [(0, 1)])
    text = emit_dot(k2)
    assert "0 -- 1;" in text and text.startswith("graph {")
    assert emit_dot(build(0, [])) == "graph {\n}\n"
    labeled = emit_dot(build(3, [(0, 1), (1, 2), (0, 2)]), labels={0: "a"})
    assert '"a"' in labeled


def test_stream_two_records():
    src = io.StringIO("Bw\n\n?\n")
    out = list(stream_corpus(src))
    assert [i for i, _ in out] == [1, 2]
    assert out[0][1] == K3 and out[1][1].n == 0


def test_stream_strict_names_bad_record():
    src = io.StringIO("Bw\nB`\n?\n")
    with pytest.raises(FormatError) as err:
        list(stream_corpus(src))
    assert err.value.record == 2


def test_stream_empty_source():
    assert list(stream_corpus(io.StringIO(""))) == []


def test_report_schema_and_invariants():
    rep = Report(check_id="x", passed=True, status="checked")
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "check_id", "params", "pass", "status", "witness", "counterexample", "runtime_ms",
    }
    with pytest.raises(ValueError):
        Report(check_id="x", passed=True, status="vacuous")
    with pytest.raises(ValueError):
        Report(check_id="x", passed=False, status="error")
    with pytest.raises(ValueError):
        Report(check_id="x", passed=False, status="checked")  # missing counterexample
    with pytest.raises(ValueError):
        Report(check_id="x", passed=True, status="checked", counterexample="Bw")
    fail = Report(check_id="x", passed=False, status="checked", counterexample="Bw")
    assert fail.is_failure
    assert not Report(check_id="x", passed=False, status="vacuous").is_failure
