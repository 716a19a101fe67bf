"""The four workloads: their inputs, one timed pass, and the verdict check.

A pass drives the program only through the entry points the CLI uses and
returns per-item seconds plus raw results.  ``summarize`` turns the raw
results into plain data outside the timed region; ``errors`` compares those
with the independent reference and counts the items that differ or raised.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter

import inputs
from inputs import SCAN_TREE, parse6

GATE_REASONS = ("disconnected", "min_degree", "c3_c4")


def _error(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def stream_pass(tf, path: Path, check, mark, count: int) -> tuple[list, list]:
    """Iterate ``stream_corpus`` as the CLI does; each item is one parse plus one check.

    ``mark(i)`` runs before item i and once after the last item, outside
    every item's timed interval.
    """
    times, out = [], []
    mark(0)
    start = perf_counter()
    try:
        for _, g in tf.graphio.stream_corpus(str(path)):
            try:
                result = check(g)
            except Exception as exc:  # a raised item is a failed verdict, not a crash
                result = exc
            times.append(perf_counter() - start)
            out.append(result)
            mark(len(out))
            start = perf_counter()
    except Exception as exc:  # the stream itself broke: the remaining records are lost
        out += [exc] * (count - len(out))
    return times, out


def item_pass(items, call, mark) -> tuple[list, list]:
    """Time ``call(item)`` for each item; ``mark`` runs as in ``stream_pass``."""
    times, out = [], []
    for i, item in enumerate(items):
        mark(i)
        start = perf_counter()
        try:
            result = call(item)
        except Exception as exc:  # a raised item is a failed verdict, not a crash
            result = exc
        times.append(perf_counter() - start)
        out.append(result)
    mark(len(out))
    return times, out


class Workload:
    """One workload: its inputs, a timed pass, and the verdict check.

    ``tail_pct`` is fixed per workload (see PREDICTIONS.md).  It has at least
    ten samples beyond it after a few passes and falls inside one item's band
    of samples, so neither a faster program nor noise moves it to another item.
    """

    name: str
    tail_pct: float

    def prepare(self, workdir: Path) -> None:
        """Write the corpus file the CLI would read, if the workload has one."""

    def errors(self, outcomes: list, expected: list) -> int:
        return sum(o != e for o, e in zip(outcomes, expected))

    def gate_rejects(self, outcomes: list) -> int:
        return 0


class CorpusWorkload(Workload):
    """A workload whose inputs are graph6 records, written to ``<name>.g6``."""

    make_corpus = None

    def __init__(self, seed: int, tiny: bool = False):
        self.records = self.make_corpus(seed, tiny)

    def prepare(self, workdir: Path) -> None:
        self.path = workdir / f"{self.name}.g6"
        self.path.write_text("".join(r.text + "\n" for r in self.records))


class Verify(Workload):
    """Every lemma id, one item per size, then the seeded lemmas and R(3, t)."""

    name = "verify"
    tail_pct = 90

    def __init__(self, seed: int, tiny: bool = False):
        self.items = inputs.verify_items(seed, tiny)

    def run_pass(self, tf, mark) -> tuple[list, list]:
        def call(item):
            if item.lemma is None:
                return tf.witness.verify_ramsey_small(**item.kwargs)
            return tf.cli.verify_lemma(item.lemma, **item.kwargs)

        return item_pass(self.items, call, mark)

    def summarize(self, raw: list) -> list:
        return [_error(r) if isinstance(r, BaseException) else
                {"check_id": r.check_id, "status": r.status, "passed": r.passed,
                 "value": r.params.get("value")} for r in raw]

    def expected(self) -> list:
        from reference import RAMSEY

        return [{"check_id": f"ramsey3{it.kwargs['t']}", "status": "checked", "passed": True,
                 "value": RAMSEY[it.kwargs["t"]]}
                if it.lemma is None else
                {"check_id": f"lemma{it.lemma}", "status": "checked", "passed": True, "value": None}
                for it in self.items]


class Scan(CorpusWorkload):
    """Each record through ``scan_corpus`` as a one-line corpus, looking for S8:0001."""

    name = "scan"
    tail_pct = 95

    make_corpus = staticmethod(inputs.scan_corpus)

    def run_pass(self, tf, mark) -> tuple[list, list]:
        scan = tf.cli.scan_corpus
        return item_pass(self.records, lambda rec: scan([rec.text], SCAN_TREE), mark)

    def summarize(self, raw: list) -> list:
        out = []
        for r in raw:
            if isinstance(r, BaseException):
                out.append(_error(r))
            elif r.params["members"]:
                out.append({"verdict": "member", "graph6": r.params["members"][0]["graph6"]})
            else:
                out.append({"verdict": ",".join(k for k, c in r.params["rejections"].items() if c)})
        return out

    def expected(self) -> list:
        from reference import scan_verdict

        verdicts = [scan_verdict(parse6(rec.text), SCAN_TREE) for rec in self.records]
        return [{"verdict": "member", "graph6": rec.text} if v == "member" else {"verdict": v}
                for rec, v in zip(self.records, verdicts)]

    def gate_rejects(self, outcomes: list) -> int:
        return sum(o.get("verdict") in GATE_REASONS for o in outcomes)

    def whole_file(self, tf) -> dict:
        """The whole corpus file in one ``scan_corpus`` call, as ``treefree scan`` runs it."""
        try:
            rep = tf.cli.scan_corpus(str(self.path), SCAN_TREE)
        except Exception as exc:
            return _error(exc)
        return {"members": [[m["index"], m["graph6"]] for m in rep.params["members"]],
                "rejections": rep.params["rejections"]}

    def whole_file_expected(self, expected: list) -> dict:
        tallies = Counter(e["verdict"] for e in expected)
        return {"members": [[i + 1, e["graph6"]] for i, e in enumerate(expected) if e["verdict"] == "member"],
                "rejections": {k: tallies[k] for k in (*GATE_REASONS, "tree_present")}}


class Diam(CorpusWorkload):
    """``theorem --which diam`` over gp(n) records streamed from a corpus file."""

    name = "diam"
    tail_pct = 90

    make_corpus = staticmethod(inputs.diam_corpus)

    def run_pass(self, tf, mark) -> tuple[list, list]:
        return stream_pass(tf, self.path, tf.cli.check_diam_theorem, mark, len(self.records))

    def summarize(self, raw: list) -> list:
        out = []
        for r in raw:
            if isinstance(r, BaseException):
                out.append(_error(r))
                continue
            clauses = {name: [c.get("checked", False), c.get("found"), c.get("embedding")]
                       for name, c in (r.witness or {}).items()}
            out.append({"status": r.status, "passed": r.passed,
                        "diameter": r.params.get("diameter"), "clauses": clauses})
        return out

    def expected(self) -> list:
        from reference import diam_facts

        return [diam_facts(parse6(rec.text)) for rec in self.records]

    def errors(self, outcomes: list, expected: list) -> int:
        from reference import DIAM_CLAUSES, contains, is_induced_embedding

        bad = 0
        for rec, o, e in zip(self.records, outcomes, expected):
            n, edges = host = parse6(rec.text)
            if "error" in o:
                bad += 1
                continue
            if e["gate"] is not None:
                bad += (o["status"], o["passed"], o["diameter"]) != ("vacuous", False, -1)
                continue
            reached = [name for name, thr in DIAM_CLAUSES if e["diameter"] >= thr]
            ok = (o["diameter"] == e["diameter"]
                  and o["status"] == ("checked" if reached else "vacuous")
                  and set(o["clauses"]) == {name for name, _ in DIAM_CLAUSES}
                  and all(o["clauses"][name][0] == (name in reached) for name, _ in DIAM_CLAUSES))
            if ok:
                found = []
                for name in reached:
                    _, hit, emb = o["clauses"][name]
                    found.append(bool(hit))
                    if hit:
                        ok = ok and is_induced_embedding(name, n, edges, emb)
                    else:
                        ok = ok and not contains(host, name)
                ok = ok and o["passed"] == (bool(reached) and all(found))
            bad += not ok
        return bad

    def gate_rejects(self, outcomes: list) -> int:
        return sum(o.get("diameter") == -1 for o in outcomes)


class Chi(CorpusWorkload):
    """``chi_structured`` on each record streamed from a corpus file, as ``treefree chi`` runs."""

    name = "chi"
    tail_pct = 99

    make_corpus = staticmethod(inputs.chi_corpus)

    def run_pass(self, tf, mark) -> tuple[list, list]:
        return stream_pass(tf, self.path, tf.chromatic.chi_structured, mark, len(self.records))

    def summarize(self, raw: list) -> list:
        return [_error(r) if isinstance(r, BaseException) else r for r in raw]

    def expected(self) -> list:
        from reference import chromatic_number, known_chi

        return [known_chi(rec.kind) or chromatic_number(parse6(rec.text)) for rec in self.records]


WORKLOADS = {w.name: w for w in (Verify, Scan, Diam, Chi)}
