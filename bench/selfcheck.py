"""Self-check of the benchmark's verdict checking, on tiny inputs.

    python3 bench/selfcheck.py

For each workload, one pass over tiny inputs is the smoke run: its
error_rate must be 0.  Then one verdict is corrupted (a wrong lemma status,
a dropped scan member, an embedding with one vertex moved, a wrong chi) and
the error_rate must become positive.  Exits 0 when every check behaves.
"""

from __future__ import annotations

import copy
import sys

from run import WORK, fresh_import, missing_dependency
from inputs import parse6
from workloads import WORKLOADS


def corrupt_verify(outcomes: list, workload) -> None:
    outcomes[0]["status"] = "vacuous"


def corrupt_scan(outcomes: list, workload) -> None:
    i = next(i for i, o in enumerate(outcomes) if o["verdict"] == "member")
    outcomes[i] = {"verdict": "tree_present"}


def corrupt_diam(outcomes: list, workload) -> None:
    """Move the image of u1 to a vertex outside the image that misses the image of u2."""
    for rec, o in zip(workload.records, outcomes):
        for checked, found, emb in o["clauses"].values():
            if found:
                n, edges = parse6(rec.text)
                near = {u for e in edges if emb[1] in e for u in e}
                emb[0] = next(x for x in range(n) if x not in emb and x not in near)
                return
    raise AssertionError("no embedding to corrupt")


def corrupt_chi(outcomes: list, workload) -> None:
    outcomes[0] += 1


CORRUPT = {"verify": corrupt_verify, "scan": corrupt_scan, "diam": corrupt_diam, "chi": corrupt_chi}


def main() -> int:
    problem = missing_dependency()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(seed=0, tiny=True)
        workload.prepare(WORK)
        _, tf = fresh_import()
        _, raw = workload.run_pass(tf, lambda item: None)
        outcomes = workload.summarize(raw)
        expected = workload.expected()
        clean = workload.errors(outcomes, expected)
        bad = copy.deepcopy(outcomes)
        CORRUPT[name](bad, workload)
        dirty = workload.errors(bad, expected)
        line = f"{name}: {len(outcomes)} items, error_rate {clean / len(outcomes):.3g} as run, " \
               f"{dirty / len(outcomes):.3g} with one verdict corrupted"
        ok = ok and clean == 0 and dirty > 0
        if hasattr(workload, "whole_file"):
            whole, want = workload.whole_file(tf), workload.whole_file_expected(expected)
            dropped = copy.deepcopy(whole)
            dropped["members"].pop()
            line += f"; whole-file scan {'agrees' if whole == want else 'DISAGREES'}, " \
                    f"{'caught' if dropped != want else 'MISSED'} a dropped member"
            ok = ok and whole == want and dropped != want
        print(line)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
