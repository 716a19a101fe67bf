"""Named checks and the command-line surface.

Subcommands: gen, check, chi, verify, scan, theorem.  Exit codes: 0 all
pass, 1 a checked failure, 2 usage, input or format errors, 70 an internal
error (``EX_SOFTWARE``: an exception the package did not mean to raise).
Exits 2 and 70 print one stderr line, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from random import Random
from typing import Any, Callable, Iterable, NoReturn

from . import chromatic, core, families, patterns, witness
from .core import Graph, balls, bits, degree_classes, diameter, induced, mask_of
from .embed import capped, find_induced, is_isomorphic
from .errors import FormatError, TreefreeError, UsageError
from .graphio import Report, checked, emit_dot, emit_graph6, stream_corpus, timed

DIAM_CLAUSES = (("T8_1", 20), ("T8_2", 16), ("T9", 12))
# The paper's max-degree thresholds, copied as literals: nothing in the code
# derives them, and they are unexplained here.
MAXDEG_CLAUSES = (("T8_1", 943218), ("T8_2", 190375), ("T9", 197433))

# Fixed witness sets inside h1(5), by label.
_W22_TSTAR9 = "u1.6 u1.1 v1 u4.6 u4.1 u2.1 u2.6 u2.5 v2 u5.3 u5.2 u3.2 u3.3".split()
_W22_S8_0001 = "u1.6 u1.1 v1 u4.6 u4.1 u2.1 u2.6 u2.5 v2 u3.2 u3.5".split()
_W22_S8_1 = "u1.6 u1.1 v1 u4.6 u4.1 u2.1 u2.6 u2.2 u2.3 v2 u3.3 u3.2 u5.2 u5.3".split()


def _freeness_sweep(
    check_id: str,
    hosts: Iterable[families.NamedGraph],
    forbidden: list[families.NamedGraph],
) -> Report:
    """Assert every host is free of every pattern; stop at the first hit.
    Hosts are taken one at a time, so a lazy ``hosts`` builds the next one
    only once the last is done.

    Each search is orbit-rooted by the host's generators.  Rooting keeps the
    first embedding (see ``embed``), so a failure reports the witness an
    unrooted search would find.
    """
    done = []
    for fg in hosts:
        for pat in forbidden:
            done.append({"host": fg.id, "pattern": pat.id})
            emb = find_induced(pat.graph, fg.graph, fg.generators)
            if emb is not None:
                return checked(check_id, fg.graph, False, {"failed_on": done[-1]},
                               {"embedding": list(emb)})
    return Report(check_id, {"checked": done}, passed=True)


def _lemma_22_witnesses(s: int) -> Report:
    """Replay the three fixed induced-subtree witnesses inside h1(s)."""
    if s < 5:
        raise UsageError(f"lemma 2.2w needs s >= 5 (its witnesses use five 6-cycles), got {s}")
    host = families.h1(s).graph
    cases = [("Tstar9", _W22_TSTAR9), ("S8:0001", _W22_S8_0001), ("S8_1", _W22_S8_1)]
    outcomes = {}
    ok = True
    for name, spec in cases:
        ids = [families.vertex("h1", s, label) for label in spec]
        sub = induced(host, ids)
        outcomes[name] = {"vertices": sorted(ids),
                          "isomorphic": is_isomorphic(sub, patterns.make(name).graph)}
        ok = ok and outcomes[name]["isomorphic"]
    return checked("lemma2.2w", host, ok, {"s": s}, outcomes)


def _lemma_25_petersen(s_values: Iterable[int]) -> Report:
    pet = patterns.make("petersen").graph
    blocks = []
    for s in s_values:
        host = families.h4(s).graph
        for i in range(1, s + 1):
            labels = [f"u{i}.{j}" for j in range(1, 7)] + [f"v{i}.{h}" for h in range(1, 4)] + ["z"]
            block = [families.vertex("h4", s, label) for label in labels]
            ok = is_isomorphic(induced(host, block), pet)
            blocks.append({"s": s, "block": i, "isomorphic": ok})
            if not ok:
                return checked("lemma2.5p", host, False, {"failed_on": blocks[-1]}, blocks)
    return Report("lemma2.5p", {"blocks": len(blocks)}, passed=True)


def _lemma_41_suite() -> Report:
    """Path-pair properties at k = 4, 5: every non-adjacent (v, w) pair of
    C6, C8, h1(3) and gp(25), orbit-reduced by their generators."""
    total = 0
    for fg in (patterns.cycle(6), patterns.cycle(8), families.h1(3), families.gp(25)):
        for k in (4, 5):
            rep = witness.scan_path_pairs(fg, k)
            total += rep.witness["path_pairs"]
            if rep.is_failure:
                return checked("lemma4.1", fg.graph, False, {"failed_on": {"host": fg.id, "k": k}},
                               rep.witness)
    return Report("lemma4.1", {}, passed=True, witness={"path_pairs": total})


def sample_connected_bases(g: Graph, w: int, count: int, rng: Random) -> list[frozenset[int]]:
    """Seeded connected subsets of N_{>=2}(w) with two to five vertices."""
    region_mask = balls(g, 1 << w)[-1] & ~(g.row(w) | 1 << w)
    region = list(bits(region_mask))
    if not region:
        return []
    out: list[frozenset[int]] = []
    guard = 0
    while len(out) < count and guard < count * 50:
        guard += 1
        size = rng.randint(2, 5)
        chosen = [rng.choice(region)]
        cmask = 1 << chosen[0]
        reach = g.row(chosen[0])  # nbhd(g, cmask), grown by one row per pick
        while len(chosen) < size:
            frontier = reach & region_mask & ~cmask
            if not frontier:
                break
            pick = rng.choice(list(bits(frontier)))
            chosen.append(pick)
            cmask |= 1 << pick
            reach |= g.row(pick)
        if len(chosen) >= 2:
            out.append(frozenset(chosen))
    return out


def _lemma_5x_suite(which: str, seed: int) -> Report:
    """Sampled closure-set checks on h1(5) and gp(25), 100 seeded bases each.

    '5.1' asserts the edge-emptiness conclusions, '5.3' the cardinality
    inequalities against the M_4/M_5 sums.  Each host's root table is built
    once and every base is checked on masks; only a failing base of 5.1
    goes through ``derived_sets``, for its report.
    """
    rng = Random(seed)
    samples = 100
    bases = 0
    for fg in (families.h1(5), families.gp(25)):
        host = fg.graph
        classes = degree_classes(host)
        w = next(bits(classes[max(classes)]))  # the lowest vertex of maximum degree
        root = witness.RootTable(host, w)
        if which == "5.3":
            # |M_k(x, w)| for every x, read off one path table per k since w is fixed
            m4, m5 = ({v: len({p[1] for p in paths})
                       for v, paths in witness.vw_paths(host, w, k).items()} for k in (4, 5))
        for base in sample_connected_bases(host, w, samples, rng):
            xmask = mask_of(base)
            sets = witness.closure_masks(root, xmask)
            if which == "5.1":
                ok = not (sets.clause_i or sets.clause_ii)
                detail: Any = None if ok else witness.derived_sets(host, w, base).witness
            else:
                sum4 = sum(m4.get(x, 0) for x in base)
                sum5 = sum(m5.get(x, 0) for x in base)
                sum4z = sum(m4.get(x, 0) for x in bits(sets.z1 | xmask))
                y1, y2, z1, z2, z3 = (m.bit_count() for m in sets[:5])
                checks = {
                    "y2_le_y1": y2 <= y1,
                    "y1_le_sum_m4": y1 <= sum4,
                    "z1_le_sum_m5": z1 <= sum5,
                    "z3_le_z2": z3 <= z2,
                    "z2_le_sum_m4": z2 <= sum4z,
                }
                ok = all(checks.values())
                detail = checks
            bases += 1
            if not ok:
                return checked(f"lemma{which}", host, False,
                               {"host": fg.id, "w": w, "X": sorted(base)}, detail)
    return Report(f"lemma{which}", {"seed": seed, "samples": samples}, passed=True,
                  witness={"bases_checked": bases})


# Lemma id -> (host family, default size range A..B, the catalog ids of the
# trees its hosts avoid, () unless it is a freeness lemma).  None: the lemma
# runs on fixed hosts (no --s), so only these ids take a seed (default 0).
# 5.1 and 5.3 sample their bases by it; 4.1 checks every pair, and accepts
# a seed that changes nothing.
_LEMMAS: dict[str, tuple[str, int, int, tuple[str, ...]] | None] = {
    "2.2i": ("h1", 5, 8, ("P10",)), "2.3": ("h2", 3, 5, ("S8:0001", "Tstar8")),
    "2.4": ("h3", 4, 6, ("S7:101",)), "2.5": ("h4", 3, 5, ("S8_2",)),
    "2.5p": ("h4", 3, 5, ()), "2.2w": ("h1", 5, 5, ()), "4.1": None, "5.1": None, "5.3": None,
}


@timed
def verify_lemma(
    lemma_id: str, s_range: tuple[int, int] | None = None, seed: int | None = None
) -> Report:
    """Run one named lemma check and return its report.

    ``s_range`` and ``seed`` are allowed as ``_LEMMAS`` says.  A range
    ``(A, B)`` needs 1 <= A <= B; 2.2w replays its witnesses at one size, so
    its range must be ``(s, s)``.
    """
    if lemma_id not in _LEMMAS:
        raise UsageError(f"unknown lemma id {lemma_id!r}")
    spec = _LEMMAS[lemma_id]
    if spec is None:
        if s_range is not None:
            raise UsageError(f"lemma {lemma_id} runs on fixed hosts and takes no size range")
        if lemma_id == "4.1":
            return _lemma_41_suite()
        return _lemma_5x_suite(lemma_id, seed or 0)
    if seed is not None:
        raise UsageError(f"lemma {lemma_id} does not sample and takes no seed")
    family, lo, hi, trees = spec
    lo, hi = s_range or (lo, hi)
    if not 1 <= lo <= hi:
        raise UsageError(f"size range {lo}..{hi} needs 1 <= A <= B")
    families.order(family, hi)  # a range ending above the vertex cap is refused before any build
    if trees:
        hosts = map(families.FAMILIES[family], range(lo, hi + 1))
        return _freeness_sweep(f"lemma{lemma_id}", hosts, [patterns.make(t) for t in trees])
    if lemma_id == "2.5p":
        return _lemma_25_petersen(range(lo, hi + 1))
    if lo != hi:
        raise UsageError(f"lemma 2.2w replays its witnesses at one size, got {lo}..{hi}")
    return _lemma_22_witnesses(lo)


def _implication_report(check_id: str, g: Graph, gate: str | None, quantity: str,
                        value: int, clauses: tuple[tuple[str, int], ...]) -> Report:
    """Search each clause whose threshold ``value`` reaches; vacuous when
    ``core.gate`` failed with the tag ``gate`` or no threshold is reached."""
    params: dict[str, Any] = {
        quantity: value,
        "thresholds": {name: thr for name, thr in clauses},
    }
    if gate is not None:
        reason = {"disconnected": "disconnected", "c3_c4": "contains C3 or C4",
                  "min_degree": f"min degree {min(degree_classes(g), default=0)} < 3"}[gate]
        params["reason"] = f"hypothesis gate failed: {reason}"
        return Report(check_id, params, status="vacuous")
    outcomes = {}
    any_checked = False
    all_found = True
    for name, thr in clauses:
        if value >= thr:
            any_checked = True
            emb = find_induced(patterns.make(name).graph, g)
            outcomes[name] = {"checked": True, "found": emb is not None,
                              "embedding": None if emb is None else list(emb)}
            all_found = all_found and emb is not None
        else:
            outcomes[name] = {"checked": False}
    if not any_checked:
        params["reason"] = "no threshold reached at this scale"
        return Report(check_id, params, status="vacuous", witness=outcomes)
    return checked(check_id, g, all_found, params, outcomes)


@timed
def check_diam_theorem(g: Graph) -> Report:
    """diam >= 20/16/12 must force an induced T8_1/T8_2/T9 respectively.

    A clause tree is built when a host first reaches its threshold, and
    ``patterns.make`` keeps it for later hosts.  The rooted gate's C3/C4
    test (``core.gate``), then ``core.diameter`` and the clause searches all
    use the host's block rotation, if it has one (``core.rotation_roots``,
    computed once per graph, by the gate).  Each gives the verdict it would
    give without it; rooting keeps the first embedding.  So the report does
    not depend on it.  A clause search on a host without a rotation roots
    by its block swaps (``core.block_swaps``), if it has any.
    """
    gate = core.gate(g, rooted=True)
    value = diameter(g) if gate is None else -1
    return _implication_report("theorem.diam", g, gate, "diameter", value, DIAM_CLAUSES)


@timed
def check_maxdeg_theorem(g: Graph) -> Report:
    """Max-degree thresholds; vacuous at desk scale, and the report says so.

    The smallest threshold, 190375, exceeds every degree a graph under the
    65535-vertex cap can have, so no input reaches the clause searches.
    """
    value = max(degree_classes(g), default=0)
    return _implication_report("theorem.maxdeg", g, core.gate(g), "max_degree", value, MAXDEG_CLAUSES)


@timed
def scan_corpus(source: Any, tree_id: str) -> Report:
    """Filter a graph6 corpus down to connected, min-degree-3, C3/C4-free,
    tree-free members; rejections are tallied per filter.

    Records are classified as they stream in, so memory holds one record
    and the members, not the corpus.
    """
    pat = patterns.make(tree_id)
    capped(pat.graph)  # refused before any record is read
    if not patterns.is_tree(pat.graph):
        raise UsageError(f"{tree_id!r} is not a catalog tree")
    tallies = {"disconnected": 0, "min_degree": 0, "c3_c4": 0, "tree_present": 0}
    members = []
    records = 0
    for index, g in stream_corpus(source):
        records += 1
        verdict = core.gate(g)
        if verdict is None:
            verdict = "member" if find_induced(pat.graph, g) is None else "tree_present"
        if verdict == "member":
            members.append({"index": index, "graph6": emit_graph6(g)})
        else:
            tallies[verdict] += 1
    return Report(
        "scan",
        {"tree": pat.id, "records": records, "members": members, "rejections": tallies},
        passed=True,
        witness={"member_count": len(members)},
    )


# ------------------------------------------------------------------ CLI

def _read_digits(digits: str, name: str) -> int:
    """A run of ASCII digits as an int.  Over 20 significant digits is refused
    in one short line before ``int()`` (which reads at most 4300) sees it."""
    run = digits.lstrip("0")
    if len(run) > 20:
        raise argparse.ArgumentTypeError(f"{name} of {len(run)} digits is too large")
    return int(run or "0")


def _parse_range(text: str) -> tuple[int, int]:
    """``A..B`` or ``A`` as a size range (A, B); ``verify_lemma`` checks 1 <= A <= B."""
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(f"invalid size range {text!r}, expected A..B")
    return _read_digits(m[1], "a size"), _read_digits(m[2] or m[1], "a size")


def _at_least(least: int, name: str) -> Callable[[str], int]:
    """An argparse type that reads an integer >= ``least`` in ASCII digits."""

    def parse(text: str) -> int:
        value = _read_digits(text, name) if re.fullmatch("[0-9]+", text) else -1
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} {text!r} needs to be an integer >= {least}")
        return value

    return parse


def _path(text: str) -> str:
    """An argparse type for a file path that refuses a NUL byte, as ``open`` would, by ValueError."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"path {text!r} holds a NUL byte")
    return text


def _write_json(payload: Any, path: str | None) -> None:
    """Write ``payload``, one report's dict or a list of them, to ``path`` as JSON, if given."""
    if path:
        Path(path).write_text(json.dumps(payload, indent=2))


def _emit_report(rep: Report, path: str | None) -> int:
    """Print one report, write it to ``path`` if given, and return its exit code."""
    print(rep.to_json())
    _write_json(rep.to_dict(), path)
    return 1 if rep.is_failure else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    built = patterns.make(args.family)
    if args.format == "g6":
        print(emit_graph6(built.graph))
    else:
        sys.stdout.write(emit_dot(built.graph, built.labels))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    pat = patterns.make(args.pattern)
    capped(pat.graph)  # refused before any record is read
    for index, g in stream_corpus(args.host):
        emb = find_induced(pat.graph, g)
        if emb is None:
            print(f"record {index}: free")
        else:
            print(f"record {index}: contains {pat.id} at {list(emb)}")
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    for _, g in stream_corpus(args.input):
        print(chromatic.chi_structured(g, cap=args.cap))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return _emit_report(verify_lemma(args.lemma, s_range=args.s, seed=args.seed), args.report)


def _cmd_scan(args: argparse.Namespace) -> int:
    return _emit_report(scan_corpus(args.corpus, args.tree), args.report)


def _cmd_theorem(args: argparse.Namespace) -> int:
    """One report per record, printed as soon as it is made, so a bad record
    later in the corpus leaves the earlier reports on stdout."""
    check = check_diam_theorem if args.which == "diam" else check_maxdeg_theorem
    kept = []
    failed = False
    for _, g in stream_corpus(args.input):
        rep = check(g)
        print(rep.to_json())
        failed = failed or rep.is_failure
        if args.report:
            kept.append(rep.to_dict())
    _write_json(kept, args.report)
    return 1 if failed else 0


# newlines escaped, so that a message quoting an argument stays one stderr line
_ONE_LINE = str.maketrans({"\n": "\\n", "\r": "\\r"})


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line, without the usage text."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}".translate(_ONE_LINE) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treefree",
        description="Exact checks for forbidden-tree characterizations of girth-5 graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family or catalog graph")
    p.add_argument("--family", required=True, help="h1:5, gp:25, T9, petersen, ...")
    p.add_argument("--format", choices=("g6", "dot"), default="g6")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="search a pattern in every host record")
    p.add_argument("--host", type=_path, required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("chi", help="chromatic number of each record")
    p.add_argument("--input", type=_path, required=True)
    p.add_argument("--cap", type=_at_least(1, "cap"), default=chromatic.DEFAULT_CAP)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("verify", help="run a named lemma check")
    p.add_argument("--lemma", required=True, help=", ".join(_LEMMAS))
    p.add_argument("--s", type=_parse_range, default=None, help="size range A..B")
    p.add_argument("--seed", type=_at_least(0, "seed"), default=None,
                   help="lemmas 4.1, 5.1, 5.3 only; 5.1 and 5.3 sample by it, 4.1 checks every pair")
    p.add_argument("--report", type=_path, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="filter a graph6 corpus")
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--report", type=_path, default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("theorem", help="diameter / max-degree implications")
    p.add_argument("--input", type=_path, required=True)
    p.add_argument("--which", choices=("diam", "maxdeg"), required=True)
    p.add_argument("--report", type=_path, default=None)
    p.set_defaults(func=_cmd_theorem)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        report = getattr(args, "report", None)
        if report:
            source = getattr(args, "corpus", None) or getattr(args, "input", None)
            if (source and os.path.exists(source) and os.path.exists(report)
                    and os.path.samefile(report, source)):
                raise UsageError(f"--report {report!r} is the command's own input")
            # an earlier run's file must not pass for this run's report if this run exits 2
            Path(report).unlink(missing_ok=True)
        return args.func(args)
    except (TreefreeError, OSError) as exc:
        kind = "format " if isinstance(exc, FormatError) else "usage " if isinstance(exc, UsageError) else ""
        print(f"{kind}error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input and not a counterexample; named with its innermost frame
        import traceback  # here, not at the top: its import would add ~3 ms to every start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"
              .translate(_ONE_LINE), file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
