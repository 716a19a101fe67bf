"""Committed mutation checks: each mutant must make the tests it names fail.

Run from anywhere, outside the tier-1 suite (pytest does not collect this file):

    python tests/mutants.py

A record names a file under ``src/``, an exact snippet of it, the snippet's
replacement, and the tests expected to fail.  The runner copies ``src/`` to a
temporary directory, runs the named tests of every mutant once against
that unmutated copy (they must pass), and then, for each mutant, applies it to
a fresh copy and runs only its named tests there.  The working tree is never
edited.  A snippet that does not occur exactly once is an error, not a skip:
a refactor that moves a snippet must update its record.  Exit status 0 means
every mutant was killed.

Each change to ``src/`` that a test pins adds its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


WITNESS = "treefree/witness.py"
EMBED = "treefree/embed.py"
CORE = "treefree/core.py"
GRAPHIO = "treefree/graphio.py"
PATTERNS = "treefree/patterns.py"
FAMILIES = "treefree/families.py"
CLI = "treefree/cli.py"
STEP_TAG = "(r, 1 if rows[q] >> r & 1 else 2 if rows[q] & rows[r] else 0)"
M4_ROW_TEST = "if not rows[a1] & rows[q1[-1]] & ~rows[q1[0]]:"
ROOTED = "rooted = limit == 1 and initial is None"
LOWEST_ROOT = "if place(0, base, every, lowest):"
LOWEST = "        lowest = roots & -roots\n"
MAX_DEGREE_RULE = """\
                if nb.bit_count() < delta + bool(nb & classes[delta]):
                    continue  # the new vertex would not have maximum degree
"""

MUTANTS = (
    # clause (v)'s M_4 test: b must miss N(v), and the vertex tested is q1[1]
    Mutant("m4-row-test-without-not-v", WITNESS, M4_ROW_TEST, "if not rows[a1] & rows[q1[-1]]:",
           ("tests/test_witness.py::test_mask_clauses_match_the_set_oracle",)),
    Mutant("m4-row-test-on-q1-2", WITNESS, M4_ROW_TEST,
           "if not rows[q1[2]] & rows[q1[-1]] & ~rows[q1[0]]:",
           ("tests/test_witness.py::test_mask_clauses_match_the_set_oracle",
            "tests/test_witness.py::test_path_pair_reports_are_pinned")),
    Mutant("vw-paths-one-step-short", WITNESS, "for _ in range(k - 1):", "for _ in range(k - 2):",
           ("tests/test_witness.py::test_mk_on_cycles",
            "tests/test_witness.py::test_path_pair_reports_are_pinned")),
    Mutant("distance-2-entry-is-apart", EMBED,
           "fc = checks[h] = (apart, near, nbhd(host, near) & apart)",
           "fc = checks[h] = (apart, near, apart)",
           ("tests/test_embed.py::test_distance_two_checks_prune_isomorphism_refutation",)),
    # the ring of h holds h itself, so a tag-2 vertex could land on h
    Mutant("distance-2-entry-without-apart", EMBED,
           "fc = checks[h] = (apart, near, nbhd(host, near) & apart)",
           "fc = checks[h] = (apart, near, nbhd(host, near))",
           ("tests/test_embed.py::test_engine_agrees_with_oracle_on_200_random_pairs",)),
    Mutant("step-tag-2-is-0", EMBED, STEP_TAG, "(r, 1 if rows[q] >> r & 1 else 0)",
           ("tests/test_embed.py::test_step_tags_agree_with_pattern_distances",
            "tests/test_embed.py::test_distance_two_checks_prune_isomorphism_refutation")),
    Mutant("step-tag-0-is-2", EMBED, STEP_TAG, "(r, 1 if rows[q] >> r & 1 else 2)",
           ("tests/test_embed.py::test_step_tags_agree_with_pattern_distances",
            "tests/test_embed.py::test_engine_agrees_with_oracle_on_200_random_pairs")),
    # a rooted search is a first-hit search without initial masks, and
    # neither half of that test alone will do
    Mutant("rooted-enumerations", EMBED, ROOTED, "rooted = initial is None",
           ("tests/test_embed.py::test_find_all_enumerates_soundly",
            "tests/test_embed.py::test_periodic_hosts_keep_witnesses_and_enumerations")),
    Mutant("rooted-under-initial-masks", EMBED, ROOTED, "rooted = limit == 1",
           ("tests/test_embed.py::test_rooted_searches_and_enumerations_detect_no_rotation",)),
    # pruning (b) searches the lowest root, under every generator, before it
    # cuts the other roots
    Mutant("lowest-root-skipped", EMBED, LOWEST_ROOT, "if False:",
           ("tests/test_embed.py::test_lazy_rotation_rooting_keeps_the_first_hit",)),
    Mutant("lowest-root-without-generators", EMBED, LOWEST_ROOT, "if place(0, base, 0, lowest):",
           ("tests/test_embed.py::test_generator_rooted_freeness_searches_are_pinned",)),
    Mutant("iso-uncapped", EMBED, "        if x.n > PATTERN_CAP:\n", "        if False:\n",
           ("tests/test_embed.py::test_iso_cap",)),
    Mutant("iso-second-input-uncapped", EMBED, 'for which, x in (("first", g), ("second", h)):',
           'for which, x in (("first", g),):', ("tests/test_embed.py::test_iso_cap",)),
    # is_c3c4_free: the triangle test, and the count identity's d >= 1
    Mutant("c3c4-triangle-test-dropped", CORE, "            if nb & rv:\n                return False\n", "",
           ("tests/test_core.py::test_c3c4_free_examples",
            "tests/test_core.py::test_c3c4_free_matches_neighborhood_characterization")),
    Mutant("c3c4-isolated-vertices-counted", CORE, "degree_classes(g).items() if d)",
           "degree_classes(g).items())",
           ("tests/test_core.py::test_c3c4_free_agrees_with_networkx_girth_with_isolated_vertices",
            "tests/test_core.py::test_c3c4_free_matches_neighborhood_characterization")),
    # the rooted test: every root's orbit can hold the only short cycles, and
    # a C4 passes the triangle test
    Mutant("c3c4-rooted-lowest-root-only", CORE, "for v in bits(within):", "for v in bits(within & -within):",
           ("tests/test_core.py::test_rotation_roots_decide_c3c4_freeness",
            "tests/test_cli.py::test_the_diam_gate_sees_short_cycles_off_vertex_0_orbit")),
    Mutant("c3c4-rooted-count-dropped", CORE,
           "                if nb.bit_count() != 1 + sum((d - 1) * (rv & m).bit_count() for d, m in classes):\n"
           "                    return False\n", "",
           ("tests/test_core.py::test_rotation_roots_decide_c3c4_freeness",
            "tests/test_cli.py::test_the_diam_gate_sees_short_cycles_off_vertex_0_orbit")),
    # core.gate: the diam theorem asks for the rooted test, and the degree
    # test reads the least degree
    Mutant("diam-gate-unrooted", CLI, "gate = core.gate(g, rooted=True)", "gate = core.gate(g)",
           ("tests/test_cli.py::test_the_diam_gate_tests_c3c4_once_per_rotation_orbit",)),
    Mutant("min-degree-reads-max", CORE, "if min(degree_classes(g), default=0) < min_degree:",
           "if max(degree_classes(g), default=0) < min_degree:",
           ("tests/test_cli.py::test_the_gate_reads_the_minimum_degree",
            "tests/test_core.py::test_the_gate_agrees_with_the_oracles")),
    Mutant("families-gate-skipped", FAMILIES, "failed = gate(fg.graph, min_degree=min_degree)", "failed = None",
           ("tests/test_families.py::test_a_host_outside_the_class_fails_construction_under_its_id",)),
    # the one vertex-cap check, in build and before any catalog name is made
    Mutant("build-uncapped", CORE, "    check_order(n)\n    rows = [0] * n\n", "    rows = [0] * n\n",
           ("tests/test_core.py::test_build_refuses_an_order_outside_the_vertex_cap",)),
    Mutant("cycle-uncapped", PATTERNS,
           "    check_order(n)\n    edges = [(i, (i + 1) % n) for i in range(n)]",
           "    edges = [(i, (i + 1) % n) for i in range(n)]",
           ("tests/test_patterns.py::test_over_cap_catalog_ids_are_refused_before_anything_is_built",)),
    # a pattern id matches one form in full, with ASCII digits, and each
    # spec is built once while it stays in make's cache
    Mutant("pattern-id-prefix-match", PATTERNS, "m = form.fullmatch(s)", "m = form.match(s)",
           ("tests/test_patterns.py::test_make_grammar",)),
    Mutant("pattern-id-unicode-digits", PATTERNS, 'r"t([0-9]+)"', r'r"t(\d+)"',
           ("tests/test_patterns.py::test_make_grammar",)),
    Mutant("pattern-specs-uncached", PATTERNS, "@lru_cache(maxsize=embed.PLAN_CACHE)\n", "",
           ("tests/test_cli.py::test_diam_theorem_builds_each_clause_tree_once",
            "tests/test_patterns.py::test_make_grammar")),
    Mutant("components-ignore-within", CORE,
           "left = (1 << g.n) - 1 if within is None else within", "left = (1 << g.n) - 1",
           ("tests/test_core.py::test_traversals_agree_with_networkx",
            "tests/test_chromatic.py::test_peel_core_components_match_networkx")),
    Mutant("h1-every-copy-maps-swapped", FAMILIES,
           'every=("(u1 u2 u3 u4 u5 u6)(v1 v2 v3)", "(u1 u2)(u3 u6)(u4 u5)(v1 v2)")',
           'every=("(u1 u2)(u3 u6)(u4 u5)(v1 v2)", "(u1 u2 u3 u4 u5 u6)(v1 v2 v3)")',
           ("tests/test_families.py::test_template_outputs_are_pinned",)),
    Mutant("derived-sets-drop-clause-ii", WITNESS,
           '    violations += [{"clause": "ii", "a": a} for a in bits(masks.clause_ii)]\n', "",
           ("tests/test_witness.py::test_closure_sets_match_the_oracle_on_hosts_with_short_cycles",
            "tests/test_witness.py::test_derived_sets_reports_are_pinned")),
    # the graph6 codec: bit p is x(p - start, j) while p < start + j, each
    # byte's bits are read MSB first, and bit p sets 32 >> p % 6 of byte p // 6
    Mutant("g6-parse-column-step-late", GRAPHIO, "while p >= start + j:", "while p > start + j:",
           ("tests/test_graphio.py::test_k3_round_trip_literals",
            "tests/test_graphio.py::test_chunked_codec_matches_networkx")),
    Mutant("g6-parse-bits-lsb-first", GRAPHIO, "b = v.bit_length() - 1", "b = (v & -v).bit_length() - 1",
           ("tests/test_graphio.py::test_k3_round_trip_literals",
            "tests/test_graphio.py::test_chunked_codec_matches_networkx")),
    Mutant("g6-emit-bits-lsb-first", GRAPHIO, "out[p // 6] += 32 >> p % 6", "out[p // 6] += 1 << p % 6",
           ("tests/test_graphio.py::test_more_hand_encoded_records",
            "tests/test_graphio.py::test_chunked_codec_matches_networkx")),
    # lazy rotation rooting: the rotation is read only once the lowest root
    # fails, and it cuts the other roots to the least of each orbit
    Mutant("rotation-detected-eagerly", EMBED, LOWEST, LOWEST + "        core.rotation_roots(host)\n",
           ("tests/test_embed.py::test_lazy_rotation_rooting_keeps_the_first_hit",)),
    Mutant("orbit-cut-inverted", EMBED, "roots &= rotation", "roots &= ~rotation",
           ("tests/test_embed.py::test_lazy_rotation_rooting_keeps_the_first_hit",)),
    # lazy swap rooting: a host without a rotation has its block swaps read
    # only once the lowest root fails, and only when no generators are passed
    Mutant("swaps-detected-eagerly", EMBED, LOWEST, LOWEST + "        core.block_swaps(host)\n",
           ("tests/test_embed.py::test_lazy_rotation_rooting_keeps_the_first_hit",)),
    Mutant("swaps-replace-passed-generators", EMBED, "        if not gens:\n            rotation",
           "        if True:\n            rotation",
           ("tests/test_embed.py::test_rooted_searches_and_enumerations_detect_no_rotation",)),
    # block_swaps: each swap checked whole after the first-vertex prefilter,
    # and the scan ended by the first run of two or more swaps
    Mutant("swap-prefilter-only", CORE, "            if not is_automorphism(g, moves):\n",
           "            if False:\n",
           ("tests/test_core.py::test_block_swaps_of_graph6_copy_hosts_are_automorphisms",)),
    Mutant("swap-scan-never-stopped", CORE, "            return (*kept, *run)\n", "            kept += run\n",
           ("tests/test_core.py::test_block_swaps_hold_at_most_2n_moves_and_are_found_once_per_graph",)),
    # rotation_roots: kept on the graph, the closed-form root mask, the whole
    # check after the vertex-0 prefilter, and diameter's connectivity check
    Mutant("rotation-roots-unkept", CORE,
           "    if g._roots == -1:\n        g._roots = _rotation_roots(g)\n    return g._roots\n",
           "    return _rotation_roots(g)\n",
           ("tests/test_core.py::test_rotation_roots_are_found_once_per_graph",)),
    Mutant("rotation-roots-mask-one-wide", CORE, "return ((1 << t) - 1) * starts",
           "return ((1 << t + 1) - 1) * starts",
           ("tests/test_core.py::test_rotation_roots_on_constructor_labelled_rings",)),
    Mutant("rotation-prefilter-only", CORE, "if all((r & up) << t | (r & down) >> b - t",
           "if True or all((r & up) << t | (r & down) >> b - t",
           ("tests/test_core.py::test_rotation_roots_is_none_without_one",)),
    Mutant("rotation-diameter-skips-disconnection", CORE,
           '            if reach[-1] != full:\n                raise DisconnectedError("graph is disconnected")\n',
           "",
           ("tests/test_core.py::test_rotation_diameter_equals_the_lock_step_sweep_and_networkx",)),
    # the copy template: label ids, labels, orders and copy-1 symmetries
    Mutant("vertex-copy-offset", FAMILIES, "return (int(m[2]) - 1) * t.b", "return int(m[2]) * t.b",
           ("tests/test_families.py::test_labels_round_trip_through_vertex_and_orders_are_derived",)),
    Mutant("labels-without-the-dot", FAMILIES, 'f"{c}{i}.{rest}"', 'f"{c}{i}{rest}"',
           ("tests/test_families.py::test_template_outputs_are_pinned",)),
    Mutant("order-without-hubs", FAMILIES, "n = t.b * size + len(t.hubs)", "n = t.b * size",
           ("tests/test_families.py::test_labels_round_trip_through_vertex_and_orders_are_derived",)),
    Mutant("copy1-symmetries-on-copy-s", FAMILIES, "gens += [dict(moves) for moves in t.copy1]",
           "gens += [{x + hub0 - b: y + hub0 - b for x, y in moves.items()} for moves in t.copy1]",
           ("tests/test_families.py::test_template_outputs_are_pinned",)),
    # the catalog builder and its cap checks
    Mutant("leg-hung-one-late", PATTERNS, "        at = i - 1\n", "        at = i\n",
           ("tests/test_patterns.py::test_catalog_outputs_are_pinned",)),
    Mutant("t8star-a-legs-on-w", PATTERNS, 'for hub, legs in ((0, [f"a{i} x{i}"',
           'for hub, legs in ((3, [f"a{i} x{i}"', ("tests/test_patterns.py::test_catalog_outputs_are_pinned",)),
    Mutant("spine-uncapped", PATTERNS, "    check_order(n + sum(len(leg.split()) for _, leg in legs))\n", "",
           ("tests/test_patterns.py::test_over_cap_catalog_ids_are_refused_before_anything_is_built",)),
    Mutant("t8star-uncapped", PATTERNS, "    check_order(2 * p1 + 2 * p2 + 6)\n", "",
           ("tests/test_patterns.py::test_over_cap_catalog_ids_are_refused_before_anything_is_built",)),
    # the CLI's failure branches and report fields
    Mutant("disconnected-gate-says-min-degree", CORE, 'return "disconnected"', 'return "min_degree"',
           ("tests/test_cli.py::test_scan_corpus_returns_the_three_named_graphs",
            "tests/test_cli.py::test_diam_theorem_reports")),
    Mutant("lemma-25p-failure-ignored", CLI,
           '                return checked("lemma2.5p", host, False, {"failed_on": blocks[-1]}, blocks)\n',
           "                pass\n",
           ("tests/test_cli.py::test_a_rejected_lemma_host_is_the_counterexample_and_exits_one",)),
    # exit 2 is bad input, a missing file included, and 70 an internal
    # error; a usage error quoting a newline stays one line
    Mutant("os-error-read-as-internal", CLI, "except (TreefreeError, OSError) as exc:",
           "except TreefreeError as exc:", ("tests/test_cli.py::test_cli_missing_corpus_exits_two",)),
    Mutant("internal-error-exits-one", CLI, "        return 70\n", "        return 1\n",
           ("tests/test_cli.py::test_an_internal_error_exits_70_in_one_line",)),
    Mutant("usage-error-newline-unescaped", CLI, '{message}".translate(_ONE_LINE) + "\\n"', '{message}\\n"',
           ("tests/test_cli.py::test_cli_usage_and_format_errors",)),
    Mutant("check-line-without-embedding", CLI, 'contains {pat.id} at {list(emb)}"', 'contains {pat.id}"',
           ("tests/test_cli.py::test_cli_check_names_where_the_pattern_is",)),
    Mutant("geodesic-clause-ii-as-i", WITNESS, '{"clause": "ii", "edge"', '{"clause": "i", "edge"',
           ("tests/test_witness.py::test_geodesic_check_names_each_violated_clause",)),
    # neighbourhood walks: a component stays inside its mask, and a row
    # union reads every vertex of the mask
    Mutant("component-walk-leaves-the-mask", CORE, "ring = nbhd(g, ring) & left & ~comp",
           "ring = nbhd(g, ring) & ~comp",
           ("tests/test_core.py::test_traversals_agree_with_networkx",
            "tests/test_chromatic.py::test_peel_core_components_match_networkx")),
    Mutant("nbhd-drops-the-lowest-vertex", CORE, "    while mask:\n        top = mask.bit_length() - 1\n",
           "    while mask & mask - 1:\n        top = mask.bit_length() - 1\n",
           ("tests/test_core.py::test_traversals_agree_with_networkx",)),
    # one resolver of graph ids: family ids are a row of make's forms,
    # petersen is gp(5) under its own id, and sizes and seeds are read as
    # ASCII digits before int() sees them
    Mutant("family-row-dropped", PATTERNS,
           '    (re.compile(r"((?:h[1-4]|gp)(?::.*)?)", re.S), make_family),\n', "",
           ("tests/test_cli.py::test_cli_usage_and_format_errors",)),
    Mutant("petersen-keeps-the-gp5-id", PATTERNS, 'replace(families.gp(5), id="petersen")', "families.gp(5)",
           ("tests/test_cli.py::test_cli_check_resolves_family_ids_as_it_does_petersen",)),
    Mutant("over-long-size-reaches-int", FAMILIES, "    if len(run) > 20:\n", "    if False:\n",
           ("tests/test_cli.py::test_cli_usage_and_format_errors",)),
    Mutant("seed-read-by-int", CLI, 'type=_at_least(0, "seed")', "type=int",
           ("tests/test_cli.py::test_cli_usage_and_format_errors",)),
    Mutant("over-long-option-reaches-int", CLI, "    if len(run) > 20:\n        raise argparse",
           "    if False:\n        raise argparse",
           ("tests/test_cli.py::test_cli_usage_and_format_errors",)),
    # the root table: N2(w) misses N[w]
    Mutant("n2-keeps-n-w", WITNESS, "self.n2 = self.ring & ~self.closed", "self.n2 = self.ring",
           ("tests/test_witness.py::test_closure_sets_match_the_oracle_on_hosts_with_short_cycles",)),
    # contract_edge relabels through build: ids above hi drop by one
    Mutant("contract-without-id-shift", CORE, "return lo if x == hi else x - (x > hi)",
           "return lo if x == hi else x",
           ("tests/test_patterns.py::test_catalog_outputs_are_pinned",
            "tests/test_core.py::test_contract_edge_examples")),
    # a caterpillar's inner vertices induce a path: at most two inner neighbours each
    Mutant("caterpillar-three-inner-neighbours", PATTERNS, "(t.row(v) & inner).bit_count() <= 2",
           "(t.row(v) & inner).bit_count() <= 3",
           ("tests/test_patterns.py::test_caterpillar_examples",
            "tests/test_patterns.py::test_caterpillar_matches_spine_oracle")),
    # distance: the index of the first ball holding v, and ids in range only
    Mutant("distance-off-by-one", CORE, "        if ball >> v & 1:\n            return d\n",
           "        if ball >> v & 1:\n            return d + 1\n",
           ("tests/test_core.py::test_distance_examples",)),
    # one vertex-range check serves distance and the witness checks
    Mutant("vertex-range-check-removed", CORE, "        if not 0 <= v < g.n:\n            raise DomainError",
           "        if False:\n            raise DomainError",
           ("tests/test_core.py::test_distance_examples",
            "tests/test_witness.py::test_geodesic_check_on_gp")),
    # the union-find joins two classes under the lower root, whichever it is
    Mutant("orbit-union-one-way", CORE, "            elif b < a:\n                parent[a] = b\n", "",
           ("tests/test_core.py::test_orbits_join_two_classes_whichever_root_is_lower",)),
    # the R(3,t) growth keeps an extension only when its new vertex has
    # maximum degree: a strict test loses every class with a tied maximum,
    # and no test at all is sound but proves 199 isomorphisms, not 55
    Mutant("max-degree-rule-strict", WITNESS, MAX_DEGREE_RULE, MAX_DEGREE_RULE.replace(" < ", " <= "),
           ("tests/test_witness.py::test_ramsey34_level_classes",
            "tests/test_witness.py::test_ramsey_levels_match_the_unpruned_growth")),
    Mutant("max-degree-rule-deleted", WITNESS, MAX_DEGREE_RULE, "",
           ("tests/test_witness.py::test_ramsey34_proves_few_isomorphisms",)),
    # the independent-set DFS skips a branch only when it cannot reach the
    # least size; a non-strict test loses the sets of exactly that size
    Mutant("independent-set-skip-non-strict", WITNESS, "if size + cand.bit_count() < least:",
           "if size + cand.bit_count() <= least:",
           ("tests/test_witness.py::test_independent_sets_skip_branches_below_the_least_size",
            "tests/test_witness.py::test_ramsey34_level_classes")),
    # a record checks its generators when it is made; the 4.1 scan weights
    # each orbit root by its orbit size, reruns with every vertex a root on a
    # violation, and sorts the violations into (v, w) order
    Mutant("generator-check-removed", FAMILIES,
           "            if not is_automorphism(self.graph, moves):\n"
           "                raise ConstructionError(f\"{self.id}: generator {k} is not an automorphism\")\n",
           "            pass\n",
           ("tests/test_witness.py::test_scan_generators_must_be_automorphisms",
            "tests/test_families.py::test_a_corrupted_generator_fails_construction")),
    Mutant("orbit-weight-dropped", WITNESS, "pair_count += sizes.get(w, 1) * _pair_checks(",
           "pair_count += _pair_checks(",
           ("tests/test_witness.py::test_orbit_reduced_scans_equal_the_full_scans",
            "tests/test_cli.py::test_sampled_lemma_reports_are_pinned")),
    Mutant("violation-fallback-removed", WITNESS,
           "    if violations and host.generators:\n"
           "        return scan_path_pairs(replace(host, generators=()), k)\n", "",
           ("tests/test_witness.py::test_failing_reduced_scans_rerun_in_full",)),
    Mutant("violations-unsorted", WITNESS,
           '    violations.sort(key=lambda bad: (bad["q1"][0], bad["q1"][-1], bad["q1"], bad["q2"]))\n', "",
           ("tests/test_witness.py::test_path_pair_reports_are_pinned",)),
    # is_automorphism maps each neighbour through the moves
    Mutant("automorphism-image-unmapped", CORE, "image |= 1 << get(top, top)", "image |= 1 << top",
           ("tests/test_families.py::test_generators_are_edge_preserving_permutations",
            "tests/test_families.py::test_automorphism_check_matches_the_edge_by_edge_oracle")),
    # a corpus byte above 127 reaches parse_graph6's byte check in its own record
    Mutant("corpus-read-as-utf-8", GRAPHIO, 'open(source, encoding="latin-1")', 'open(source, encoding="utf-8")',
           ("tests/test_cli.py::test_theorem_prints_each_report_before_a_bad_record",)),
)


def _copy_src(dst: Path) -> Path:
    src = dst / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _apply(src: Path, mutant: Mutant) -> None:
    """Apply ``mutant`` to the copy at ``src``; its snippet must occur exactly once."""
    target = src / mutant.path
    text = target.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet occurs {count} times in src/{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new))


def _pytest(src: Path, tests: list[str]) -> int:
    """Run ``tests`` against the package copy at ``src``; pytest's exit code."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, treefree; sys.exit(not treefree.__file__.startswith(sys.argv[1]))"
    if subprocess.run([sys.executable, "-c", probe, str(src)], cwd=ROOT, env=env).returncode:
        raise SystemExit(f"treefree is not imported from the copy at {src}")
    # the hypothesis plugin's import is most of a short run's start-up; the
    # hypothesis tests import hypothesis themselves and still run
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
           *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        for mutant in MUTANTS:  # every snippet is checked before anything runs
            _apply(_copy_src(Path(tmp) / mutant.name), mutant)
        named = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if _pytest(clean, named) != 0:
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 1
        survivors = 0
        for mutant in MUTANTS:
            code = _pytest(Path(tmp) / mutant.name / "src", list(mutant.tests))
            # pytest exits 1 when tests ran and some failed; any other code is
            # a survivor (0) or a run that did not test (collection or usage error)
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
            survivors += code != 1
            print(f"{mutant.name}: {verdict}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
