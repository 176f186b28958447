"""Acceptance gate: each criterion at its stated tolerance, one line each.

Three stated values are refuted by this engine's validated enumeration:
38 four-edge maps and the three-saddle flow totals 56 and 20 (README,
"Census errata").  Criteria 1c, 2c and 3b assert each refutation as the
errata state it: the computed count, how the stated value relates to it,
and an independent confirmation that never calls the canonical-code
machinery.  The stated values themselves stay in `catalog.PAPER_EXPECTED_*`
and in the `sphereflows verify-paper` report.
"""

from collections import Counter

import pytest

from sphereflows import (GenerationConfig, MarkedMap, TMark,
                         enumerate_sink_marks,
                         enumerate_source_marks, enumerate_t_marks,
                         generate_maps, realize, reverse,
                         saddle_connection_census, saddle_node_census,
                         t_connection_category)
from sphereflows.catalog import (PAPER_EXPECTED_FLOWS, PAPER_EXPECTED_MAPS,
                                 build_census_report)
from sphereflows.combmap import sphere_failures

from conftest import build_named_maps, run_cli
from oracles import (maps_isomorphic, marked_isomorphic, rooted_count,
                     source_class_count, tutte_rooted)

# Liskovets, "A census of nonisomorphic planar maps" (1981); OEIS A006384 and
# A006385: four-edge planar maps up to isomorphism (unsensed) and up to
# orientation-preserving isomorphism (sensed)
UNSENSED_FOUR_EDGE_MAPS = 52
SENSED_FOUR_EDGE_MAPS = 57
# Tutte, "A census of planar maps" (1963)
ROOTED_FOUR_EDGE_MAPS = 378


def report_line(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def checks_detail(checks):
    return "; ".join(f"{name}={'yes' if passed else 'NO'}"
                     for name, passed in checks.items())


# -- criterion 1: map censuses ----------------------------------------------

def test_criterion_1_small_map_censuses():
    counts = {e: len(generate_maps(GenerationConfig(e))) for e in (1, 2, 3)}
    ok = counts == {1: 2, 2: 4, 3: 14}
    assert report_line("1a", ok, f"map classes for 1..3 edges = {counts}, "
                                 "stated 2/4/14")


def test_criterion_1_four_edge_closed_under_dual():
    maps4 = generate_maps(GenerationConfig(4))
    tokens = {m.canonical_code().token() for m in maps4}
    ok = all(m.dual().canonical_code().token() in tokens for m in maps4)
    assert report_line("1b", ok, "four-edge catalog closed under dual()")


def test_criterion_1_four_edge_published_count():
    maps4 = generate_maps(GenerationConfig(4))
    sensed = generate_maps(GenerationConfig(4, allow_reflection=False))
    by_v = Counter(m.n_vertices for m in maps4)
    # the published list is 26 graphs with V >= 3 plus 12 duals with V <= 2;
    # it misses 4 maps with four vertices, 6 with three, and the 4 two-vertex
    # duals of the first four
    listed = {v: n - {4: 4, 3: 6, 2: 4}.get(v, 0) for v, n in by_v.items()}
    graphs = sum(n for v, n in listed.items() if v >= 3)
    duals = sum(n for v, n in listed.items() if v <= 2)
    checks = {
        "52 unsensed classes (Liskovets)":
            len(maps4) == UNSENSED_FOUR_EDGE_MAPS,
        "57 sensed classes (Liskovets)":
            len(sensed) == SENSED_FOUR_EDGE_MAPS,
        "sum of 2E/|Aut+| is Tutte's 378":
            rooted_count(4) == tutte_rooted(4) == ROOTED_FOUR_EDGE_MAPS,
        "classes by vertex count 3/13/20/13/3, symmetric under V <-> 6 - V":
            by_v == {1: 3, 2: 13, 3: 20, 4: 13, 5: 3},
        "stated 38 = 26 graphs + 12 duals once the omissions are taken away":
            (graphs, duals) == (26, 12)
            and graphs + duals == PAPER_EXPECTED_MAPS[4] == 38,
    }
    ok = all(checks.values())
    assert report_line("1c", ok,
                       f"four-edge map classes computed {len(maps4)}, stated "
                       f"38 (refuted: {checks_detail(checks)})"), checks


# -- criterion 2: saddle-node censuses ---------------------------------------

def test_criterion_2_one_saddle_total():
    total = saddle_node_census(1).total
    assert report_line("2a", total == 2, f"saddle-node n=1 total {total}, stated 2")


def test_criterion_2_two_saddle_decomposition():
    named = build_named_maps()
    census = saddle_node_census(2)
    per_graph = {row.map.canonical_code().token(): row.n_source
                 for row in census.rows}
    got = tuple(per_graph[named[name].canonical_code().token()]
                for name in ("double_edge", "chain2", "segment_loop", "two_loops"))
    ok = (census.total == 10 and census.total_source == 5
          and census.total_sink == 5 and got == (1, 2, 2, 0))
    assert report_line("2b", ok,
                       f"saddle-node n=2 total {census.total} = "
                       f"{census.total_source}+{census.total_sink}, "
                       f"per-graph source counts {got}, stated 10 = 5+5 and "
                       "(1, 2, 2, 0)")


def test_criterion_2_three_saddle_published_total():
    maps3 = generate_maps(GenerationConfig(3))
    census = saddle_node_census(3)
    mirrors_apart = saddle_node_census(3, allow_reflection=False)
    checks = {
        "52 = 26 source + 26 sink":
            (census.total, census.total_source, census.total_sink)
            == (52, 26, 26),
        "exhaustive isomorphism search finds 26 source classes":
            source_class_count(3) == 26,
        "sink classes of each map = source classes of its dual":
            all(len(enumerate_sink_marks(m))
                == len(enumerate_source_marks(m.dual())) for m in maps3),
        "stated 56 needs 28 source classes; mirrors identified give 26, "
        "apart 32":
            PAPER_EXPECTED_FLOWS[7] == 56
            and (census.total_source, mirrors_apart.total_source) == (26, 32),
    }
    ok = all(checks.values())
    assert report_line("2c", ok,
                       f"saddle-node n=3 total computed {census.total}, "
                       f"stated 56 (refuted: {checks_detail(checks)})"), checks


# -- criterion 3: saddle-connection censuses ---------------------------------

def test_criterion_3_two_saddle_census_structural():
    named = build_named_maps()
    classes = enumerate_t_marks(2)
    bigon = named["bigon_tail"]
    bigon_darts = [d for d in bigon.vertex_orbits[bigon.vertex_index[4]] if d != 4]
    expected = {
        MarkedMap(named["star3"], TMark(0)).canonical_code(),
        MarkedMap(bigon, TMark(bigon_darts[0])).canonical_code(),
        MarkedMap(bigon, TMark(4)).canonical_code(),
        MarkedMap(named["theta"], TMark(0)).canonical_code(),
    }
    ok = (len(classes) == 4
          and {mm.canonical_code() for mm in classes} == expected)
    assert report_line("3a", ok,
                       f"saddle-connection n=2: {len(classes)} classes, "
                       "structurally the four marked shapes of items 13-16")


def splits_off_edges(mm):
    """Whether cutting the perpendicular edge strands edges on its far side:
    the edge is a bridge and its far endpoint is not a leaf."""
    m, p = mm.map, mm.mark.dart
    return m.is_bridge(p) and len(m.vertex_orbits[m.vertex_index[m.alpha[p]]]) > 1


def test_criterion_3_three_saddle_published_total():
    # the exact 24 is confirmed by exhaustive isomorphism search in
    # tests/test_marks.py::TestTMarks::test_three_saddles_matches_exhaustive_search
    census = saddle_connection_census(3)
    classes = enumerate_t_marks(3)
    extra = [mm for mm in classes
             if t_connection_category(mm) != 0]
    degseqs = {mm.map.degree_sequence() for mm in extra}
    checks = {
        "24 = 20 connected after the cut + 4 with a one-edge far side":
            census.total == 24
            and census.by_category == {0: 20, 1: 4},
        "the 20 reproduce the stated figure exactly":
            census.by_category[0] == PAPER_EXPECTED_FLOWS[8] == 20,
        "the 4 are the classes whose perpendicular bridge strands edges":
            [mm in extra for mm in classes]
            == [splits_off_edges(mm) for mm in classes],
        "the 4 have distinct degree sequences": len(degseqs) == 4,
        "one lies on the chair tree (3, 2, 1, 1, 1)":
            (3, 2, 1, 1, 1) in degseqs,
    }
    ok = all(checks.values())
    assert report_line("3b", ok,
                       f"saddle-connection n=3 total computed {census.total}, "
                       f"stated 20 (refuted: {checks_detail(checks)})"), checks


# -- criterion 4: the four-saddle comparison report ---------------------------

def test_criterion_4_report_with_breakdowns_and_parity():
    report = build_census_report()
    nine = {r.label: r for r in report.rows
            if r.section == "9 points breakdown"}
    ten = {r.expected: r for r in report.rows
           if r.section == "10 points breakdown"}
    flows = {r.label.split(" ")[0]: r for r in report.rows
             if r.section == "flows by singular points"}

    checks = {
        "9-point row prints computed beside 217":
            flows["9"].expected == 217 and flows["9"].computed > 0,
        "10-point row prints computed beside 160":
            flows["10"].expected == 160 and flows["10"].computed > 0,
        "64-category delta reported":
            any(r.expected == 64 for r in nine.values()),
        "89-category delta reported":
            any(r.expected == 89 for r in nine.values()),
        "target category 16 matches": ten[16].match is True,
        "target category 14 matches": ten[14].match is True,
        "130-category delta reported": ten[130].computed is not None,
        "parity analysis present on mismatch":
            flows["9"].match is False
            and report.parity["source_classes"] == report.parity["sink_classes"]
            and report.parity["per_map_duality_bijection_verified"] is True,
        "explanatory notes present": len(report.notes) > 0,
    }
    ok = all(checks.values())
    assert report_line("4", ok,
                       "verify-paper report: " + checks_detail(checks)), checks


# -- criterion 5: oracle equivalence ------------------------------------------

def test_criterion_5_codes_match_exhaustive_search():
    maps = [m for e in (1, 2, 3) for m in generate_maps(GenerationConfig(e))]
    pairs = 0
    for i, a in enumerate(maps):
        for b in maps[i:]:
            assert (a.canonical_code() == b.canonical_code()) \
                == maps_isomorphic(a, b)
            pairs += 1

    marked = {"source": [], "sink": [], "t": list(enumerate_t_marks(2))}
    for m in maps:
        marked["source"].extend(enumerate_source_marks(m))
        marked["sink"].extend(enumerate_sink_marks(m))
    for kind, classes in marked.items():
        for i, a in enumerate(classes):
            for b in classes[i:]:
                expected = marked_isomorphic(a, b)
                assert (a.canonical_code() == b.canonical_code()) == expected
                assert expected == (a is b)
                pairs += 1
    assert report_line("5", True,
                       f"code equality == exhaustive dart-bijection search on "
                       f"{pairs} pairs (maps and marked maps, both orientations)")


# -- criterion 6: structural invariants ---------------------------------------

def test_criterion_6_every_enumerated_object():
    violations = []
    for e in range(1, 6):
        for m in generate_maps(GenerationConfig(e)):
            if sphere_failures(m.sigma):
                violations.append(f"map {m!r}")
            if m.dual().dual().canonical_code() != m.canonical_code():
                violations.append(f"dual involution {m!r}")
    for n in range(1, 5):
        for m in generate_maps(GenerationConfig(n)):
            for mm in enumerate_source_marks(m) + enumerate_sink_marks(m):
                if m.is_loop(mm.mark.dart) and mm.mark.kind == "source":
                    violations.append(f"loop source mark {mm}")
                if m.is_bridge(mm.mark.dart) and mm.mark.kind == "sink":
                    violations.append(f"bridge sink mark {mm}")
                back = reverse(reverse(mm))
                if back.map != mm.map or back.mark != mm.mark:
                    violations.append(f"reverse involution {mm}")
                dia = realize(mm)
                if dia.check() or dia.n_points != 2 * n + 1:
                    violations.append(f"diagram {mm}")
    for n in range(2, 5):
        for mm in enumerate_t_marks(n):
            dia = realize(mm)
            if dia.check() or dia.n_points != 2 * n + 2:
                violations.append(f"T diagram {mm}")
    assert report_line("6", not violations,
                       f"invariant battery over all enumerated objects "
                       f"(maps to 5 edges, flows to 4 saddles): "
                       f"{len(violations)} violations"), violations


# -- criterion 7: determinism -------------------------------------------------

@pytest.mark.parametrize("command", [
    ("maps", "3"),
    ("maps", "2", "--strategy", "brute"),
    ("maps", "4", "--strategy", "brute"),
    ("bifurcations", "saddle-node", "2"),
    ("bifurcations", "saddle-connection", "3"),
    ("verify-paper",),
])
def test_criterion_7_cli_determinism(command, tmp_path):
    outputs = []
    for jobs, sub in (("1", "a"), ("2", "b")):
        d = tmp_path / sub
        d.mkdir()
        out = d / "out.json"
        res = run_cli(*command, "--jobs", jobs, "--out", str(out), cwd=d,
                      check=True)
        outputs.append((out.read_bytes(),
                        res.stdout.replace(str(out), "OUT")))
    ok = outputs[0] == outputs[1]
    assert report_line("7", ok,
                       f"`{' '.join(command)}` byte-identical across "
                       "--jobs 1 and --jobs 2")


def test_criterion_7_export_determinism(tmp_path):
    catalog = tmp_path / "maps.json"
    run_cli("maps", "2", "--out", str(catalog), cwd=tmp_path, check=True)
    texts = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        run_cli("export", str(catalog), "--format", "dot",
                "--out", str(out), cwd=tmp_path, check=True)
        texts.append(out.read_bytes())
    assert report_line("7", texts[0] == texts[1],
                       "`export --format dot` byte-identical across runs")
