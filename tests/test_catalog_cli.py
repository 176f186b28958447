import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sphereflows import (GenerationConfig, MarkedMap, SinkMark, SourceMark,
                         TMark, cli, flow_classes, generate_maps, realize)
from sphereflows.catalog import (Catalog, CatalogEntry, PAPER_EXPECTED_FLOWS,
                                 PAPER_MAX_SADDLES, UnknownCodeError,
                                 UnsupportedFormatError,
                                 build_bifurcation_catalog, build_census_report,
                                 build_map_catalog, diagram_to_dict,
                                 entry_to_dot, export_entries,
                                 load_paper_labels, resolve)
from sphereflows.generate import MAX_EDGES, MIN_EDGES
from sphereflows.marks import (MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES,
                               saddle_connection_census)

from conftest import package_env, run_cli
from oracles import SADDLE_COUNTS_OUT_OF_RANGE, source_class_count


@pytest.fixture(scope="module")
def maps3():
    return build_map_catalog(GenerationConfig(3))


@pytest.fixture(scope="module")
def bifs2():
    return build_bifurcation_catalog("saddle-node", 2)


@pytest.fixture(scope="module")
def report():
    return build_census_report()


class TestCatalog:
    def test_codes_unique_and_sorted(self, maps3):
        codes = [e.code for e in maps3.entries]
        assert len(set(codes)) == len(codes) == 14

    def test_json_round_trip(self, maps3, bifs2):
        for catalog in (maps3, bifs2):
            assert Catalog.loads(catalog.dumps()) == catalog

    def test_entry_round_trip(self, bifs2):
        for e in bifs2.entries:
            assert CatalogEntry.from_dict(json.loads(json.dumps(e._asdict()))) == e

    def test_paper_labels_cover_small_catalogs(self, maps3):
        labels = {e.paper_label for e in maps3.entries}
        assert labels == {f"G^3_{i}" for i in range(1, 15)}
        for e in (1, 2):
            catalog = build_map_catalog(GenerationConfig(e))
            assert all(entry.paper_label for entry in catalog.entries)

    def test_flow_labels_cover_items_1_to_16(self, bifs2):
        assert len(bifs2.entries) == 10
        labelled = {e.paper_label for e in bifs2.entries}
        assert labelled == {f"Fig3:{i}" for i in range(2, 7)} | \
               {f"Fig3:{i}" for i in range(8, 13)}
        bifs1 = build_bifurcation_catalog("saddle-node", 1)
        assert [e.paper_label for e in bifs1.entries] == ["Fig3:1", "Fig3:7"]
        t2 = build_bifurcation_catalog("saddle-connection", 2)
        assert {e.paper_label for e in t2.entries} == {f"Fig3:{i}"
                                                       for i in range(13, 17)}

    def test_marked_summary_matches_realize(self, bifs2):
        labels = load_paper_labels()
        for e in bifs2.entries:
            mm = resolve(e, {}, labels)[1]
            assert realize(mm).point_counts() == e.singular_points
            assert e.mark["kind"] == mm.mark.kind

    def test_unmarked_summary_is_the_morse_flow(self, maps3):
        for e in maps3.entries:
            assert e.singular_points == {"source": e.n_vertices,
                                         "saddle": e.n_edges,
                                         "sink": e.n_faces}

    def test_unknown_code(self, maps3):
        with pytest.raises(UnknownCodeError):
            maps3.entry("E:1;s:0,1;a:1,0;m:-" + "x")

    def test_labels_file_is_curated(self):
        labels = load_paper_labels()
        assert labels["E:1;s:0,1;a:1,0;m:-"] == "G^1_1"
        assert labels["E:1;s:1,0;a:1,0;m:-"] == "G^1_2"


class TestCensusReport:
    def test_flow_rows_carry_expected_values(self, report):
        rows = [r for r in report.rows if r.section == "flows by singular points"]
        assert [r.expected for r in rows] == [PAPER_EXPECTED_FLOWS[p]
                                              for p in range(3, 11)]

    def test_small_censuses_match(self, report):
        by_label = {r.label: r for r in report.rows}
        for pts in (3, 4, 5, 6):
            row = next(r for r in report.rows
                       if r.section == "flows by singular points"
                       and r.label.startswith(f"{pts} points"))
            assert row.match is True

    def test_nine_point_rows_have_deltas_and_parity(self, report):
        breakdown = [r for r in report.rows if r.section == "9 points breakdown"]
        assert any(r.expected == 64 for r in breakdown)
        assert any(r.expected == 89 for r in breakdown)
        assert report.parity["source_classes"] == report.parity["sink_classes"]
        assert report.parity["per_map_duality_bijection_verified"] is True

    def test_ten_point_categories(self, report):
        rows = {r.expected: r for r in report.rows
                if r.section == "10 points breakdown"}
        assert rows[16].match is True
        assert rows[14].match is True
        assert rows[130].computed == 135

    def test_mismatches_carry_notes(self, report):
        assert report.notes
        assert any("217" in n for n in report.notes)

    @pytest.mark.parametrize("allow_reflection, total", [(True, 583),
                                                         (False, 855)])
    def test_last_note_sets_the_abstract_total_beside_this_run(
            self, report, allow_reflection, total):
        if not allow_reflection:
            report = build_census_report(allow_reflection=False)
        published = sum(PAPER_EXPECTED_FLOWS[p] for p in range(3, 11))
        computed = sum(r.computed for r in report.rows
                       if r.section == "flows by singular points")
        assert (published, computed) == (469, total)
        assert report.notes[-1] == (
            "3 to 10 points: the published counts sum to 469, the abstract's "
            f"total; this run counts {total} flows")

    @pytest.mark.parametrize("allow_reflection, sources, connected",
                             [(True, 26, 20), (False, 32, 32)])
    def test_every_note_holds_in_the_mode_it_is_printed_in(
            self, report, allow_reflection, sources, connected):
        if not allow_reflection:
            report = build_census_report(allow_reflection=False)
        seven, eight = (next(n for n in report.notes if n.startswith(start))
                        for start in ("7 points:", "8 points:"))
        # the exhaustive search the 7-point note cites, run in this mode
        assert f"= {sources} source + " in seven
        assert "exhaustive isomorphism search" in seven
        assert source_class_count(3, allow_reflection) == sources
        # the 8-point note claims the published 20 only where it holds
        census = saddle_connection_census(
            3, allow_reflection=allow_reflection)
        assert census.by_category[0] == connected
        assert f"= {connected} classes whose perpendicular edge" in eight
        assert (("the published 20 equals the first category" in eight)
                == (connected == PAPER_EXPECTED_FLOWS[8]))

    def test_report_round_trips_to_json(self, report):
        doc = json.loads(report.dumps())
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == len(report.rows)

    def test_text_table_mentions_every_row(self, report):
        text = report.to_text()
        for row in report.rows:
            assert row.label in text


class TestExports:
    def test_dot_of_chain(self, named):
        catalog = build_map_catalog(GenerationConfig(2))
        entry = catalog.entry(named["chain2"].canonical_code().token())
        dot = entry_to_dot(entry, resolve(entry, {}, load_paper_labels())[1])
        assert dot.count(" -- ") == 2
        assert dot.count("[degree=") == 3

    def test_dot_marks_annotated(self, bifs2):
        marked = [e for e in bifs2.entries if e.mark["kind"] == "source"]
        flow = resolve(marked[0], {}, load_paper_labels())[1]
        dot = entry_to_dot(marked[0], flow)
        assert 'mark="source endpoint' in dot

    def test_diagram_json_lists_three_points(self, named):
        catalog = build_bifurcation_catalog("saddle-node", 1)
        marked = MarkedMap(named["segment"], SourceMark(0))
        entry = catalog.entry(marked.canonical_code().token())
        doc = json.loads(export_entries([entry], "diagram-json"))
        assert len(doc[0]["diagram"]["points"]) == 3

    def test_json_export_round_trips(self, maps3):
        doc = json.loads(export_entries(list(maps3.entries), "json"))
        assert [CatalogEntry.from_dict(d) for d in doc] == list(maps3.entries)

    def test_unsupported_format(self, maps3):
        with pytest.raises(UnsupportedFormatError):
            export_entries(list(maps3.entries), "pdf")
        with pytest.raises(UnsupportedFormatError):
            export_entries(list(maps3.entries), "diagram-json")


class TestCli:
    def test_maps_writes_catalog(self, tmp_path):
        out = tmp_path / "m2.json"
        res = run_cli("maps", "2", "--out", str(out))
        assert res.returncode == 0
        assert "4 maps with 2 edge(s)" in res.stdout
        assert len(Catalog.loads(out.read_text()).entries) == 4

    def test_maps_out_of_range_exits_2(self, tmp_path):
        res = run_cli("maps", "9", cwd=tmp_path)
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_bifurcations_table(self, tmp_path):
        out = tmp_path / "b.json"
        res = run_cli("bifurcations", "saddle-connection", "2", "--out", str(out))
        assert res.returncode == 0
        assert "4 saddle-connection classes" in res.stdout

    def test_bifurcations_out_of_range_exits_2(self, tmp_path):
        res = run_cli("bifurcations", "saddle-connection",
                      str(T_MIN_SADDLES - 1), cwd=tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, message", [
        *((("maps", str(e)), f"n_edges must be in {MIN_EDGES}..{MAX_EDGES}, "
                             f"got {e}") for e in (MIN_EDGES - 1, MAX_EDGES + 1)),
        *((("bifurcations", kind, str(n)), message)
          for kind, n, message in SADDLE_COUNTS_OUT_OF_RANGE),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
    def test_count_out_of_range_exits_2_with_its_message(
            self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("defect", ["check", "point-count"])
    def test_diagram_failing_its_check_exits_1(self, defect, tmp_path,
                                               monkeypatch, capsys):
        # a diagram that misses an arc, or one of a two-saddle flow, for a
        # one-saddle class: the catalog's self-test refuses to write either
        other = realize(flow_classes("saddle-node", 2)[0])

        def broken(mm):
            dia = realize(mm)
            return (dia._replace(separatrices=dia.separatrices[1:])
                    if defect == "check" else other)

        monkeypatch.setattr("sphereflows.catalog.realize", broken)
        out = tmp_path / "out.json"
        argv = ["bifurcations", "saddle-node", "1", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            "internal invariant violation: diagram of E:")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("maps", "3"),
        ("bifurcations", "saddle-node", "2"),
        ("verify-paper",),
    ])
    def test_jobs_below_one_exits_2(self, command, tmp_path):
        res = run_cli(*command, "--jobs", "0", cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.splitlines() == ["error: --jobs must be at least 1, got 0"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ("maps", "2"),
        ("bifurcations", "saddle-node", "2"),
        ("verify-paper",),
        ("export", "CATALOG", "--format", "json"),
        ("export", "CATALOG", "--format", "dot"),
    ])
    def test_unwritable_out_exits_2(self, command, tmp_path, maps3, capsys):
        catalog_path = tmp_path / "m3.json"
        catalog_path.write_text(maps3.dumps())
        out = tmp_path / "missing" / "x"
        args = [str(catalog_path) if a == "CATALOG" else a for a in command]
        assert cli.main([*args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert "wrote" not in captured.out
        assert sorted(tmp_path.iterdir()) == [catalog_path]

    def test_help_shows_supported_ranges(self, capsys):
        expected = {
            ("maps", "--help"): f"number of edges ({MIN_EDGES}..{MAX_EDGES})",
            ("bifurcations", "--help"):
                f"saddle count (saddle-node {SN_MIN_SADDLES}..{MAX_SADDLES}, "
                f"saddle-connection {T_MIN_SADDLES}..{MAX_SADDLES})",
            ("--help",): f"run every census up to {PAPER_MAX_SADDLES} saddles",
        }
        for argv, text in expected.items():
            with pytest.raises(SystemExit):
                cli.main(list(argv))
            assert text in " ".join(capsys.readouterr().out.split())
        assert MAX_SADDLES == MAX_EDGES - 1

    def test_strategy_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["maps", "2", "--strategy", "auto"])
        assert exc.value.code == 2
        assert "invalid choice: 'auto' (choose from 'grow', 'brute')" \
            in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        res = run_cli("maps")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ("maps", "2", "--jobs", "abc"),
        ("maps",),
        ("maps", "2", "--bogus"),
        ("bifurcations", "foo", "2"),
        ("export",),
        ("export", "C", "--format", "xml"),
    ], ids=" ".join)
    def test_bad_flag_exits_2_with_one_error_line(self, argv, tmp_path):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ("maps", "1", "--out", "out.json"),
        ("bifurcations", "saddle-node", "2", "--out", "out.json"),
        ("verify-paper", "--out", "out.json"),
        ("export", "CATALOG", "--format", "json", "--out", "out.json"),
        ("--help",),
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_exits_1_quietly(self, argv, unbuffered, tmp_path,
                                           bifs2):
        # stdout is a pipe whose read end is closed before the run starts,
        # so the first write or flush fails however stdout is buffered
        catalog_path = tmp_path / "n2.json"
        catalog_path.write_text(bifs2.dumps())
        args = [str(catalog_path) if a == "CATALOG" else a for a in argv]
        for run in ("open", "closed"):
            (tmp_path / run).mkdir()
        normal = run_cli(*args, cwd=tmp_path / "open",
                         PYTHONUNBUFFERED=unbuffered)
        read, write = os.pipe()
        os.close(read)
        try:
            res = run_cli(*args, cwd=tmp_path / "closed", stdout=write,
                          PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert (normal.returncode, res.returncode, res.stderr) == (0, 1, "")
        files = {run: [p.read_bytes() for p in (tmp_path / run).iterdir()]
                 for run in ("open", "closed")}
        assert files["closed"] == files["open"]
        assert len(files["open"]) == (argv[0] != "--help")

    def test_export_dot(self, tmp_path):
        catalog_path = tmp_path / "m2.json"
        run_cli("maps", "2", "--out", str(catalog_path))
        out = tmp_path / "m2.dot"
        res = run_cli("export", str(catalog_path), "--format", "dot",
                      "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().count("graph ") == 4

    def test_export_unknown_code_exits_2(self, tmp_path):
        catalog_path = tmp_path / "m2.json"
        run_cli("maps", "2", "--out", str(catalog_path))
        res = run_cli("export", str(catalog_path), "--code", "nope",
                      "--format", "json", cwd=tmp_path)
        assert res.returncode == 2

    def test_export_missing_catalog_exits_2(self, tmp_path):
        res = run_cli("export", str(tmp_path / "absent.json"),
                      "--format", "json", cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: cannot read catalog ")
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == []


REPLAY = Path(__file__).resolve().parent.parent / "censusbench" / "replay.py"


@pytest.mark.parametrize("command", [("saddle-node", "2"),
                                     ("saddle-connection", "3")])
def test_traced_replay_records_every_layer(command, tmp_path):
    # the traced benchmark wraps the public names each layer calls in the
    # next; a deleted or bypassed name shows here instead of in its runs
    def replay(*args):
        spans = tmp_path / "spans.json"
        res = subprocess.run([sys.executable, str(REPLAY), str(spans), *args],
                             capture_output=True, text=True, cwd=tmp_path,
                             env=package_env())
        assert res.returncode == 0, res.stderr
        doc = json.loads(spans.read_text().splitlines()[0])
        assert doc["rc"] == 0
        return doc["spans"]

    names = {span[0] for span in replay("bifurcations", *command)}
    assert {"marks.enumerate", "realize.realize", "realize.check",
            "catalog.build"} <= names
    # an export builds and checks each distinct map once, however many
    # entries mark it, and realizing a diagram, sink marks included, builds
    # no other map
    path = tmp_path / f"bifurcations-{command[0]}-n{command[1]}.json"
    entries = Catalog.loads(path.read_text()).entries
    rows = {tuple(e.code.split(";")[1:3]) for e in entries}
    assert len(rows) < len(entries)
    for fmt in ("json", "dot", "diagram-json"):
        spans = replay("export", str(path), "--format", fmt)
        names = {span[0] for span in spans}
        assert "catalog.export" in names
        assert ("realize.realize" in names) == (fmt == "diagram-json")
        assert sum(span[4]["calls"] for span in spans
                   if span[0] == "combmap.validate") == len(rows), fmt


def damage_catalog(doc, damage):
    """A catalog file's text with one defect."""
    if damage == "not-json":
        return "{not json"
    if damage == "not-an-object":
        return "[]"
    if damage.startswith("no-"):
        key = damage[3:]
        if key in doc:
            del doc[key]
        else:
            del doc["entries"][0][key]
    elif damage == "schema-999":
        doc["schema_version"] = 999
    elif damage in BAD_TOKENS:
        doc["entries"][0]["code"] = BAD_TOKENS[damage]
    elif damage in FALSY_MARKS:
        doc["entries"][0]["mark"] = FALSY_MARKS[damage]
    return json.dumps(doc)


# an unmarked entry's mark spelled falsy but not null
FALSY_MARKS = {"mark-false": False, "mark-0": 0, "mark-empty-string": "",
               "mark-empty-list": [], "mark-empty-object": {}}
# a missing field, or a falsy mark, that json export must not write as null
NULLED_FIELDS = ["no-mark", "no-paper_label", *FALSY_MARKS]


# spellings of E:2;s:0,2,1,3;a:1,0,3,2;m:source,0, the first code of the
# two-saddle saddle-node catalog, other than the one its code writes
MISSPELLED_TOKENS = {
    "extra-field-token": "E:2;s:0,2,1,3;a:1,0,3,2;m:source,0;x:9",
    "reordered-fields-token": "m:source,0;E:2;s:0,2,1,3;a:1,0,3,2",
    "padded-numbers-token": "E:02;s: 0,2,1,3;a:1,0,3,2;m:source,+0",
    "repeated-field-token": "E:2;E:2;s:0,2,1,3;a:1,0,3,2;m:source,0",
}

BAD_TOKENS = {
    "bad-token": "E:1;s:1,0;a:1,0;m:source,7",
    "torus-token": "E:2;s:1,2,3,0;a:2,3,0,1;m:-",
    "disconnected-token": "E:2;s:0,1,2,3;a:1,0,3,2;m:-",
    "identity-alpha-token": "E:1;s:0,1;a:0,1;m:-",
    # marks that are illegal on their map: on a loop, on a bridge, and at a
    # vertex of degree 1
    "source-on-loop-token": "E:1;s:1,0;a:1,0;m:source,0",
    "sink-on-bridge-token": "E:1;s:0,1;a:1,0;m:sink,0",
    "t-at-leaf-token": "E:1;s:0,1;a:1,0;m:t,0",
    **MISSPELLED_TOKENS,
}


@pytest.mark.parametrize("damage", [
    "not-json", "not-an-object", "no-entries", "no-catalog", "no-params",
    "no-schema_version", "no-n_faces", "no-code", "no-n_edges",
    "no-n_vertices", "no-degree_sequence", "no-singular_points",
    "schema-999", "bad-token",
    "torus-token", "disconnected-token", "identity-alpha-token",
    "source-on-loop-token", "sink-on-bridge-token", "t-at-leaf-token",
    *MISSPELLED_TOKENS, *NULLED_FIELDS,
])
def test_export_of_damaged_catalog_exits_2(damage, tmp_path, maps3):
    catalog_path = tmp_path / "damaged.json"
    catalog_path.write_text(damage_catalog(maps3.to_json_doc(), damage))
    both = damage in BAD_TOKENS or damage in NULLED_FIELDS
    for fmt in ("dot", "json") if both else ("dot",):
        res = run_cli("export", str(catalog_path), "--format", fmt, cwd=tmp_path)
        assert res.returncode == 2, fmt
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == [catalog_path]


# the one-edge maps' counts, so that only the mark's legality is wrong
LOOP = {"n_edges": 1, "n_vertices": 1, "n_faces": 2, "degree_sequence": [2]}
SEGMENT = {"n_edges": 1, "n_vertices": 2, "n_faces": 1,
           "degree_sequence": [1, 1]}

# entries in catalog order and the error of the last one; entries on the
# same map rows reuse its build, and each still has its own checks
ILLEGAL_MARKS = {
    "source-on-loop": ([(BAD_TOKENS["source-on-loop-token"], LOOP)],
                       "a source mark cannot sit on a loop edge"),
    "sink-on-bridge": ([(BAD_TOKENS["sink-on-bridge-token"], SEGMENT)],
                       "a sink mark needs an edge bordering two distinct faces"),
    "t-at-leaf": ([(BAD_TOKENS["t-at-leaf-token"], SEGMENT)],
                  "a T-mark needs a vertex of degree 3"),
    "source-after-sink-on-loop": ([("E:1;s:1,0;a:1,0;m:sink,0", LOOP),
                                   (BAD_TOKENS["source-on-loop-token"], LOOP)],
                                  "a source mark cannot sit on a loop edge"),
    "two-edges-after-sink-on-loop": (
        [("E:1;s:1,0;a:1,0;m:sink,0", LOOP), ("E:2;s:1,0;a:1,0;m:sink,0", LOOP)],
        "code token is not a valid map: 'E:2;s:1,0;a:1,0;m:sink,0' "
        "(2 darts for 2 edges)"),
}


@pytest.mark.parametrize("case", list(ILLEGAL_MARKS))
def test_export_of_illegal_mark_exits_2(case, tmp_path):
    entries, message = ILLEGAL_MARKS[case]

    def mark_field(token):
        kind, label = token.rpartition("m:")[2].split(",")
        return {"kind": kind, "dart": int(label)}

    # each entry carries its token's label and the document its tokens'
    # kind and saddle count, so that only the mark is wrong
    labels = load_paper_labels()
    t = mark_field(entries[0][0])["kind"] == "t"
    doc = {"schema_version": 1,
           "catalog": "saddle-connection" if t else "saddle-node",
           "params": {"n_saddles": entries[0][1]["n_edges"] - t,
                      "allow_reflection": True},
           "entries": [{"code": token, **counts, "mark": mark_field(token),
                        "singular_points": {}, "paper_label": labels.get(token)}
                       for token, counts in entries]}
    catalog_path = tmp_path / "illegal.json"
    catalog_path.write_text(json.dumps(doc))
    for fmt in ("json", "dot", "diagram-json"):
        res = run_cli("export", str(catalog_path), "--format", fmt, cwd=tmp_path)
        assert res.returncode == 2, fmt
        assert res.stderr == f"error: {message}\n", fmt
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == [catalog_path]


@pytest.mark.parametrize("version", [999, 0, None, True, 1.0])
def test_loads_rejects_other_schema_versions(maps3, version):
    doc = maps3.to_json_doc()
    if version is None:
        del doc["schema_version"]
    else:
        doc["schema_version"] = version
    with pytest.raises(ValueError):
        Catalog.loads(json.dumps(doc))
    assert Catalog.loads(maps3.dumps()) == maps3


# mark darts that are not spelled as ints
MARK_SPELLINGS = {"dart-false": False, "dart-float": 0.0, "dart-true": True}

# cell counts that are not those of the entry's map, or not spelled as ints
WRONG_COUNTS = {
    "n_edges-7": {"n_edges": 7},
    "n_vertices-99": {"n_vertices": 99},
    "n_faces-2": {"n_faces": 2},
    "degree_sequence-9-9": {"degree_sequence": [9, 9]},
    "n_faces-true": {"n_faces": True},
    "degree_sequence-float": {"degree_sequence": [2.0, 1, 1]},
}


def inconsistent_catalog(doc, damage):
    """A marked catalog's text with one defect that json.loads accepts."""
    entry = doc["entries"][0]
    if damage.startswith("schema-"):
        doc["schema_version"] = {"schema-true": True, "schema-float": 1.0}[damage]
    elif damage in ("nan", "infinity"):
        entry["n_vertices"] = float(damage)
    elif damage == "mark-on-unmarked-token":
        entry["code"] = entry["code"].rsplit("m:", 1)[0] + "m:-"
        entry["mark"] = {"kind": "t", "dart": 0}
    elif damage == "no-mark-on-marked-token":
        entry["mark"] = None
    elif damage == "mark-on-other-dart":
        entry["mark"]["dart"] += 1
    elif damage in MARK_SPELLINGS:
        # equal to the token's dart 0 under ==, or to dart 1, but no int
        entry["mark"]["dart"] = MARK_SPELLINGS[damage]
    elif damage in MISSPELLED_TOKENS:
        # every other field is this token's, so only the spelling is wrong
        assert entry["code"] == "E:2;s:0,2,1,3;a:1,0,3,2;m:source,0"
        entry["code"] = MISSPELLED_TOKENS[damage]
    elif damage in WRONG_COUNTS:
        entry.update(WRONG_COUNTS[damage])
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [
    "schema-true", "schema-float", "nan", "infinity", "mark-on-unmarked-token",
    "no-mark-on-marked-token", "mark-on-other-dart", *MISSPELLED_TOKENS,
    *WRONG_COUNTS, *MARK_SPELLINGS,
])
def test_export_of_inconsistent_catalog_exits_2(damage, tmp_path, bifs2):
    catalog_path = tmp_path / "damaged.json"
    # a fresh document: damaging the fixture's own nested dicts would leak
    # one damage into the next
    catalog_path.write_text(inconsistent_catalog(json.loads(bifs2.dumps()),
                                                 damage))
    for fmt in ("json", "dot"):
        res = run_cli("export", str(catalog_path), "--format", fmt, cwd=tmp_path)
        assert res.returncode == 2, fmt
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
        if damage in MARK_SPELLINGS:
            assert res.stderr.startswith("error: entry mark "), fmt
        assert list(tmp_path.iterdir()) == [catalog_path]


# a catalog field that json.loads reads as another JSON type than its own, or
# a paper_label that is not the label file's; the first entry is
# E:2;s:0,2,1,3;a:1,0,3,2;m:source,0, labelled Fig3:3, one saddle
MISTYPED_FIELDS = {
    "params-string": ("params", "n_saddles=2"),
    "params-pairs": ("params", [["n_saddles", 2], ["allow_reflection", True]]),
    "singular_points-string": ("singular_points", "source=2"),
    "singular_points-pairs": ("singular_points", [["saddle", 1], ["sink", 1],
                                                  ["source", 2],
                                                  ["saddle-node-source", 1]]),
    "count-string": ("saddle", "1"),
    "count-float": ("saddle", 1.0),
    "count-true": ("saddle", True),
    "paper_label-null": ("paper_label", None),
    "paper_label-other": ("paper_label", "Fig3:4"),
    "paper_label-int": ("paper_label", 3),
    "unknown-field": ("colour", "red"),
    "mark-list": ("mark", ["source", 0]),
    "mark-string": ("mark", "source"),
    "mark-number": ("mark", 0),
    "mark-true": ("mark", True),
}


# document keys other than the writer's: entries that are no list, a key
# the format does not define at the top level or in params, params without
# the saddle count or with the maps' edge count, and a kind the writer does
# not write; or a kind, count or mode that is mistyped or that the entries'
# marks and edges contradict ("maps3-" damages the three-edge map catalog)
DOCUMENT_KEYS = {
    "entries-object": lambda doc: doc.update(entries={}),
    "unknown-top-level-key": lambda doc: doc.update(colour="red"),
    "unknown-params-key": lambda doc: doc["params"].update(colour="red"),
    "params-without-n_saddles": lambda doc: doc["params"].pop("n_saddles"),
    "params-empty": lambda doc: doc.update(params={}),
    "params-n_edges": lambda doc: doc["params"].update(
        n_edges=doc["params"].pop("n_saddles")),
    "catalog-bogus": lambda doc: doc.update(catalog="bogus"),
    "saddle-connection-99": lambda doc: doc.update(
        catalog="saddle-connection", params={"n_saddles": 99,
                                             "allow_reflection": True}),
    "n_saddles-3": lambda doc: doc["params"].update(n_saddles=3),
    "n_saddles-true": lambda doc: doc["params"].update(n_saddles=True),
    "n_saddles-float": lambda doc: doc["params"].update(n_saddles=2.0),
    "allow_reflection-yes": lambda doc: doc["params"].update(
        allow_reflection="yes"),
    "allow_reflection-1": lambda doc: doc["params"].update(allow_reflection=1),
    "maps3-n_edges-4": lambda doc: doc["params"].update(n_edges=4),
    "maps3-saddle-node": lambda doc: doc.update(
        catalog="saddle-node", params={
            "n_saddles": doc["params"]["n_edges"],
            "allow_reflection": doc["params"]["allow_reflection"]}),
}


# the DOCUMENT_KEYS whose kind or count the first entry contradicts
ENTRY_MISFITS = ("saddle-connection-99", "n_saddles-3", "maps3-n_edges-4",
                 "maps3-saddle-node")


# entries listed other than once each in increasing code order: the first
# one twice, or the first two swapped
DISORDERED = {
    "repeated-entry": lambda entries: entries[:1] + entries,
    "swapped-entries": lambda entries: entries[1::-1] + entries[2:],
}


@pytest.mark.parametrize("damage",
                         [*MISTYPED_FIELDS, *DOCUMENT_KEYS, *DISORDERED,
                          "deeply-nested"])
def test_export_of_mistyped_catalog_exits_2(damage, tmp_path, bifs2, maps3):
    doc = json.loads(bifs2.dumps())
    entry = doc["entries"][0]
    assert (entry["code"], entry["paper_label"]) == (
        "E:2;s:0,2,1,3;a:1,0,3,2;m:source,0", "Fig3:3")
    catalog_path = tmp_path / "mistyped.json"
    malformed = f"error: cannot read catalog {catalog_path}: malformed catalog: "
    if damage == "deeply-nested":
        # deeper than json.loads recurses; at 900 levels it parses, and the
        # list is then rejected as not a catalog
        text, prefix = "[" * 1000 + "]" * 1000, malformed + "RecursionError("
    elif damage in DOCUMENT_KEYS:
        if damage.startswith("maps3-"):
            doc = json.loads(maps3.dumps())
        DOCUMENT_KEYS[damage](doc)
        text = json.dumps(doc)
        prefix = malformed + f'TypeError("{doc["catalog"]!r} '
    elif damage in DISORDERED:
        doc["entries"] = DISORDERED[damage](doc["entries"])
        text = json.dumps(doc)
        prefix = (f"error: entry {doc['entries'][1]['code']!r} is repeated "
                  "or out of code order")
    else:
        key, value = MISTYPED_FIELDS[damage]
        holder = doc if key == "params" else (
            entry["singular_points"] if key == "saddle" else entry)
        holder[key] = value
        text = json.dumps(doc)
        prefix = {"paper_label": "error: entry paper_label ",
                  "mark": malformed + "TypeError(\"'saddle-node' {"}.get(
                      key, malformed)
    # a kind or count the entries contradict names the first entry
    names_entry = damage in ENTRY_MISFITS or damage.startswith("mark-")
    catalog_path.write_text(text)
    # a --code hit reads the whole document too
    hit = ("--code", entry["code"]) if damage == "saddle-connection-99" else ()
    for fmt in ("json", "dot", "diagram-json"):
        res = run_cli("export", str(catalog_path), "--format", fmt, *hit,
                      cwd=tmp_path)
        assert res.returncode == 2, fmt
        assert len(res.stderr.splitlines()) == 1, fmt
        assert res.stderr.startswith(prefix), fmt
        if names_entry:
            first = doc["entries"][0]["code"]
            assert res.stderr.endswith(f" entry 0, {first!r}\")\n"), fmt
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == [catalog_path]


def test_label_on_an_unlabelled_entry_is_rejected():
    labels = load_paper_labels()
    entries = build_bifurcation_catalog("saddle-node", 3).entries
    entry = next(e for e in entries if e.code not in labels)
    assert entry.paper_label is None
    export_entries([entry], "json")
    for fmt in ("json", "dot", "diagram-json"):
        with pytest.raises(ValueError, match="^entry paper_label 'Fig3:3' "):
            export_entries([entry._replace(paper_label="Fig3:3")], fmt)


# one per-entry defect each, as a change of the entry's fields, and the
# start of the error resolve raises for it
ENTRY_DEFECTS = {
    "paper_label-other": (lambda e: {"paper_label": "other"},
                          "entry paper_label "),
    "mark-next-dart": (lambda e: {"mark": {**e.mark, "dart": e.mark["dart"] + 1}},
                       "entry mark "),
    "mark-dart-false": (lambda e: {"mark": {**e.mark, "dart": False}},
                        "entry mark "),
    "n_vertices-99": (lambda e: {"n_vertices": 99}, "entry counts "),
}


@pytest.mark.parametrize("defect", list(ENTRY_DEFECTS))
def test_resolve_rejects_each_entry_defect(defect, bifs2):
    labels = load_paper_labels()
    change, start = ENTRY_DEFECTS[defect]
    for e in bifs2.entries:
        resolve(e, {}, labels)
        with pytest.raises(ValueError, match=f"^{start}"):
            resolve(e._replace(**change(e)), {}, labels)


@pytest.mark.parametrize("reflect", [True, False])
def test_every_built_catalog_exports(reflect):
    catalogs = [build_map_catalog(GenerationConfig(e, reflect))
                for e in range(MIN_EDGES, MAX_EDGES + 1)]
    catalogs += [build_bifurcation_catalog(kind, n, reflect)
                 for kind, low in (("saddle-node", SN_MIN_SADDLES),
                                   ("saddle-connection", T_MIN_SADDLES))
                 for n in range(low, MAX_SADDLES + 1)]
    for catalog in catalogs:
        entries = Catalog.loads(catalog.dumps()).entries
        marked = catalog.kind != "maps"
        for fmt in ("json", "dot", "diagram-json")[:3 if marked else 2]:
            assert export_entries(entries, fmt)


def stdlib_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


WORKLOADS = REPLAY.with_name("workloads.py")


def _catalog_for(key):
    """The catalog a benchmark reference key names, e.g. ``maps-e5-nr``."""
    reflect = not key.endswith("-nr")
    name, _, count = key.removesuffix("-nr").rpartition("-")
    if name == "maps":
        return build_map_catalog(GenerationConfig(int(count[1:]), reflect))
    return build_bifurcation_catalog(name, int(count[1:]), reflect)


def bench_module(path, monkeypatch):
    """A benchmark script imported from its file for this test only."""
    spec = importlib.util.spec_from_file_location(f"censusbench_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_benchmark_digests(monkeypatch):
    # the benchmark checks every catalog, report and export against these
    # digests; digesting them here makes a changed byte fail the tests too
    workloads = bench_module(WORKLOADS, monkeypatch)
    reference = workloads.REFERENCE
    # the bytes themselves are those the stdlib encoder writes
    texts = {}
    for key, expected in reference["catalogs"].items():
        catalog = _catalog_for(key)
        texts[key] = catalog.dumps()
        assert texts[key] == stdlib_text(catalog.to_json_doc()), key
        assert workloads.digest(json.loads(texts[key])["entries"]) == expected, key
    report = build_census_report()
    assert report.dumps() == stdlib_text(report.to_json_doc())
    doc = json.loads(report.dumps())
    assert workloads.digest({"rows": doc["rows"], "parity": doc["parity"]}) \
        == reference["reports"]["paper-census"]
    for key, expected in reference["exports"].items():
        name, fmt = key.split(":")
        text = export_entries(list(Catalog.loads(texts[name]).entries), fmt)
        assert workloads.export_digest(fmt, text) == expected, key
        if fmt != "dot":
            assert text == stdlib_text(json.loads(text)), key


def fresh_diagram(dia):
    """A diagram as diagram-json spells it, every record its own dict."""
    return {
        "points": [{"id": p.id, "kind": p.kind,
                    "origin": {"cell": p.origin[0], "dart": p.origin[1]}}
                   for p in dia.points],
        "separatrices": [{"from": a.source, "to": a.target, "anchor": a.anchor}
                         for a in dia.separatrices],
        "saddle_connection": list(dia.saddle_connection)
        if dia.saddle_connection else None,
    }


@pytest.mark.parametrize("reflect", [True, False])
@pytest.mark.parametrize("kind, n", [
    *(("saddle-node", n) for n in range(1, PAPER_MAX_SADDLES + 1)),
    *(("saddle-connection", n) for n in range(2, PAPER_MAX_SADDLES + 1))])
def test_diagram_json_shares_records_and_keeps_stdlib_bytes(kind, n, reflect):
    entries = build_bifurcation_catalog(kind, n, reflect).entries
    labels = load_paper_labels()
    fresh = [{"code": e.code,
              "diagram": fresh_diagram(realize(resolve(e, {}, labels)[1]))}
             for e in entries]
    assert export_entries(entries, "diagram-json") == stdlib_text(fresh)
    # equal points and equal arcs are one dict; the two one-saddle
    # diagrams have none in common
    records = {}
    docs = [diagram_to_dict(resolve(e, {}, labels)[1], records) for e in entries]
    for field in ("points", "separatrices"):
        dicts = [r for d in docs for r in d[field]]
        distinct = {json.dumps(r, sort_keys=True) for r in dicts}
        assert len({id(r) for r in dicts}) == len(distinct)
        assert len(distinct) < len(dicts) or n == 1


@pytest.mark.parametrize("reflect", [True, False])
def test_benchmark_candidates_are_the_legal_darts(reflect, monkeypatch):
    # the traced replay counts the marks an enumerator considers (the
    # marks.candidates and marks.yield metrics) by its own copy of the rule
    candidates = bench_module(REPLAY, monkeypatch)._candidates

    def legal(m, cls):
        return sum(cls.why_illegal(m, d) is None for d in range(m.n_darts))

    for e in range(1, 5):
        for m in generate_maps(GenerationConfig(e, reflect)):
            assert candidates("source", m, reflect) == legal(m, SourceMark)
            assert candidates("sink", m, reflect) == legal(m, SinkMark)
    for n in range(2, 5):
        maps = generate_maps(GenerationConfig(n + 1, reflect))
        assert candidates("t", n, reflect) == sum(legal(m, TMark) for m in maps)
