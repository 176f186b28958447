import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sphereflows
from sphereflows import GenerationConfig, MarkedMap, SourceMark, cli, realize
from sphereflows.catalog import (Catalog, CatalogEntry, PAPER_EXPECTED_FLOWS,
                                 PAPER_MAX_SADDLES, UnknownCodeError,
                                 UnsupportedFormatError,
                                 build_bifurcation_catalog, build_census_report,
                                 build_map_catalog, entry_to_dot,
                                 export_entries, load_paper_labels, resolve)


def run_cli(*args, cwd=None):
    # an absolute path, so that the package imports from any cwd
    env = dict(os.environ,
               PYTHONPATH=str(Path(sphereflows.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "sphereflows", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


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
        for e in bifs2.entries:
            mm = resolve(e)
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
        dot = entry_to_dot(entry)
        assert dot.count(" -- ") == 2
        assert dot.count("[degree=") == 3

    def test_dot_marks_annotated(self, bifs2):
        marked = [e for e in bifs2.entries if e.mark["kind"] == "source"]
        dot = entry_to_dot(marked[0])
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
        res = run_cli("bifurcations", "saddle-connection", "1", cwd=tmp_path)
        assert res.returncode == 2

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
        from sphereflows.generate import MAX_EDGES, MIN_EDGES
        from sphereflows.marks import MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES

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
                      "--format", "json")
        assert res.returncode == 2


REPLAY = Path(__file__).resolve().parent.parent / "censusbench" / "replay.py"


@pytest.mark.parametrize("command", [("saddle-node", "2"),
                                     ("saddle-connection", "3")])
def test_traced_replay_records_every_layer(command, tmp_path):
    # the traced benchmark wraps the public names each layer calls in the
    # next; a deleted or bypassed name shows here instead of in its runs
    env = dict(os.environ,
               PYTHONPATH=str(Path(sphereflows.__file__).resolve().parent.parent))

    def replay(*args):
        spans = tmp_path / "spans.json"
        res = subprocess.run([sys.executable, str(REPLAY), str(spans), *args],
                             capture_output=True, text=True, cwd=tmp_path,
                             env=env)
        assert res.returncode == 0, res.stderr
        doc = json.loads(spans.read_text().splitlines()[0])
        assert doc["rc"] == 0
        return doc["spans"]

    names = {span[0] for span in replay("bifurcations", *command)}
    assert {"marks.enumerate", "realize.realize", "realize.check",
            "catalog.build"} <= names
    # an export builds and checks each entry's map once, and realizing a
    # diagram, sink marks included, builds no other map
    path = tmp_path / f"bifurcations-{command[0]}-n{command[1]}.json"
    entries = Catalog.loads(path.read_text()).entries
    for fmt in ("json", "diagram-json"):
        spans = replay("export", str(path), "--format", fmt)
        names = {span[0] for span in spans}
        assert "catalog.export" in names
        assert ("realize.realize" in names) == (fmt == "diagram-json")
        assert sum(span[4]["calls"] for span in spans
                   if span[0] == "combmap.validate") == len(entries), fmt


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
    return json.dumps(doc)


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
    "no-schema_version", "no-n_faces", "no-code", "schema-999", "bad-token",
    "torus-token", "disconnected-token", "identity-alpha-token",
    "source-on-loop-token", "sink-on-bridge-token", "t-at-leaf-token",
    *MISSPELLED_TOKENS,
])
def test_export_of_damaged_catalog_exits_2(damage, tmp_path, maps3):
    catalog_path = tmp_path / "damaged.json"
    catalog_path.write_text(damage_catalog(maps3.to_json_doc(), damage))
    for fmt in ("dot", "json") if damage in BAD_TOKENS else ("dot",):
        res = run_cli("export", str(catalog_path), "--format", fmt, cwd=tmp_path)
        assert res.returncode == 2, fmt
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("error: ")
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
    *WRONG_COUNTS,
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
        assert list(tmp_path.iterdir()) == [catalog_path]


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


def test_outputs_match_benchmark_digests(monkeypatch):
    # the benchmark checks every catalog, report and export against these
    # digests; digesting them here makes a changed byte fail the tests too
    spec = importlib.util.spec_from_file_location("censusbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
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
