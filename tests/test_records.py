"""Import weight of the CLI and the semantics of the package's record types."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import sphereflows
from sphereflows import (CanonicalCode, GenerationConfig, MarkedMap, SinkMark,
                         SourceMark, TMark, enumerate_sink_marks,
                         enumerate_source_marks, enumerate_t_marks,
                         generate_maps, realize, saddle_connection_census,
                         saddle_node_census)
from sphereflows.catalog import (CensusReport, ReportRow,
                                 build_bifurcation_catalog)

HEAVY_MODULES = ("dataclasses", "concurrent.futures", "multiprocessing")


def modules_loaded_by(statement):
    """Modules a fresh interpreter loads while running ``statement``;
    modules loaded at start-up are not the package's doing."""
    code = ("import sys; before = set(sys.modules); " + statement
            + "; print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(sphereflows.__file__).resolve().parent.parent))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def heavy(loaded):
    return [m for m in loaded if m.split(".")[0] in HEAVY_MODULES
            or m in HEAVY_MODULES]


def test_cli_import_loads_no_pool_or_dataclasses():
    loaded = modules_loaded_by("import sphereflows.cli")
    assert "sphereflows.cli" in loaded
    assert heavy(loaded) == []


def test_brute_with_jobs_starts_no_workers():
    loaded = modules_loaded_by(
        "from sphereflows import GenerationConfig, generate_maps; "
        "generate_maps(GenerationConfig(4, jobs=8), 'brute')")
    assert "sphereflows.generate" in loaded
    assert heavy(loaded) == []


class TestMarks:
    def test_kinds_on_one_dart_differ(self):
        assert SourceMark(3) != SinkMark(3)
        assert SinkMark(3) != TMark(3)
        assert not SourceMark(3) == TMark(3)

    def test_equal_marks_hash_equally(self):
        for cls in (SourceMark, SinkMark, TMark):
            assert cls(3) == cls(dart=3)
            assert hash(cls(3)) == hash(cls(dart=3))
            assert cls(3) != cls(4)
        assert len({SourceMark(1), SourceMark(1), SinkMark(1)}) == 2

    def test_repr(self):
        assert repr(SourceMark(3)) == "SourceMark(dart=3)"
        assert repr(TMark(dart=0)) == "TMark(dart=0)"

    @pytest.mark.parametrize("cls", [SourceMark, SinkMark, TMark])
    def test_fields_are_read_only(self, cls):
        mark = cls(2)
        with pytest.raises(AttributeError):
            mark.dart = 5
        with pytest.raises(AttributeError):
            del mark.dart
        with pytest.raises(AttributeError):
            mark.other = 1
        assert mark.dart == 2

    def test_pickle_round_trip(self):
        for mark in (SourceMark(1), SinkMark(2), TMark(3)):
            back = pickle.loads(pickle.dumps(mark))
            assert type(back) is type(mark) and back == mark


def every_record(named):
    """One instance of each record type the package returns."""
    segment = named["segment"]
    mm = MarkedMap(segment, SourceMark(0))
    diagram = realize(mm)
    sn = saddle_node_census(1)
    catalog = build_bifurcation_catalog("saddle-node", 1)
    return [
        segment.canonical_code(), GenerationConfig(2),
        mm, sn, sn.rows[0], saddle_connection_census(2), diagram,
        diagram.points[0], diagram.separatrices[0], catalog,
        catalog.entries[0], ReportRow("section", "label", 1, 1),
        CensusReport(True, (), {}, ()),
    ]


def test_record_fields_are_read_only(named):
    for record in every_record(named):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_records_keep_keyword_constructors_and_repr(named):
    cfg = GenerationConfig(n_edges=2, jobs=2)
    assert cfg == GenerationConfig(2, True, 2)
    assert repr(cfg) == "GenerationConfig(n_edges=2, allow_reflection=True, jobs=2)"
    mm = MarkedMap(mark=SourceMark(dart=0), map=named["segment"])
    assert repr(mm).startswith("MarkedMap(map=CombinatorialMap(")
    assert repr(mm).endswith(", mark=SourceMark(dart=0))")
    code = named["loop"].canonical_code()
    assert repr(code) == ("CanonicalCode(n_edges=1, sigma_images=(1, 0), "
                          "alpha_images=(1, 0), mark=None)")


def test_saddle_connection_census_is_reproducible():
    assert saddle_connection_census(2) == saddle_connection_census(2)


def all_codes():
    """Unmarked and marked codes of every kind, up to three edges."""
    codes = []
    for e in (1, 2, 3):
        for m in generate_maps(GenerationConfig(e)):
            codes.append(m.canonical_code())
            codes += [mm.canonical_code() for mm in enumerate_source_marks(m)]
            codes += [mm.canonical_code() for mm in enumerate_sink_marks(m)]
    codes += [mm.canonical_code() for n in (2,) for mm in enumerate_t_marks(n)]
    return codes


class TestCanonicalCodeRecord:
    def test_order_follows_sort_key(self):
        codes = all_codes()
        assert {c.mark[0] for c in codes if c.mark} == {"source", "sink", "t"}
        for a in codes[::7]:
            for b in codes[::5]:
                assert (a < b) == (a.sort_key < b.sort_key)
                assert (a <= b) == (a.sort_key <= b.sort_key)
                assert (a > b) == (a.sort_key > b.sort_key)
                assert (a >= b) == (a.sort_key >= b.sort_key)
        assert max(codes).sort_key == max(c.sort_key for c in codes)
        assert min(codes).sort_key == min(c.sort_key for c in codes)
        assert sorted(codes) == sorted(codes, key=lambda c: c.sort_key)

    def test_mark_kind_ranks_source_before_sink(self):
        # raw field order would put "sink" before "source"
        source = CanonicalCode(1, (0, 1), (1, 0), ("source", 1))
        sink = CanonicalCode(1, (0, 1), (1, 0), ("sink", 0))
        assert source < sink and sink > source
        assert sink >= source and not source >= sink
        assert max(source, sink) == sink and min(sink, source) == source

    def test_pickle_round_trip(self):
        for code in all_codes():
            back = pickle.loads(pickle.dumps(code))
            assert type(back) is CanonicalCode
            assert back == code and hash(back) == hash(code)
            assert back.token() == code.token()
