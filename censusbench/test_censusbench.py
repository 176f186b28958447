"""Tests of the census benchmark itself: python -m pytest censusbench"""

import argparse
import json
import sys

import pytest

import run
import workloads as wl

# Runs the real CLI, then damages its result the way MODE says.
STUB = '''
import json, runpy, sys
mode = sys.argv.pop(1)
code = 0
try:
    runpy.run_module("sphereflows", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
if mode == "corrupt":
    with open("maps-e3.json") as fh:
        doc = json.load(fh)
    doc["entries"][0]["n_faces"] += 1
    with open("maps-e3.json", "w") as fh:
        json.dump(doc, fh)
sys.exit(3 if mode == "exit3" else code)
'''


@pytest.fixture(scope="module")
def launcher():
    return run.make_launcher(run.find_package())


def stub_bench(tmp_path, launcher, mode):
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    stubbed = run.Launcher(launcher.env, [sys.executable, str(stub), mode])
    return run.Bench("census", 1, stubbed, run.fresh_dir(tmp_path / "work"))


def counted(bench, results):
    args = argparse.Namespace(workload="census", seed=1, seconds=1, trace=0)
    return run.record(bench, [results], 1.0, args, run.find_package())


def test_sound_job_passes(tmp_path, launcher):
    bench = stub_bench(tmp_path, launcher, "keep")
    result = bench.run_job(wl.census_jobs()[2])
    assert result.error is None and result.classes == 14


def test_corrupted_catalog_entry_counts_as_failure(tmp_path, launcher):
    bench = stub_bench(tmp_path, launcher, "corrupt")
    result = bench.run_job(wl.census_jobs()[2])
    assert result.proc.returncode == 0
    assert "digest mismatch" in result.error
    rec = counted(bench, [result])
    assert rec["failed"] == 1 and rec["failed_ratio"] == 1.0


def test_unexpected_exit_code_counts_as_failure(tmp_path, launcher):
    bench = stub_bench(tmp_path, launcher, "exit3")
    result = bench.run_job(wl.census_jobs()[2])
    assert (bench.work / "job" / "maps-e3.json").exists()
    assert "exit code 3" in result.error
    assert counted(bench, [result])["failed"] == 1


def test_tail_reports_percentile_and_sample_count():
    t = run.tail([float(i) for i in range(1, 101)])
    assert (t["percentile"], t["n"], t["beyond"]) == (90, 100, 10)
    t = run.tail([float(i) for i in range(1, 251)])
    assert (t["percentile"], t["n"], t["beyond"]) == (96, 250, 10)
    assert run.tail([1.0] * 19)["percentile"] == 50


def test_self_time_subtracts_children_and_aggregates():
    spans = [["catalog.build", 0.0, 10.0, -1, None],
             ["generate.maps", 1.0, 5.0, 0,
              {"key": [2, True, "grow"], "jobs": 1, "classes": 4}],
             ["combmap.code", 1.5, 4.5, 1, {"calls": 3, "busy_s": 2.0}]]
    doc = {"spans": spans, "child_codes": 5}
    layers = run.job_layers(doc, wall_s=12.0, write_s=0.5)
    assert layers["catalog.build_s"] == 6.0
    assert layers["generate.maps_s"] == 4.0
    assert layers["combmap.codes"] == 8
    assert layers["cli.other_s"] == 12.0 - 0.5 - 10.0


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module")
def export_bench(tmp_path_factory, launcher):
    bench = run.Bench("export", 1, launcher, tmp_path_factory.mktemp("export"))
    bench.setup_export()
    return bench


def with_seed(bench, seed):
    other = run.Bench("export", seed, bench.launcher, bench.work)
    other.codes, other.expected_items = bench.codes, bench.expected_items
    return other


def tokens(bench):
    return [job.token for job in bench.pass_jobs() if job.token]


def test_export_tokens_follow_the_seed(export_bench):
    first = tokens(with_seed(export_bench, 7))
    assert first == tokens(with_seed(export_bench, 7))
    assert first != tokens(with_seed(export_bench, 8))
    assert len(first) == wl.LOOKUP_HITS + wl.LOOKUP_MISSES


def test_other_seed_gives_same_results(export_bench):
    outcomes = []
    for seed in (7, 8):
        results = [export_bench.run_job(job)
                   for job in with_seed(export_bench, seed).pass_jobs()]
        assert [r.error for r in results if r.error] == []
        outcomes.append((len(results), sum(r.classes for r in results)))
    assert outcomes[0] == outcomes[1]


def test_export_replay_generates_nothing(export_bench):
    job = wl.export_jobs(export_bench.catalog_dir)[-1]
    assert job.key == "saddle-connection-n4:diagram-json"
    result = export_bench.run_job(job, traced=True)
    assert result.error is None
    assert "generate.maps_s" not in result.layers
    assert result.layers["combmap.codes"] == 0
    assert result.layers["realize.diagrams"] == 165
