"""Census benchmark: cold ``sphereflows`` CLI jobs, end to end and per layer.

    python3 censusbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One client runs one job at a time
(a closed loop); each job is a fresh ``python -m sphereflows ...`` process
on inputs this script makes, and its output is checked.  Jobs run in whole
passes, each pass holding every job of the workload once in a seeded
order, until the next pass would end after ``--seconds``.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` every job also runs a second time as a traced
replay (``replay.py``) and the result holds the per-layer metrics.  The
line before it is a record of the run: environment, sample counts, the
tail percentile, failures.  Both are also written under ``.censusbench/``
in the checkout, with the spans of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".censusbench"

SETUP_REPEATS = 11
JOB_TIMEOUT_S = 60

END_TO_END = {"classes_per_s": "1/s", "job_s.p50": "s", "job_s.tail": "s",
              "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metrics; "_s" times are self time per pass unless noted
PER_LAYER = {
    "cli.import_s": "s",            # per job
    "cli.other_s": "s",
    "generate.maps_s": "s",         # whole calls, see job_layers
    "generate.maps_s.grow.j1": "s",
    "generate.maps_s.grow.j2": "s",
    "generate.maps_s.brute.j1": "s",
    "generate.maps_s.brute.j2": "s",
    "generate.classes": "count",
    "combmap.code_s": "us",         # per canonical code, whole run
    "combmap.codes": "count",
    "combmap.validate_s": "s",
    "combmap.from_token_s": "s",
    "marks.enumerate_s": "s",
    "marks.census_s": "s",
    "marks.candidates": "count",
    "marks.classes": "count",
    "marks.yield": "ratio",         # classes / candidates, whole run
    "marks.from_code_s": "s",
    "realize.realize_s": "s",
    "realize.check_s": "s",
    "realize.diagrams": "count",
    "realize.issues": "count",
    "catalog.build_s": "s",
    "catalog.dumps_s": "s",
    "catalog.bytes": "B",
    "catalog.loads_s": "s",
    "catalog.lookup_s": "s",
    "catalog.export_s.json": "s",
    "catalog.export_s.dot": "s",
    "catalog.export_s.diagram-json": "s",
    "trace.overhead_s": "s",        # traced minus untraced wall
}

SELF_TIME_METRIC = {
    "combmap.validate": "combmap.validate_s",
    "combmap.from_token": "combmap.from_token_s",
    "marks.enumerate": "marks.enumerate_s",
    "marks.census": "marks.census_s",
    "marks.from_code": "marks.from_code_s",
    "realize.realize": "realize.realize_s",
    "realize.check": "realize.check_s",
    "catalog.build": "catalog.build_s",
    "catalog.dumps": "catalog.dumps_s",
    "catalog.loads": "catalog.loads_s",
    "catalog.lookup": "catalog.lookup_s",
}


class SetupError(Exception):
    """The benchmark cannot start: no program, or set-up output is wrong."""


# ---------------------------------------------------------------------------
# processes

@dataclass
class Proc:
    """One finished child process; CPU and max-RSS include its own children."""

    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv, cwd: Path, env: dict) -> Proc:
    """Run ``argv`` to completion and collect its rusage with ``os.wait4``.

    The child leads its own process group, so a job that outlives
    ``JOB_TIMEOUT_S`` is killed together with its pool workers.
    """
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(JOB_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))


@dataclass
class Launcher:
    """How jobs start: the interpreter, its environment and the argv prefix."""

    env: dict
    prefix: list
    replay: list = field(default_factory=list)

    def cli(self, args, cwd: Path) -> Proc:
        return spawn(self.prefix + list(args), cwd, self.env)

    def traced(self, args, cwd: Path, spans_path: Path) -> Proc:
        return spawn(self.replay + [str(spans_path)] + list(args), cwd, self.env)


def find_package() -> Path:
    """The ``sphereflows`` package of this checkout, imported from ``src``."""
    src = ROOT / "src"
    if not (src / "sphereflows" / "__init__.py").is_file():
        raise SetupError(f"no sphereflows source under {src}")
    sys.path.insert(0, str(src))
    import sphereflows

    pkg = Path(sphereflows.__file__).resolve().parent
    if pkg.parent != src.resolve():
        raise SetupError(f"imported sphereflows from {pkg}, not from {src}")
    return pkg


def make_launcher(pkg: Path) -> Launcher:
    # an absolute PYTHONPATH, so jobs find the package from any directory
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    return Launcher(env, [sys.executable, "-m", "sphereflows"],
                    [sys.executable, str(BENCH_DIR / "replay.py")])


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# statistics

def percentile(sorted_values, p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(samples) -> dict:
    """The highest percentile with ten samples beyond it, 100 - 1000 / n;
    the median when there are fewer than twenty samples."""
    n = len(samples)
    p = max(50.0, 100 - 1000 / n)
    values = sorted(samples)
    value = percentile(values, p)
    return {"percentile": p, "value": value, "n": n,
            "beyond": sum(v > value for v in values)}


# ---------------------------------------------------------------------------
# jobs

@dataclass
class JobResult:
    job: wl.Job
    proc: Proc
    classes: int
    error: str | None
    traced: bool = False
    layers: dict = field(default_factory=dict)


class Bench:
    """Runs the jobs of one workload and keeps every result and span."""

    def __init__(self, workload: str, seed: int, launcher: Launcher, work: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.launcher = launcher
        self.work = work
        self.catalog_dir = work / "catalogs"
        self.expected_items = {}
        self.codes = {}
        self.setup_s = []
        self.spans = []

    def check(self, job: wl.Job, proc: Proc, job_dir: Path):
        try:
            classes = wl.check_job(job, proc.returncode, job_dir, proc.stderr,
                                   self.expected_items)
        except Exception as exc:  # a wrong output must not stop the run
            return 0, f"{type(exc).__name__}: {exc}"
        return classes, None

    def run_job(self, job: wl.Job, traced: bool = False) -> JobResult:
        job_dir = fresh_dir(self.work / "job")
        if not traced:
            proc = self.launcher.cli(job.args, job_dir)
            return JobResult(job, proc, *self.check(job, proc, job_dir))
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)
        proc = self.launcher.traced(job.args, job_dir, spans_path)
        classes, error = self.check(job, proc, job_dir)
        layers = {}
        try:
            doc, trailer = spans_path.read_text().splitlines()
            doc = json.loads(doc)
            layers = job_layers(doc, proc.wall_s, json.loads(trailer)["write_s"])
            self.spans.append({"job": len(self.spans), "name": job.name,
                               "spans": doc["spans"]})
        except (OSError, ValueError, KeyError) as exc:
            error = error or f"no trace: {type(exc).__name__}: {exc}"
        return JobResult(job, proc, classes, error, True, layers)

    def setup(self) -> None:
        """Cold start timings, and for ``export`` its catalogs."""
        job_dir = fresh_dir(self.work / "job")
        for i in range(SETUP_REPEATS + 1):
            proc = self.launcher.cli(["--help"], job_dir)
            if proc.returncode != 0 or "usage:" not in proc.stdout:
                raise SetupError(f"sphereflows --help failed: {proc.stderr[-500:]}")
            if i:  # the first run also writes the bytecode cache
                self.setup_s.append(proc.wall_s)
        if self.workload == "export":
            self.setup_export()

    def setup_export(self) -> None:
        fresh_dir(self.catalog_dir)
        for job in wl.setup_jobs():
            result = self.run_job(job)
            if result.error:
                raise SetupError(f"set-up job {job.name}: {result.error}")
            path = self.catalog_dir / f"{job.key}.json"
            shutil.copy(self.work / "job" / job.out, path)
            entries = json.loads(path.read_text())["entries"]
            self.codes[job.key] = [e["code"] for e in entries]
        for job in wl.export_jobs(self.catalog_dir):
            result = self.run_job(job)
            if result.error:
                raise SetupError(f"set-up job {job.name}: {result.error}")
            fmt = job.key.split(":")[1]
            text = (self.work / "job" / job.out).read_text()
            self.expected_items[job.key] = wl.export_items(fmt, text)

    def pass_jobs(self) -> list:
        if self.workload == "census":
            jobs = wl.census_jobs()
        elif self.workload == "crosscheck":
            jobs = wl.crosscheck_jobs()
        else:
            jobs = (wl.export_jobs(self.catalog_dir)
                    + wl.lookup_jobs(self.rng, self.catalog_dir, self.codes))
        self.rng.shuffle(jobs)
        return jobs

    def run(self, seconds: float, trace: bool) -> list:
        """Whole passes until the next one would end after ``seconds``."""
        passes = []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes
            results = []
            for job in self.pass_jobs():
                if not trace:
                    results.append(self.run_job(job))
                    continue
                # alternate which twin runs first, so neither always warms
                # the page cache for the other
                order = (False, True) if len(passes) % 2 == 0 else (True, False)
                results.extend(self.run_job(job, traced) for traced in order)
            passes.append(results)


# ---------------------------------------------------------------------------
# traced jobs

def durations(spans) -> list:
    """Busy time of each span; an aggregate span carries its own sum."""
    return [info["busy_s"] if isinstance(info, dict) and "busy_s" in info
            else end - start for _, start, end, _, info in spans]


def self_times(spans, busy) -> list:
    own = list(busy)
    for span, d in zip(spans, busy):
        if span[3] >= 0:
            own[span[3]] -= d
    return own


def job_layers(doc: dict, wall_s: float, write_s: float) -> dict:
    """Per-layer sums of one traced job.

    ``generate.maps_s`` is the whole duration of the outermost
    ``generate_maps`` calls, validity checks and codes included, because
    that is what ``--jobs`` and the strategy change.  The other layer times
    are self times.  ``cli.other_s`` is the job's wall time minus its import,
    the benchmark's own bookkeeping and the self time of every non-cli
    layer: interpreter start and exit, argument parsing, printing and the
    file write.
    """
    spans = doc["spans"]
    busy = durations(spans)
    own = self_times(spans, busy)
    out = defaultdict(float)
    generated = {}
    layer_self = 0.0
    bench_s = write_s
    for (name, _, _, parent, info), d, self_s in zip(spans, busy, own):
        if name == "cli.import":
            out["cli.import_s"] += d
            continue
        if name == "bench.install":
            bench_s += d
            continue
        if name == "cli.main":
            continue
        layer_self += self_s
        if name in SELF_TIME_METRIC:
            out[SELF_TIME_METRIC[name]] += self_s
        if name == "generate.maps":
            e, reflect, strategy = info["key"]
            generated[(e, reflect, strategy)] = info["classes"]
            if parent < 0 or spans[parent][0] != "generate.maps":
                out["generate.maps_s"] += d
                out[f"generate.maps_s.{strategy}.j{info['jobs']}"] += d
        elif name == "combmap.code":
            out["combmap.code_total_s"] += d
            out["combmap.codes_main"] += info["calls"]
        elif name == "marks.enumerate":
            out["marks.candidates"] += info["candidates"]
            out["marks.classes"] += info["classes"]
        elif name == "realize.realize":
            out["realize.diagrams"] += 1
        elif name == "realize.check":
            out["realize.issues"] += info
        elif name == "catalog.dumps":
            out["catalog.bytes"] += info
        elif name == "catalog.export":
            out[f"catalog.export_s.{info}"] += self_s
    out["generate.classes"] = sum(generated.values())
    out["combmap.codes"] = out["combmap.codes_main"] + doc["child_codes"]
    out["cli.other_s"] = wall_s - out["cli.import_s"] - bench_s - layer_self
    return dict(out)


def layer_metrics(passes) -> dict:
    """Per-layer metrics: medians over passes of per-pass sums."""
    traced = [[r for r in results if r.traced] for results in passes]
    per_pass = []
    for results in traced:
        sums = defaultdict(float)
        for r in results:
            for key, value in r.layers.items():
                sums[key] += value
        per_pass.append(sums)
    out = {}
    for name in PER_LAYER:
        out[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
    all_jobs = [r for results in traced for r in results]
    out["cli.import_s"] = statistics.median(
        r.layers.get("cli.import_s", 0.0) for r in all_jobs)
    codes = sum(r.layers.get("combmap.codes_main", 0) for r in all_jobs)
    code_s = sum(r.layers.get("combmap.code_total_s", 0.0) for r in all_jobs)
    out["combmap.code_s"] = code_s / codes * 1e6 if codes else 0.0
    candidates = sum(r.layers.get("marks.candidates", 0) for r in all_jobs)
    classes = sum(r.layers.get("marks.classes", 0) for r in all_jobs)
    out["marks.yield"] = classes / candidates if candidates else 0.0
    out["trace.overhead_s"] = statistics.median(
        sum(r.proc.wall_s * (1 if r.traced else -1) for r in results)
        for results in passes)
    return out


def overhead_by_job(passes) -> dict:
    """Median traced wall minus median untraced wall, per job type."""
    walls = defaultdict(lambda: ([], []))
    for results in passes:
        for r in results:
            walls[r.job.name][r.traced].append(r.proc.wall_s)
    return {name: statistics.median(t) - statistics.median(u)
            for name, (u, t) in sorted(walls.items()) if u and t}


# ---------------------------------------------------------------------------
# results

def end_to_end_metrics(passes, setup_s) -> dict:
    results = [r for results in passes for r in results]
    walls = [r.proc.wall_s for r in results]
    return {
        "classes_per_s": statistics.median(
            sum(r.classes for r in p) / sum(r.proc.wall_s for r in p)
            for p in passes),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail(walls)["value"],
        "cpu_s": statistics.median(sum(r.proc.cpu_s for r in p) for p in passes),
        "peak_rss_mb": max(r.proc.rss_mb for r in results),
        "setup_s": statistics.median(setup_s),
    }


def source_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(pkg)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(pkg: Path, args) -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_revision": git_revision(),
            "source_sha256": source_digest(pkg),
            "package": str(pkg),
            "seed": args.seed,
            "seconds": args.seconds}


def record(bench: Bench, passes, measured_s: float, args, pkg: Path) -> dict:
    results = [r for results in passes for r in results]
    walls = [r.proc.wall_s for r in results]
    failures = [f"{r.job.name}{' (traced)' if r.traced else ''}: {r.error}"
                for r in results if r.error]
    by_name = defaultdict(list)
    for r in results:
        if not r.traced:
            by_name[r.job.name].append(r.proc.wall_s)
    rec = {
        "benchmark": "censusbench",
        "workload": args.workload,
        "trace": bool(args.trace),
        "env": environment(pkg, args),
        "measured_s": measured_s,
        "passes": len(passes),
        "attempted": len(results),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(results),
        "failures": failures[:20],
        "job_s": {"p50": statistics.median(walls), "n": len(walls),
                  "tail": tail(walls)},
        "job_types": {name: {"n": len(w), "p50_s": statistics.median(w)}
                      for name, w in sorted(by_name.items())},
        "setup_s": bench.setup_s,
    }
    if args.trace:
        rec["trace_overhead_s"] = overhead_by_job(passes)
        rec["spans"] = sum(len(j["spans"]) for j in bench.spans)
    return rec


def write_outputs(bench: Bench, passes, rec: dict, result: dict, args) -> None:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = [{"pass": i, "name": r.job.name, "traced": r.traced,
             "wall_s": r.proc.wall_s, "cpu_s": r.proc.cpu_s,
             "rss_mb": r.proc.rss_mb, "classes": r.classes, "error": r.error}
            for i, results in enumerate(passes) for r in results]
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"record": rec, "result": result, "jobs": jobs}, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT_DIR / f"spans-{tag}.json.gz", "wt", compresslevel=1) as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent", "info"],
                       "jobs": bench.spans}, fh, separators=(",", ":"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = find_package()
    except (SetupError, ImportError) as exc:
        print(f"censusbench: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    work = fresh_dir(OUT_DIR / f"work-{os.getpid()}")
    try:
        bench = Bench(args.workload, args.seed, make_launcher(pkg), work)
        try:
            bench.setup()
        except SetupError as exc:
            print(f"censusbench: {exc}", file=sys.stderr)
            return 3
        start = perf_counter()
        passes = bench.run(args.seconds, bool(args.trace))
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec = record(bench, passes, measured_s, args, pkg)
    if args.trace:
        metrics, units = layer_metrics(passes), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(passes, bench.setup_s), END_TO_END
    result = {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
              "failed": rec["failed"],
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    write_outputs(bench, passes, rec, result, args)
    print(json.dumps(rec))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
