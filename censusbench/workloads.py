"""Workloads of the census benchmark: job lists, expected results, checks.

A job is one ``python -m sphereflows ...`` call.  Every job's output is
checked here, and a job that fails a check counts toward ``failed_ratio``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# Class counts written by hand from sources outside this program.  Unsensed
# map classes: Liskovets 1981, OEIS A006384; sensed map classes
# (--no-reflections): OEIS A000087.  Flow classes: the README "Census
# errata" values, confirmed there by exhaustive isomorphism search (the
# permutation oracle in tests/oracles.py) and by the duality bijection.
EXPECTED_COUNTS = {
    "maps-e1": 2, "maps-e2": 4, "maps-e3": 14, "maps-e4": 52, "maps-e5": 248,
    "maps-e4-nr": 57, "maps-e5-nr": 312,
    "saddle-node-n1": 2, "saddle-node-n2": 10, "saddle-node-n3": 52,
    "saddle-node-n4": 326, "saddle-node-n3-nr": 64,
    "saddle-connection-n2": 4, "saddle-connection-n3": 24,
    "saddle-connection-n4": 165,
}

WORKLOADS = ("census", "crosscheck", "export")

# the catalogs the export workload reads, built untimed during set-up
EXPORT_CATALOGS = ("maps-e5", "saddle-node-n4", "saddle-connection-n4")
EXPORT_FORMATS = {"maps-e5": ("json", "dot"),
                  "saddle-node-n4": ("json", "dot", "diagram-json"),
                  "saddle-connection-n4": ("json", "dot", "diagram-json")}
LOOKUP_HITS = 4
LOOKUP_MISSES = 2


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One CLI call and what its output must be.

    ``check`` is ``catalog``, ``report``, ``export``, ``hit`` or ``miss``;
    ``key`` names the reference value (a catalog key, an export key, or for
    lookups the catalog key and the token).
    """

    name: str
    args: tuple
    check: str
    key: str
    out: str
    token: str = ""


def _catalog_job(args: str, key: str, out: str) -> Job:
    return Job(args, tuple(args.split()), "catalog", key, out)


def _maps(e: int, flags: str = "", nr: bool = False) -> Job:
    args = f"maps {e}" + (" --no-reflections" if nr else "") + flags
    return _catalog_job(args, f"maps-e{e}" + ("-nr" if nr else ""),
                       f"maps-e{e}.json")


def _bif(kind: str, n: int, nr: bool = False) -> Job:
    args = f"bifurcations {kind} {n}" + (" --no-reflections" if nr else "")
    return _catalog_job(args, f"{kind}-n{n}" + ("-nr" if nr else ""),
                       f"bifurcations-{kind}-n{n}.json")


def _report(flags: str = "") -> Job:
    args = "verify-paper" + flags
    return Job(args, tuple(args.split()), "report", "paper-census",
               "paper-census.json")


def census_jobs() -> list:
    """Every catalog and the report, default flags: the product as run."""
    return ([_maps(e) for e in range(1, 6)]
            + [_bif("saddle-node", n) for n in range(1, 5)]
            + [_bif("saddle-connection", n) for n in range(2, 5)]
            + [_report()])


def crosscheck_jobs() -> list:
    """Determinism across strategy, --jobs and reflection mode."""
    return [_maps(4, " --strategy brute --jobs 1"),
            _maps(4, " --strategy brute --jobs 2"),
            _maps(5, " --jobs 2"),
            _report(" --jobs 2"),
            _maps(5, nr=True),
            _bif("saddle-node", 4, nr=True),
            _bif("saddle-connection", 4, nr=True)]


def setup_jobs() -> list:
    """The untimed catalog builds the export workload reads."""
    return [_maps(5), _bif("saddle-node", 4), _bif("saddle-connection", 4)]


def export_jobs(catalog_dir: Path) -> list:
    """Whole-catalog re-serialization in every format the catalog allows."""
    jobs = []
    for key in EXPORT_CATALOGS:
        for fmt in EXPORT_FORMATS[key]:
            path = catalog_dir / f"{key}.json"
            jobs.append(Job(f"export {key} --format {fmt}",
                            ("export", str(path), "--format", fmt,
                             "--out", "out"), "export", f"{key}:{fmt}", "out"))
    return jobs


def lookup_jobs(rng: random.Random, catalog_dir: Path, codes: dict) -> list:
    """Seeded single-entry ``--code`` lookups, hits and misses.

    ``codes`` maps each export catalog key to its entry codes.  A miss asks
    one catalog for a code of another; the catalogs share no code because
    their kinds or edge counts differ.
    """
    jobs = []
    for hit in [True] * LOOKUP_HITS + [False] * LOOKUP_MISSES:
        key = rng.choice(EXPORT_CATALOGS)
        fmt = rng.choice(EXPORT_FORMATS[key])
        if hit:
            token = rng.choice(codes[key])
        else:
            other = rng.choice([k for k in EXPORT_CATALOGS if k != key])
            token = rng.choice(codes[other])
        path = catalog_dir / f"{key}.json"
        kind = "hit" if hit else "miss"
        jobs.append(Job(f"export --code {kind} --format {fmt}",
                        ("export", str(path), "--code", token, "--format", fmt,
                         "--out", "out"), kind, f"{key}:{fmt}", "out", token))
    return jobs


def split_dot(text: str) -> dict:
    """Per-entry blocks of a DOT export, keyed by entry code."""
    blocks = {}
    for block in text.split("\n}\n"):
        if block:
            code = block.split('"', 2)[1]
            blocks[code] = block + "\n}\n"
    return blocks


def export_items(fmt: str, text: str) -> dict:
    """The exported entries of one output, keyed by code."""
    if fmt == "dot":
        return split_dot(text)
    return {item["code"]: item for item in json.loads(text)}


def export_digest(fmt: str, text: str) -> str:
    """Digest of an export: of the parsed document for JSON formats, so
    indentation does not count, and of the text for DOT."""
    if fmt == "dot":
        return hashlib.sha256(text.encode()).hexdigest()
    return digest(json.loads(text))


class CheckError(Exception):
    """A job's exit code or output differs from the expected one."""


def check_job(job: Job, returncode: int, job_dir: Path, stderr: str,
              expected_items: dict | None = None) -> int:
    """Check one finished job; returns the classes it wrote or exported.

    ``expected_items`` maps ``catalog:format`` to the entries of the
    reference whole-catalog export, for checking single-entry lookups.
    Raises ``CheckError`` on any difference.
    """
    if job.check == "miss":
        lines = stderr.strip().splitlines()
        if returncode != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
            raise CheckError(f"miss: exit {returncode}, stderr {stderr!r}")
        if (job_dir / job.out).exists():
            raise CheckError("miss wrote an output file")
        return 0
    if returncode != 0:
        raise CheckError(f"exit code {returncode}: {stderr.strip()[-200:]}")
    path = job_dir / job.out
    if not path.exists():
        raise CheckError(f"no output file {job.out}")
    text = path.read_text()
    if job.check == "catalog":
        entries = json.loads(text)["entries"]
        expected = EXPECTED_COUNTS.get(job.key)
        if expected is not None and len(entries) != expected:
            raise CheckError(f"{job.key}: {len(entries)} entries, expected {expected}")
        if digest(entries) != REFERENCE["catalogs"][job.key]:
            raise CheckError(f"{job.key}: entries digest mismatch")
        return len(entries)
    if job.check == "report":
        doc = json.loads(text)
        if digest({"rows": doc["rows"], "parity": doc["parity"]}) \
                != REFERENCE["reports"][job.key]:
            raise CheckError(f"{job.key}: rows/parity digest mismatch")
        return len(doc["rows"])
    fmt = job.key.split(":")[1]
    items = export_items(fmt, text)
    if job.check == "export":
        if export_digest(fmt, text) != REFERENCE["exports"][job.key]:
            raise CheckError(f"{job.key}: export digest mismatch")
        return len(items)
    if items != {job.token: expected_items[job.key][job.token]}:
        raise CheckError(f"{job.key}: lookup of {job.token} differs")
    return 1
