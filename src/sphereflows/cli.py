"""Command line front end: deterministic catalogs, census report, exports.

Exit codes: 0 on success, 2 on usage errors (bad arguments, unknown codes,
unsupported formats, out-of-range counts, unreadable catalogs or codes,
unwritable output paths), 1 when an enumerated object fails its own
structural checks or standard output closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from . import catalog as cat
from .generate import (MAX_EDGES, MIN_EDGES, EdgeCountOutOfRangeError,
                       GenerationConfig)
from .marks import (MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES,
                    SaddleCountOutOfRangeError)


class UsageError(Exception):
    pass


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"wrote {path}")


class _Parser(argparse.ArgumentParser):
    """A bad flag or argument exits 2 with one ``error:`` line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def _common_flags(sub):
    sub.add_argument("--no-reflections", action="store_true",
                     help="distinguish mirror images (default identifies them)")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="accepted for compatibility, at least 1; changes nothing")
    sub.add_argument("--out", type=Path, default=None, metavar="PATH",
                     help="output file (default depends on the subcommand)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sphereflows",
        description="Catalogs of spherical maps and the codimension-1 "
                    "gradient flows they encode.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_maps = subs.add_parser(
        "maps", help="catalog of all maps with a given edge count")
    p_maps.add_argument("edges", type=int,
                        help=f"number of edges ({MIN_EDGES}..{MAX_EDGES})")
    p_maps.add_argument("--strategy", choices=("grow", "brute"),
                        default="grow",
                        help="generation strategy (both give identical output)")
    _common_flags(p_maps)
    p_maps.set_defaults(run=cmd_maps)

    p_bif = subs.add_parser(
        "bifurcations", help="catalog of marked maps of one bifurcation kind")
    p_bif.add_argument("kind", choices=("saddle-node", "saddle-connection"))
    p_bif.add_argument("saddles", type=int,
                       help=f"saddle count (saddle-node {SN_MIN_SADDLES}.."
                            f"{MAX_SADDLES}, saddle-connection "
                            f"{T_MIN_SADDLES}..{MAX_SADDLES})")
    _common_flags(p_bif)
    p_bif.set_defaults(run=cmd_bifurcations)

    p_ver = subs.add_parser(
        "verify-paper",
        help=f"run every census up to {cat.PAPER_MAX_SADDLES} saddles and "
             "compare with the published classification")
    _common_flags(p_ver)
    p_ver.set_defaults(run=cmd_verify_paper)

    p_exp = subs.add_parser("export", help="re-serialize catalog entries")
    p_exp.add_argument("catalog", type=Path, help="catalog JSON file")
    p_exp.add_argument("--code", default=None, metavar="TOKEN",
                       help="export a single entry instead of the whole catalog")
    p_exp.add_argument("--format", required=True,
                       choices=("json", "dot", "diagram-json"))
    p_exp.add_argument("--out", type=Path, default=None, metavar="PATH")
    p_exp.set_defaults(run=cmd_export)
    return parser


def cmd_maps(args) -> int:
    cfg = GenerationConfig(args.edges, not args.no_reflections, args.jobs)
    catalog = cat.build_map_catalog(cfg, args.strategy)
    out = args.out or Path(f"maps-e{args.edges}.json")
    _write(out, catalog.dumps())
    print(f"{len(catalog.entries)} maps with {args.edges} edge(s)")
    hist = Counter(e.degree_sequence for e in catalog.entries)
    print("degree sequence      maps")
    for seq, count in sorted(hist.items()):
        print(f"{str(seq):<20} {count}")
    return 0


def cmd_bifurcations(args) -> int:
    catalog = cat.build_bifurcation_catalog(
        args.kind, args.saddles, not args.no_reflections)
    out = args.out or Path(f"bifurcations-{args.kind}-n{args.saddles}.json")
    _write(out, catalog.dumps())
    print(f"{len(catalog.entries)} {args.kind} classes with "
          f"{args.saddles} saddle(s)")
    print(f"{'code':<44} {'mark':<12} points")
    for e in catalog.entries:
        mark = f"{e.mark['kind']}@{e.mark['dart']}"
        points = " ".join(f"{k}={v}" for k, v in sorted(e.singular_points.items()))
        label = f"  [{e.paper_label}]" if e.paper_label else ""
        print(f"{e.code:<44} {mark:<12} {points}{label}")
    return 0


def cmd_verify_paper(args) -> int:
    report = cat.build_census_report(not args.no_reflections)
    out = args.out or Path("paper-census.json")
    _write(out, report.dumps())
    print(report.to_text(), end="")
    return 0


def cmd_export(args) -> int:
    try:
        catalog = cat.Catalog.loads(args.catalog.read_text())
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read catalog {args.catalog}: {exc}") from exc
    if args.code is not None:
        try:
            entries = [catalog.entry(args.code)]
        except cat.UnknownCodeError as exc:
            raise UsageError(f"code not in catalog: {args.code}") from exc
    else:
        entries = list(catalog.entries)
    try:
        text = cat.export_entries(entries, args.format)
    except ValueError as exc:
        # an unsupported format, or an entry whose code is not a valid map
        raise UsageError(str(exc)) from exc
    suffix = {"json": "export.json", "dot": "export.dot",
              "diagram-json": "diagrams.json"}[args.format]
    out = args.out or args.catalog.with_name(f"{args.catalog.stem}-{suffix}")
    _write(out, text)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        status = args.run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # stdout closed: devnull takes the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, EdgeCountOutOfRangeError,
            SaddleCountOutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cat.InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
