"""Traced replay of one CLI job, run as a fresh worker process per job.

    python replay.py SPANS_FILE CLI_ARGS...

The worker imports ``sphereflows.cli``, wraps the public functions that one
layer calls in another with span recorders, runs ``cli.main`` on the job's
arguments and writes the spans to SPANS_FILE.  Nothing under ``src/``
changes: the wrappers replace module and class attributes in this process
only, so the job runs the same calls as ``python -m sphereflows``.

A span is ``[name, start, end, parent, info]``; a span's self time is its
duration minus that of its direct children.  The combmap functions are
called tens of thousands of times per job and call no other layer, so they
record one aggregate span per parent span instead of one per call: start
of the first call, end of the last, and ``{"calls": n, "busy_s": t}``.

``generate_maps`` caches its result per process: only the first call per
(edges, reflection, strategy) does work, and that call is a
``generate.maps`` span wherever it happens.  The later calls, from inside
marks or catalog functions, are short child spans, so the self time of
marks and catalog spans covers only their own layer.  This holds only
while the cache lives in ``generate_maps`` and is keyed that way.

Generation inside ``--jobs`` pool workers (forked from this process) is not
traced span by span.  It counts as self time of the ``generate_maps`` span
that waits for it; its canonical codes are counted in anonymous shared
memory, one slot per worker.
"""

from __future__ import annotations

# Only modules the interpreter has loaded at start-up are imported before
# the job's own import, so that ``cli.import`` times the job's real import.
import functools
import os
import sys
from time import perf_counter

CHILD_SLOTS = 64


class Tracer:
    """Spans kept in memory; recording is off in forked pool workers."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.active = True
        self.forks = 0
        self.child_codes = None

    def count_children(self):
        """Give each forked worker its own counter slot in a shared mapping.

        Slots are numbered in this process before each fork, so every slot
        has a single writer and needs no lock.
        """
        import mmap

        self.child_codes = memoryview(mmap.mmap(-1, 8 * CHILD_SLOTS)).cast("q")
        os.register_at_fork(before=self._before_fork, after_in_child=self._stop)

    def _before_fork(self):
        self.forks += 1

    def _stop(self):
        self.active = False

    def _open(self, name):
        rec = [name, perf_counter(), 0.0, self.stack[-1], None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()

    def run(self, name, fn, *args):
        rec = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def leaf(self, name, fn, count_in_children=False):
        """``fn`` adding each call to one aggregate span per parent span."""
        spans, stack, records = self.spans, self.stack, {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                if count_in_children:
                    self.child_codes[self.forks - 1] += 1
                return fn(*args, **kwargs)
            start = perf_counter()
            out = fn(*args, **kwargs)
            end = perf_counter()
            rec = records.get(stack[-1])
            if rec is None:
                rec = [name, start, end, stack[-1], {"calls": 0, "busy_s": 0.0}]
                records[stack[-1]] = rec
                spans.append(rec)
            rec[2] = end
            rec[4]["calls"] += 1
            rec[4]["busy_s"] += end - start
            return out

        return wrapper

    def wrap(self, name, fn, info=None):
        """``fn`` recording one span per call; ``info(args, kwargs, out)``
        gives the span's info once the span is closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return wrapper


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _generate_info(args, kwargs, out):
    cfg = args[0]
    strategy = _arg(args, kwargs, 1, "strategy", "auto")
    return {"key": [cfg.n_edges, cfg.allow_reflection,
                    "grow" if strategy == "auto" else strategy],
            "jobs": cfg.jobs, "classes": len(out)}


def _mark_info(kind):
    # the map or saddle count is resolved to a candidate count after the job
    def info(args, kwargs, out):
        reflect = _arg(args, kwargs, 1, "allow_reflection", True)
        return {"kind": kind, "arg": args[0], "reflect": reflect,
                "classes": len(out)}
    return info


def install(tracer: Tracer):
    """Wrap every cross-layer boundary the CLI reaches."""
    # the package re-exports the function ``realize`` under the name of its
    # module, so modules are taken from sys.modules
    names = ("", ".combmap", ".generate", ".marks", ".realize", ".catalog",
             ".cli")
    modules = [sys.modules["sphereflows" + n] for n in names]
    _, combmap, generate, marks, realize, catalog, _ = modules
    tracer.count_children()

    def function(module, attr, make):
        """Replace ``module.attr`` by ``make(fn)`` wherever it was imported."""
        fn = getattr(module, attr)
        wrapped = make(fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)

    def method(cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def span(name, info=None):
        return lambda fn: tracer.wrap(name, fn, info)

    def leaf(name, count_in_children=False):
        return lambda fn: tracer.leaf(name, fn, count_in_children)

    size = lambda args, kwargs, out: len(out)  # noqa: E731
    function(generate, "generate_maps", span("generate.maps", _generate_info))
    # generation's own validity filter, private and due to be removed
    if hasattr(generate, "_sigma_is_valid"):
        function(generate, "_sigma_is_valid", leaf("combmap.validate"))
    function(combmap, "canonical_code_for", leaf("combmap.code", True))
    method(combmap.CombinatorialMap, "validate", leaf("combmap.validate"))
    method(combmap.CanonicalCode, "from_token", leaf("combmap.from_token"))
    for kind in ("source", "sink", "t"):
        function(marks, f"enumerate_{kind}_marks",
                 span("marks.enumerate", _mark_info(kind)))
    function(marks, "saddle_node_census", span("marks.census"))
    function(marks, "saddle_connection_census", span("marks.census"))
    function(marks, "marked_map_from_code", span("marks.from_code"))
    function(realize, "realize", span("realize.realize"))
    method(realize.SeparatrixDiagram, "check", span("realize.check", size))
    for attr in ("build_map_catalog", "build_bifurcation_catalog",
                 "build_census_report"):
        function(catalog, attr, span("catalog.build"))
    method(catalog.Catalog, "dumps", span("catalog.dumps", size))
    method(catalog.CensusReport, "dumps", span("catalog.dumps", size))
    method(catalog.Catalog, "loads", span("catalog.loads"))
    method(catalog.Catalog, "entry", span("catalog.lookup"))
    function(catalog, "export_entries", span(
        "catalog.export", lambda args, kwargs, out: _arg(args, kwargs, 1, "fmt")))


def _candidates(kind, arg, reflect) -> int:
    """Marks an enumerator must consider: non-loop darts for a source mark,
    non-bridge darts for a sink mark, every dart at a loopless degree-3
    vertex for a T mark."""
    from sphereflows.generate import GenerationConfig, generate_maps

    if kind == "source":
        return sum(not arg.is_loop(d) for d in range(arg.n_darts))
    if kind == "sink":
        return sum(not arg.is_bridge(d) for d in range(arg.n_darts))
    total = 0
    for m in generate_maps(GenerationConfig(arg + 1, reflect)):
        for orbit in m.vertex_orbits:
            if len(orbit) == 3 and not any(m.alpha[d] in orbit for d in orbit):
                total += 3
    return total


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.run("cli.import", __import__, "sphereflows.cli")
    cli = sys.modules["sphereflows.cli"]
    tracer.run("bench.install", install, tracer)
    rc = 1
    try:
        rc = tracer.run("cli.main", cli.main, args)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        write_start = perf_counter()
        import json

        tracer.active = False
        for rec in tracer.spans:
            info = rec[4]
            if isinstance(info, dict) and "arg" in info:
                info["candidates"] = _candidates(info["kind"], info.pop("arg"),
                                                 info["reflect"])
        doc = {"rc": rc, "spans": tracer.spans,
               "child_codes": sum(tracer.child_codes),
               "write_start": write_start}
        with open(spans_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
            fh.write(json.dumps({"write_s": perf_counter() - write_start}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
