"""Catalogs, the census comparison report, and file exports.

Catalog files are single JSON documents with a schema version and entries
sorted by canonical code token, so they are stable, diffable artifacts.
:func:`json_text` writes them, the report and every JSON export byte for
byte as ``json.dumps(doc, indent=2, sort_keys=True)`` does, plus a newline;
a dict object held more than once is spelled once and its text repeated.
An export builds and checks each distinct map once, whatever the number of
its tokens, and equal diagram points and arcs share one dict.
The census report compares every computed class count with the value stated
in the published classification and never asserts: disagreements are
reported with per-category deltas and explanatory notes.
"""

from __future__ import annotations

import json
from collections import namedtuple
from importlib import resources
from typing import NamedTuple, Optional

from .combmap import CanonicalCode, CombinatorialMap, parse_token
from .generate import MIN_EDGES, GenerationConfig, generate_maps
from .marks import (CONNECTED_AFTER_CUT, FAR_SIDE_ONE_EDGE, FAR_SIDE_TWO_EDGES,
                    MARK_CLASSES, SN_MIN_SADDLES, T_MIN_SADDLES, MarkedMap,
                    enumerate_source_marks, flow_classes,
                    saddle_connection_census, saddle_node_census)
from .realize import Separatrix, SingularPoint, realize

SCHEMA_VERSION = 1

# the published census covers flows with up to four saddles (ten points)
PAPER_MAX_SADDLES = 4
# class counts stated by the published census (conclusion table plus the
# nine- and ten-point sub-breakdowns); keys of the flow table are numbers of
# singular points
PAPER_EXPECTED_MAPS = {1: 2, 2: 4, 3: 14, 4: 38}
PAPER_EXPECTED_FLOWS = {3: 2, 4: 0, 5: 10, 6: 4, 7: 56, 8: 20, 9: 217, 10: 160}
PAPER_EXPECTED_SN4 = {"high_vertex_source": 64, "three_vertex_source": 89}
PAPER_EXPECTED_SC4 = {CONNECTED_AFTER_CUT: 130, FAR_SIDE_TWO_EDGES: 16,
                      FAR_SIDE_ONE_EDGE: 14}


class UnknownCodeError(KeyError):
    """A code token does not resolve in the given catalog."""


class UnsupportedFormatError(ValueError):
    """An export format outside json / dot / diagram-json."""


class InternalInvariantError(RuntimeError):
    """An enumerated object failed its own structural checks."""


# ---------------------------------------------------------------------------
# the JSON writer

_scalar = json.JSONEncoder().encode
_string = json.encoder.encode_basestring_ascii


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte, for
    str-keyed dicts, lists, tuples, str, int, float, bool and None; the stdlib
    writes indented JSON in pure Python, this walks ``obj`` once.  A dict
    object met again at the same indentation is written once: its repeats
    copy the text of its first occurrence, so the bytes stay the stdlib's."""
    out = []
    _write(obj, "\n", out, {})
    return "".join(out) + "\n"


def _write(o, nl: str, out: list, spans: dict) -> None:
    """Append the fragments of ``o`` indented after line break ``nl`` to
    ``out``; ``spans`` maps ``(id, nl)`` of each non-empty dict written so
    far to its fragments' span in ``out``, or to their text once repeated.
    Every object lives for the whole call, so an id names one object."""
    t = type(o)
    if t is dict or t is list or t is tuple:
        put = out.append
        if not o:
            return put("{}" if t is dict else "[]")
        if t is dict:
            key = (id(o), nl)
            span = spans.get(key)
            if span is not None:
                if type(span) is tuple:
                    span = spans[key] = "".join(out[span[0]:span[1]])
                return put(span)
            start = len(out)
        inner = nl + "  "
        sep = ("{" if t is dict else "[") + inner
        for k in (sorted(o) if t is dict else o):
            head, v = (sep + _string(k) + ": ", o[k]) if t is dict else (sep, k)
            # strings and ints, most leaves, skip the call
            if type(v) is str:
                put(head + _string(v))
            elif type(v) is int:
                put(head + int.__repr__(v))
            else:
                put(head)
                _write(v, inner, out, spans)
            sep = "," + inner
        put(nl + ("}" if t is dict else "]"))
        if t is dict:
            spans[key] = (start, len(out))
    elif t in (str, int, float, bool) or o is None:
        out.append(_scalar(o))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def load_paper_labels() -> dict:
    """The hand-curated map from code tokens to published names."""
    text = resources.files("sphereflows.data").joinpath(
        "paper_labels.json").read_text()
    return json.loads(text)["labels"]


class CatalogEntry(namedtuple(
        "CatalogEntry", "code n_edges n_vertices n_faces degree_sequence "
                        "mark singular_points paper_label")):
    """One catalog line."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, d: dict) -> "CatalogEntry":
        points = d["singular_points"]
        if type(points) is not dict or not all(
                type(v) is int for v in points.values()):
            raise TypeError(f"entry singular_points {points!r} is not an "
                            "object of integer counts")
        values = {field: d[field] for field in cls._fields}
        if len(d) != len(values):
            raise TypeError(f"entry fields {sorted(d)} are not {cls._fields}")
        values["degree_sequence"] = tuple(values["degree_sequence"])
        return cls(**values)


def _mark_field(mark: Optional[tuple]) -> Optional[dict]:
    """A code's ``(kind, label)`` mark as a catalog entry spells it."""
    return None if mark is None else {"kind": mark[0], "dart": mark[1]}


def _entry(m: CombinatorialMap, code: CanonicalCode, labels: dict,
           singular_points: dict) -> CatalogEntry:
    """Catalog entry of ``m`` under its canonical code, marked or not."""
    token = code.token()
    return CatalogEntry(token, m.n_edges, m.n_vertices, m.n_faces,
                        m.degree_sequence(), _mark_field(code.mark),
                        singular_points, labels.get(token))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


class Catalog(NamedTuple):
    kind: str
    params: dict
    entries: tuple

    def to_json_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "catalog": self.kind,
            "params": dict(self.params),
            "entries": [e._asdict() for e in self.entries],
        }

    def dumps(self) -> str:
        return json_text(self.to_json_doc())

    @classmethod
    def loads(cls, text: str) -> "Catalog":
        """Parse a catalog file; ValueError unless it is one of this schema."""
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
            version = doc["schema_version"]
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema_version {version!r}")
            kind, params, entries = doc["catalog"], doc["params"], doc["entries"]
            if type(params) is not dict:
                raise TypeError(f"params {params!r} is not an object")
            # per kind: count key, mark kinds, edges an entry has beyond the count
            count, marks, extra = {
                "saddle-node": ("n_saddles", ["source", "sink"], 0),
                "saddle-connection": ("n_saddles", ["t"], 1),
                "maps": ("n_edges", [None], 0)}.get(kind, (None, [], 0))
            if (len(doc), set(params), type(entries)) != (
                    4, {count, "allow_reflection"}, list):
                raise TypeError(f"{kind!r} catalog keys {sorted(doc)}, params "
                                f"{sorted(params)} or entries are not the writer's")
            n, entries = params[count], tuple(map(CatalogEntry.from_dict, entries))
            if (type(n), type(params["allow_reflection"])) != (int, bool) or any(
                    e.n_edges != n + extra or (e.mark and type(e.mark) is dict and
                        e.mark["kind"]) not in marks for e in entries):
                raise TypeError(f"{kind!r} {params} are mistyped or not its entries'")
            return cls(kind, dict(params), entries)
        except (AttributeError, KeyError, RecursionError, TypeError) as exc:
            raise ValueError(f"malformed catalog: {exc!r}") from exc

    def entry(self, code: str) -> CatalogEntry:
        for e in self.entries:
            if e.code == code:
                return e
        raise UnknownCodeError(code)


def build_map_catalog(cfg: GenerationConfig, strategy: str = "grow") -> Catalog:
    """Map catalog; each entry's point summary is the map's Morse flow."""
    labels = load_paper_labels()
    entries = [_entry(m, m.canonical_code(allow_reflection=cfg.allow_reflection),
                      labels, {"source": m.n_vertices, "saddle": m.n_edges,
                               "sink": m.n_faces})
               for m in generate_maps(cfg, strategy)]
    return Catalog(
        kind="maps",
        params={"n_edges": cfg.n_edges, "allow_reflection": cfg.allow_reflection},
        entries=tuple(entries),
    )


def build_bifurcation_catalog(kind: str, n_saddles: int,
                              allow_reflection: bool = True) -> Catalog:
    """Marked-map catalog: both saddle-node kinds together, or T marks."""
    labels = load_paper_labels()
    entries = []
    for mm in flow_classes(kind, n_saddles, allow_reflection):
        code = mm.canonical_code(allow_reflection)
        diagram = realize(mm)
        issues = diagram.check()
        if issues or diagram.n_points != mm.n_singular_points:
            raise InternalInvariantError(
                f"diagram of {code.token()} violates invariants: {issues}")
        entries.append(_entry(mm.map, code, labels, diagram.point_counts()))
    return Catalog(
        kind=kind,
        params={"n_saddles": n_saddles, "allow_reflection": allow_reflection},
        entries=tuple(entries),
    )


def resolve(entry: CatalogEntry, maps: dict, labels: dict):
    """The code an entry's token names and its flow: the ``MarkedMap``, or
    ``(map, None)`` for an unmarked token.  ValueError unless the token is
    sound, its mark is legal on its map, the entry's ``mark`` field and
    cell counts are its map's and its ``paper_label`` is the token's in
    ``labels``.  ``maps`` caches built maps for ``parse_token``."""
    code, m, dart = parse_token(entry.code, maps)
    mark = entry.mark
    # the mark's dart is also spelled as an int, not as 0.0 or false
    if mark != _mark_field(code.mark) or mark and type(mark["dart"]) is not int:
        raise ValueError(
            f"entry mark {entry.mark} does not match its code {entry.code!r}")
    counts = (entry.n_edges, entry.n_vertices, entry.n_faces,
              entry.degree_sequence)
    # each count must also be spelled as an integer, not as 1.0 or true
    if counts != (m.n_edges, m.n_vertices, m.n_faces,
                  m.degree_sequence()) or not all(
            type(v) is int for v in (*counts[:3], *counts[3])):
        raise ValueError(
            f"entry counts {counts} do not match its code {entry.code!r}")
    if entry.paper_label != labels.get(entry.code):
        raise ValueError(f"entry paper_label {entry.paper_label!r} is not "
                         f"{labels.get(entry.code)!r}, the label of {entry.code!r}")
    return code, (m, None) if dart is None else MarkedMap(
        m, MARK_CLASSES[code.mark[0]](dart))


# ---------------------------------------------------------------------------
# census report

class ReportRow(NamedTuple):
    section: str
    label: str
    computed: int
    expected: Optional[int] = None
    note: str = ""

    @property
    def match(self) -> Optional[bool]:
        return None if self.expected is None else self.computed == self.expected

    def to_dict(self) -> dict:
        return {**self._asdict(), "match": self.match}


class CensusReport(NamedTuple):
    allow_reflection: bool
    rows: tuple
    parity: dict
    notes: tuple

    def to_json_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "catalog": "paper-census",
            "params": {"allow_reflection": self.allow_reflection},
            "rows": [r.to_dict() for r in self.rows],
            "parity": dict(self.parity),
            "notes": list(self.notes),
        }

    def dumps(self) -> str:
        return json_text(self.to_json_doc())

    def to_text(self) -> str:
        lines = []
        width = max(len(r.label) for r in self.rows) + 2
        current = None
        for r in self.rows:
            if r.section != current:
                current = r.section
                lines += ["", f"== {current} =="]
            if r.expected is None:
                status = "computed"
                exp = "-"
            else:
                status = "MATCH" if r.match else f"MISMATCH (delta {r.computed - r.expected:+d})"
                exp = str(r.expected)
            lines.append(f"{r.label:<{width}} computed {r.computed:>4}   "
                         f"published {exp:>4}   {status}")
        lines += ["", "== duality parity check (9 singular points) =="]
        for k, v in self.parity.items():
            lines.append(f"{k}: {v}")
        if self.notes:
            lines += ["", "== notes =="]
            for n in self.notes:
                lines.append(f"- {n}")
        return "\n".join(lines) + "\n"


def build_census_report(allow_reflection: bool = True) -> CensusReport:
    """Run every census the paper covers and compare with its table."""
    rows = []
    notes = []

    maps = {e: generate_maps(GenerationConfig(e, allow_reflection))
            for e in range(MIN_EDGES, PAPER_MAX_SADDLES + 2)}
    for e, maps_e in maps.items():
        rows.append(ReportRow("spherical maps", f"{e}-edge maps", len(maps_e),
                              PAPER_EXPECTED_MAPS.get(e)))
    if len(maps[4]) != PAPER_EXPECTED_MAPS[4]:
        notes.append(
            "the four-edge catalog is closed under duality and its rooted count "
            "matches the exact rooted-map enumeration; the published list of "
            "38 four-edge graphs is incomplete")

    sn = {n: saddle_node_census(n, allow_reflection=allow_reflection)
          for n in range(SN_MIN_SADDLES, PAPER_MAX_SADDLES + 1)}
    sc = {n: saddle_connection_census(n, allow_reflection=allow_reflection)
          for n in range(T_MIN_SADDLES, PAPER_MAX_SADDLES + 1)}

    flows = [(4, "flows with four singular points (impossible)", 0)] + [
        (c.singular_points, f"{kind} flows, {n} saddle{'s' if n > 1 else ''}",
         c.total)
        for kind, censuses in (("saddle-node", sn), ("saddle-connection", sc))
        for n, c in censuses.items()]
    for pts, label, computed in sorted(flows):
        rows.append(ReportRow("flows by singular points",
                              f"{pts} points: {label}", computed,
                              PAPER_EXPECTED_FLOWS[pts]))

    src_v = sn[4].source_by_vertex_count()
    high = sum(v for k, v in src_v.items() if k >= 4)
    for label, computed, expected in (
            ("source classes on maps with >= 4 vertices", high,
             PAPER_EXPECTED_SN4["high_vertex_source"]),
            ("source classes on maps with 3 vertices", src_v.get(3, 0),
             PAPER_EXPECTED_SN4["three_vertex_source"]),
            ("source classes, all maps", sn[4].total_source, None),
            ("sink classes, all maps", sn[4].total_sink, None),
            ("total, flow distinct from its reverse", sn[4].total, None),
            ("total, flow identified with its reverse", sn[4].total_source, None)):
        rows.append(ReportRow("9 points breakdown", label, computed, expected))

    for cat, label in (
            (CONNECTED_AFTER_CUT, "perpendicular edge keeps the rest connected"),
            (FAR_SIDE_TWO_EDGES, "perpendicular edge cuts off two edges"),
            (FAR_SIDE_ONE_EDGE, "perpendicular edge cuts off one edge")):
        rows.append(ReportRow("10 points breakdown", label,
                              sc[4].by_category[cat], PAPER_EXPECTED_SC4[cat]))

    # the census rows follow the maps in code order
    duality_ok = all(
        row.n_sink
        == len(enumerate_source_marks(m.dual(), allow_reflection=allow_reflection))
        for m, row in zip(maps[4], sn[4].rows))
    parity = {
        "source_classes": sn[4].total_source,
        "sink_classes": sn[4].total_sink,
        "per_map_duality_bijection_verified": duality_ok,
        "n_maps_checked": len(maps[4]),
    }

    if sn[3].total != PAPER_EXPECTED_FLOWS[7]:
        notes.append(
            f"7 points: computed {sn[3].total} = {sn[3].total_source} source + "
            f"{sn[3].total_sink} sink classes; exhaustive isomorphism search over "
            "the complete three-edge catalog confirms the source count")
    if sc[3].total != PAPER_EXPECTED_FLOWS[8]:
        nonsplit = sc[3].by_category[CONNECTED_AFTER_CUT]
        split = sc[3].total - nonsplit
        matched = "; the published 20 equals the first category"
        notes.append(
            f"8 points: computed {sc[3].total} = {nonsplit} classes whose "
            f"perpendicular edge keeps the rest connected plus {split} "
            "disconnecting classes"
            + matched * (nonsplit == PAPER_EXPECTED_FLOWS[8]))
    if sn[4].total != PAPER_EXPECTED_FLOWS[9]:
        notes.append(
            "9 points: duality pairs source and sink classes one to one, so the "
            "total is even; the published 217 is odd and unreachable under the "
            "mark-preserving equivalence")
    if sc[4].by_category[FAR_SIDE_TWO_EDGES] == PAPER_EXPECTED_SC4[FAR_SIDE_TWO_EDGES] \
            and sc[4].by_category[FAR_SIDE_ONE_EDGE] == PAPER_EXPECTED_SC4[FAR_SIDE_ONE_EDGE]:
        notes.append(
            "10 points: both disconnecting categories match the published 16 "
            "and 14 exactly; the delta sits in the connected category")
    flow_total = sum(r.computed for r in rows
                     if r.section == "flows by singular points")
    notes.append(
        "3 to 10 points: the published counts sum to "
        f"{sum(PAPER_EXPECTED_FLOWS.values())}, the abstract's total; "
        f"this run counts {flow_total} flows")

    return CensusReport(allow_reflection=allow_reflection, rows=tuple(rows),
                        parity=parity, notes=tuple(notes))


# ---------------------------------------------------------------------------
# exports

def entry_to_dot(entry: CatalogEntry, flow) -> str:
    """Undirected DOT graph; mark data in the attribute key ``mark``.

    No geometric embedding is implied: nodes are vertex orbits, one edge
    line per map edge.  ``flow`` is what ``resolve`` makes of the entry.
    """
    m, mark = flow
    marked = {}  # mark text by vertex name and by edge number
    if mark is not None:
        d = mark.dart
        v, f, e = f"v{m.vertex_index[d]}", f"f{m.face_index[d]}", d >> 1
        marked = {"source": {v: "source endpoint", e: f"source endpoint={v}"},
                  "sink": {e: f"sink face={f}"},
                  "t": {v: "t-vertex", e: f"t perpendicular, vertex={v}"}}[mark.kind]
    attr = {key: f', mark="{text}"' for key, text in marked.items()}
    lines = [f'graph "{entry.code}" {{']
    for i, orbit in enumerate(m.vertex_orbits):
        lines.append(f"  v{i} [degree={len(orbit)}{attr.get(f'v{i}', '')}];")
    for e in range(m.n_edges):
        lines.append(f"  v{m.vertex_index[2 * e]} -- v{m.vertex_index[2 * e + 1]}"
                     f" [edge={e}{attr.get(e, '')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_dict(mm: MarkedMap, records: dict) -> dict:
    """``mm``'s separatrix diagram as diagram-json spells it.  ``records``
    maps each record type to its records' dicts, so equal points and equal
    arcs share one dict, which the writer spells once."""
    dia = realize(mm)
    points = records.setdefault(SingularPoint, {})
    arcs = records.setdefault(Separatrix, {})
    return {
        "points": [points.get(p) or points.setdefault(p, {
            "id": p.id, "kind": p.kind,
            "origin": {"cell": p.origin[0], "dart": p.origin[1]}})
                   for p in dia.points],
        "separatrices": [arcs.get(a) or arcs.setdefault(a, {
            "from": a.source, "to": a.target, "anchor": a.anchor})
                         for a in dia.separatrices],
        "saddle_connection": list(dia.saddle_connection)
        if dia.saddle_connection else None,
    }


def export_entries(entries, fmt: str) -> str:
    """Serialize catalog entries as json, dot or diagram-json text.

    Every format first resolves each entry against the label file, so an
    invalid token, a mark that is illegal on its map, another label or a
    code that does not come after the previous entry's raises ValueError.
    Tokens of one map share its build and check, and the caches live for
    this call only.
    """
    maps, labels, flows, last = {}, load_paper_labels(), [], ()
    for e in entries:
        code, flow = resolve(e, maps, labels)
        flows.append(flow)
        if code.sort_key <= last:
            raise ValueError(f"entry {e.code!r} is repeated or out of code order")
        last = code.sort_key
    if fmt == "json":
        return json_text([e._asdict() for e in entries])
    if fmt == "dot":
        return "".join(map(entry_to_dot, entries, flows))
    if fmt == "diagram-json":
        doc, records = [], {}
        for e, mm in zip(entries, flows):
            if mm[1] is None:
                raise UnsupportedFormatError(
                    f"diagram-json needs marked entries; {e.code} has no mark")
            doc.append({"code": e.code, "diagram": diagram_to_dict(mm, records)})
        return json_text(doc)
    raise UnsupportedFormatError(f"unsupported export format {fmt!r}")
