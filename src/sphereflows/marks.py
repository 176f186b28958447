"""Marked spherical maps: the three selections that encode a codimension-1 flow.

A map with E edges stands for the Morse flow whose sources are the vertices,
saddles the edge interiors and sinks the faces.  The degenerate flows are
encoded by one extra selection:

* ``SourceMark`` -- an edge together with one endpoint (the saddle merging
  into a source); stored as the dart leaving that endpoint.
* ``SinkMark`` -- an edge together with one of its faces (the saddle merging
  into a sink); stored as the dart whose left face is the chosen one.
* ``TMark`` -- a vertex whose marked dart is the perpendicular leg of the
  letter T (a saddle connection); the other two darts are the collinear pair.

Each kind states once, in ``why_illegal(m, d)``, where it may sit.

Under orientation reversal a dart keeps its edge and endpoint but its left
and right faces swap, so a sink mark transports to the partner dart
``d ^ 1`` when the reversed rotation is traced.  Source and T marks
transport unchanged.  This convention is what makes duality carry sink-mark
classes bijectively onto source-mark classes of the dual map.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from typing import NamedTuple

from .combmap import (CombinatorialMap, InvalidMarkError, MapMark, parse_token,
                      reached)
from .generate import MAX_EDGES, GenerationConfig, generate_maps

T_MIN_SADDLES = 2
SN_MIN_SADDLES = 1
# a saddle connection with n saddles lives on a map with n + 1 edges
MAX_SADDLES = MAX_EDGES - 1


class SaddleCountOutOfRangeError(ValueError):
    """Saddle count outside the supported range."""


class NotReversibleError(ValueError):
    """Flow reversal is only defined for saddle-node marks."""


class SourceMark(MapMark):
    """Selects edge(dart) and its endpoint vertex(dart)."""

    __slots__ = ()
    kind = "source"

    @staticmethod
    def why_illegal(m, d):
        if m.is_loop(d):
            return "a source mark cannot sit on a loop edge"


class SinkMark(MapMark):
    """Selects edge(dart) and face(dart)."""

    __slots__ = ()
    kind = "sink"

    @staticmethod
    def why_illegal(m, d):
        if m.is_bridge(d):
            return "a sink mark needs an edge bordering two distinct faces"

    def trace_value(self, labels, reflected):
        # reversal swaps the sides of the edge; the partner d ^ 1 designates
        # the same geometric face in the mirrored rotation system
        return labels[self.dart ^ 1] if reflected else labels[self.dart]


class TMark(MapMark):
    """Selects the perpendicular dart at a T-vertex; the two other darts
    there are the collinear pair, left implicit."""

    __slots__ = ()
    kind = "t"

    @staticmethod
    def why_illegal(m, d):
        orbit = m.vertex_orbits[m.vertex_index[d]]
        if len(orbit) != 3:
            return "a T-mark needs a vertex of degree 3"
        if any(map(m.is_loop, orbit)):
            return "a T-vertex must have no incident loop"


MARK_CLASSES = {c.kind: c for c in (SourceMark, SinkMark, TMark)}


class MarkedMap(namedtuple("MarkedMap", "map mark")):
    """A valid map with exactly one mark; encodes one codimension-1 flow."""

    __slots__ = ()

    def __new__(cls, map: CombinatorialMap, mark: MapMark):
        mark.validate_on(map)
        return super().__new__(cls, map, mark)

    @property
    def n_saddles(self) -> int:
        """Saddle count of the encoded flow: E for saddle-node marks, E-1 for T."""
        e = self.map.n_edges
        return e - 1 if self.mark.kind == "t" else e

    @property
    def n_singular_points(self) -> int:
        """Euler's ``V + F = E + 2`` cells less the one the mark merges or
        turns into the lower saddle, plus the saddles."""
        return self.map.n_edges + 1 + self.n_saddles

    def canonical_code(self, allow_reflection: bool = True):
        return self.map.canonical_code(self.mark, allow_reflection)


def marked_map_from_code(code) -> MarkedMap:
    """Rebuild the canonical representative of a marked-map class; ValueError
    unless the code's map is valid and its mark's kind and label are."""
    _, m, dart = parse_token(code.token(), {})
    if dart is None:
        raise ValueError("code carries no mark")
    return MarkedMap(m, MARK_CLASSES[code.mark[0]](dart))


def _mark_classes(m: CombinatorialMap, mark_cls, allow_reflection):
    """One marked map per class of the legal ``mark_cls`` marks on ``m``, by code.

    The marks share the map's one kernel run, so each dart costs only the
    least of its trace values over the map's automorphisms.  Codes of one
    kind on one map differ only in that value, so it keys and orders the
    classes; a marked map is built for the first dart of each class alone.
    """
    first = {}
    for d in range(m.n_darts):
        if mark_cls.why_illegal(m, d) is None:
            code = m.canonical_code(mark_cls(d), allow_reflection)
            first.setdefault(code.mark[1], d)
    return [MarkedMap(m, mark_cls(first[v])) for v in sorted(first)]


def enumerate_source_marks(m: CombinatorialMap, *, allow_reflection: bool = True):
    """One marked map per class of (m, source mark), ordered by code."""
    return _mark_classes(m, SourceMark, allow_reflection)


def enumerate_sink_marks(m: CombinatorialMap, *, allow_reflection: bool = True):
    """One marked map per class of (m, sink mark), ordered by code."""
    return _mark_classes(m, SinkMark, allow_reflection)


def _maps_for(kind: str, n_saddles: int, allow_reflection: bool):
    """The maps that carry the flows of a bifurcation kind with n saddles."""
    low, what = ((SN_MIN_SADDLES, "saddle-node flows") if kind == "saddle-node"
                 else (T_MIN_SADDLES, "saddle connections"))
    if not (low <= n_saddles <= MAX_SADDLES):
        raise SaddleCountOutOfRangeError(
            f"{what} need {low}..{MAX_SADDLES} saddles, got {n_saddles}")
    n_edges = n_saddles if kind == "saddle-node" else n_saddles + 1
    return generate_maps(GenerationConfig(n_edges, allow_reflection))


def enumerate_t_marks(n_saddles: int, *, allow_reflection: bool = True):
    """All saddle-connection flows with the given saddle count, one per class.

    The underlying maps have ``n_saddles + 1`` edges; the marked vertex is
    the lower saddle of the connection.  Maps come in code order and a
    marked code begins with its map's code, so the classes are in code order.
    """
    out = []
    for m in _maps_for("saddle-connection", n_saddles, allow_reflection):
        out += _mark_classes(m, TMark, allow_reflection)
    return out


def flow_classes(kind: str, n_saddles: int,
                 allow_reflection: bool = True) -> list:
    """Every flow of a bifurcation kind with n saddles, one per class, by code.

    ``kind`` is ``"saddle-node"`` (source and sink marks together) or
    ``"saddle-connection"`` (T marks).  On each map the source classes
    precede the sink classes, as their codes do.
    """
    if kind == "saddle-connection":
        return enumerate_t_marks(n_saddles, allow_reflection=allow_reflection)
    if kind != "saddle-node":
        raise ValueError(f"unknown bifurcation kind {kind!r}")
    out = []
    for m in _maps_for(kind, n_saddles, allow_reflection):
        out += enumerate_source_marks(m, allow_reflection=allow_reflection)
        out += enumerate_sink_marks(m, allow_reflection=allow_reflection)
    return out


def reverse(mm: MarkedMap) -> MarkedMap:
    """The reversed flow: the dual map with the mark of the opposite kind.

    Dart ids are stable under ``dual``, so a source mark at dart d becomes
    the sink mark at d designating the dual face that was the marked vertex,
    and vice versa.  An exact involution.  Saddle-connection flows are not
    handled; reversing them is out of scope.
    """
    if mm.mark.kind == "source":
        return MarkedMap(mm.map.dual(), SinkMark(mm.mark.dart))
    if mm.mark.kind == "sink":
        return MarkedMap(mm.map.dual(), SourceMark(mm.mark.dart))
    raise NotReversibleError("saddle-connection flows have no defined reversal")


# ---------------------------------------------------------------------------
# censuses

class SaddleNodeCensusRow(NamedTuple):
    map_code: str
    n_vertices: int
    n_faces: int
    n_source: int
    n_sink: int


class SaddleNodeCensus(NamedTuple):
    """Class counts of saddle-node flows with a given saddle count."""

    n_saddles: int
    singular_points: int
    rows: tuple
    total_source: int
    total_sink: int

    @property
    def total(self) -> int:
        return self.total_source + self.total_sink

    def source_by_vertex_count(self) -> dict:
        out: dict = {}
        for row in self.rows:
            out[row.n_vertices] = out.get(row.n_vertices, 0) + row.n_source
        return out


def saddle_node_census(n_saddles: int, *,
                       allow_reflection: bool = True) -> SaddleNodeCensus:
    """Count source- and sink-marked classes over all maps with n edges.

    The rows group :func:`flow_classes` by map.  Every map has a row: a
    non-loop edge carries source marks, and a loop, which borders two
    distinct faces, carries sink marks.
    """
    rows = []
    classes = flow_classes("saddle-node", n_saddles, allow_reflection)
    for m, group in groupby(classes, key=lambda mm: mm.map):
        kinds = [mm.mark.kind for mm in group]
        rows.append(SaddleNodeCensusRow(
            map_code=m.canonical_code(allow_reflection=allow_reflection).token(),
            n_vertices=m.n_vertices,
            n_faces=m.n_faces,
            n_source=kinds.count("source"),
            n_sink=kinds.count("sink"),
        ))
    return SaddleNodeCensus(
        n_saddles=n_saddles,
        singular_points=classes[0].n_singular_points,
        rows=tuple(rows),
        total_source=sum(r.n_source for r in rows),
        total_sink=sum(r.n_sink for r in rows),
    )


CONNECTED_AFTER_CUT = "perpendicular-cut-keeps-edges-connected"
FAR_SIDE_ONE_EDGE = "perpendicular-cut-far-side-1-edge"
FAR_SIDE_TWO_EDGES = "perpendicular-cut-far-side-2-edges"


def t_connection_category(mm: MarkedMap) -> str:
    """Where the perpendicular edge sits: cut it and look at the far side.

    Cutting the marked edge either leaves all remaining edges in one
    component (including the case of a pendant perpendicular edge), or
    separates a far component, away from the T-vertex, carrying one edge or
    two or more edges; the last bucket is named "2 edges" after the
    published census, where it holds exactly two for up to four saddles.
    The walk starts at the far end of the cut edge and never crosses it;
    it reaches the T-vertex exactly when the rest stays connected.
    """
    if mm.mark.kind != "t":
        raise InvalidMarkError("category applies to saddle-connection marks")
    m, p = mm.map, mm.mark.dart
    seen = reached(m.sigma, p ^ 1, {p})
    far_edges = len(seen) // 2 - 1
    if far_edges == 0 or m.sigma[p] in seen or m.sigma[m.sigma[p]] in seen:
        return CONNECTED_AFTER_CUT
    return FAR_SIDE_ONE_EDGE if far_edges == 1 else FAR_SIDE_TWO_EDGES


class SaddleConnectionCensus(NamedTuple):
    """Class counts of saddle-connection flows with a given saddle count."""

    n_saddles: int
    singular_points: int
    total: int
    by_category: dict


def saddle_connection_census(n_saddles: int, *,
                             allow_reflection: bool = True) -> SaddleConnectionCensus:
    classes = flow_classes("saddle-connection", n_saddles, allow_reflection)
    by_category = {CONNECTED_AFTER_CUT: 0, FAR_SIDE_ONE_EDGE: 0,
                   FAR_SIDE_TWO_EDGES: 0}
    for mm in classes:
        by_category[t_connection_category(mm)] += 1
    return SaddleConnectionCensus(
        n_saddles=n_saddles,
        singular_points=classes[0].n_singular_points,
        total=len(classes),
        by_category=by_category,
    )
