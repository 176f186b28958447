"""Marked spherical maps: the three selections that encode a codimension-1 flow.

A map with E edges stands for the Morse flow whose sources are the vertices,
saddles the edge interiors and sinks the faces.  The degenerate flows are
encoded by one extra selection:

* ``SourceMark`` -- a non-loop edge together with one endpoint (the saddle
  merging into a source); stored as the dart leaving that endpoint.
* ``SinkMark`` -- an edge together with one of its two faces, which must be
  distinct (the saddle merging into a sink); stored as the dart whose left
  face is the chosen one.
* ``TMark`` -- a degree-3 vertex with no incident loop whose marked dart is
  the perpendicular leg of the letter T (a saddle connection); the other
  two darts are the collinear pair.

Under orientation reversal a dart keeps its edge and endpoint but its left
and right faces swap, so a sink mark transports to the partner dart
``alpha(d)`` when the reversed rotation is traced.  Source and T marks
transport unchanged.  This convention is what makes duality carry sink-mark
classes bijectively onto source-mark classes of the dual map.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

from .combmap import CombinatorialMap, InvalidMarkError, MapMark
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
    """Selects edge(dart) and its endpoint vertex(dart); edge must not be a loop."""

    __slots__ = ()
    kind = "source"

    def validate_on(self, m):
        if m.is_loop(self.dart):
            raise InvalidMarkError("a source mark cannot sit on a loop edge")

    def trace_value(self, labels, alpha, reflected):
        return labels[self.dart]


class SinkMark(MapMark):
    """Selects edge(dart) and face(dart); the edge's two faces must differ."""

    __slots__ = ()
    kind = "sink"

    def validate_on(self, m):
        if m.is_bridge(self.dart):
            raise InvalidMarkError(
                "a sink mark needs an edge bordering two distinct faces")

    def trace_value(self, labels, alpha, reflected):
        # reversal swaps the sides of the edge; alpha(d) designates the same
        # geometric face in the mirrored rotation system
        return labels[alpha[self.dart]] if reflected else labels[self.dart]


class TMark(MapMark):
    """Selects the perpendicular dart at a T-vertex.

    The vertex must have degree 3 and no incident loop; the two remaining
    darts are the collinear pair, left implicit.
    """

    __slots__ = ()
    kind = "t"

    def validate_on(self, m):
        orbit = m.vertex_orbits[m.vertex_of(self.dart)]
        if len(orbit) != 3:
            raise InvalidMarkError("a T-mark needs a vertex of degree 3")
        if any(m.alpha[d] in orbit for d in orbit):
            raise InvalidMarkError("a T-vertex must have no incident loop")

    def trace_value(self, labels, alpha, reflected):
        return labels[self.dart]


Mark = SourceMark | SinkMark | TMark
MARK_CLASSES = {"source": SourceMark, "sink": SinkMark, "t": TMark}


class MarkedMap(namedtuple("MarkedMap", "map mark")):
    """A valid map with exactly one mark; encodes one codimension-1 flow."""

    __slots__ = ()

    def __new__(cls, map: CombinatorialMap, mark: Mark):
        mark.check_on(map)
        mark.validate_on(map)
        return super().__new__(cls, map, mark)

    @property
    def n_saddles(self) -> int:
        """Saddle count of the encoded flow: E for saddle-node marks, E-1 for T."""
        e = self.map.n_edges
        return e - 1 if self.mark.kind == "t" else e

    @property
    def n_singular_points(self) -> int:
        n = self.n_saddles
        return 2 * n + 2 if self.mark.kind == "t" else 2 * n + 1

    def canonical_code(self, allow_reflection: bool = True):
        return self.map.canonical_code(self.mark, allow_reflection)


def marked_map_from_code(code) -> MarkedMap:
    """Rebuild the canonical representative of a marked-map class."""
    if code.mark is None:
        raise ValueError("code carries no mark")
    kind, label = code.mark
    cls = MARK_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown mark kind {kind!r}")
    m = code.to_map()
    return MarkedMap(m, cls(m.relabel[label]))


def _mark_classes(m: CombinatorialMap, mark_cls, darts, allow_reflection):
    """One marked map per class of ``mark_cls`` marks on ``darts``, by code.

    The marks share the map's one kernel run, so each dart costs only the
    least of its trace values over the map's automorphisms; a marked map is
    built for the first dart of each class alone.
    """
    first = {}
    for d in darts:
        first.setdefault(m.canonical_code(mark_cls(d), allow_reflection), d)
    return [MarkedMap(m, mark_cls(first[code]))
            for code in sorted(first, key=attrgetter("sort_key"))]


def enumerate_source_marks(m: CombinatorialMap, *, allow_reflection: bool = True):
    """One marked map per class of (m, source mark), ordered by code."""
    darts = [d for d in range(m.n_darts) if not m.is_loop(d)]
    return _mark_classes(m, SourceMark, darts, allow_reflection)


def enumerate_sink_marks(m: CombinatorialMap, *, allow_reflection: bool = True):
    """One marked map per class of (m, sink mark), ordered by code."""
    darts = [d for d in range(m.n_darts) if not m.is_bridge(d)]
    return _mark_classes(m, SinkMark, darts, allow_reflection)


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
        darts = [p for orbit in m.vertex_orbits if len(orbit) == 3
                 and not any(m.alpha[d] in orbit for d in orbit) for p in orbit]
        out += _mark_classes(m, TMark, darts, allow_reflection)
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
        singular_points=2 * n_saddles + 1,
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
    seen = {p, m.alpha[p]}
    stack = [m.alpha[p]]
    while stack:
        d = stack.pop()
        for x in (m.sigma[d], m.alpha[d]):
            if x not in seen:
                seen.add(x)
                stack.append(x)
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
    classes = enumerate_t_marks(n_saddles, allow_reflection=allow_reflection)
    by_category = {CONNECTED_AFTER_CUT: 0, FAR_SIDE_ONE_EDGE: 0,
                   FAR_SIDE_TWO_EDGES: 0}
    for mm in classes:
        by_category[t_connection_category(mm)] += 1
    return SaddleConnectionCensus(
        n_saddles=n_saddles,
        singular_points=2 * n_saddles + 2,
        total=len(classes),
        by_category=by_category,
    )
