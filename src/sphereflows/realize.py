"""Separatrix diagrams of the flows encoded by marked maps.

The Morse flow behind an unmarked map has one source per vertex, one saddle
in the interior of every edge and one sink per face; each saddle receives
its two stable separatrices from the endpoints of its edge and sends its
two unstable ones into the faces on either side.

Marks degenerate this picture:

* a source mark contracts the saddle of the marked edge onto the marked
  endpoint, leaving a saddle-node of source type with three hyperbolic
  separatrices (one in from the far endpoint, two out into the adjacent
  faces); separatrices of other saddles that started at the merged vertex
  now emanate from the saddle-node's parabolic sector;
* a sink mark is the exact flow reversal of a source mark on the dual map
  and is realized that way;
* a T mark replaces nothing: the T-vertex itself is the lower saddle whose
  stable manifold is the collinear edge pair, the perpendicular edge
  carries the upper saddle in its interior, and the connection runs from
  the lower saddle into the upper one.

Every arc records the dart anchoring it on the input map, so diagrams are
deterministic and can be traced back cell by cell.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .combmap import CombinatorialMap, InvalidMarkError
from .marks import MarkedMap

SADDLE_NODE_KINDS = ("saddle-node-source", "saddle-node-sink")


class SingularPoint(NamedTuple):
    """A singular point of the realized flow.

    ``origin`` points back into the marked map: ``("vertex", d)``,
    ``("face", d)`` or ``("edge", d)`` with ``d`` the smallest dart of the
    orbit, or ``("mark", d)`` for the merged saddle-node.
    """

    id: int
    kind: str
    origin: tuple


class Separatrix(NamedTuple):
    """A directed separatrix arc; ``anchor`` is the dart it is read off."""

    source: int
    target: int
    anchor: int


class SeparatrixDiagram(NamedTuple):
    points: tuple
    separatrices: tuple
    saddle_connection: Optional[tuple] = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    def point_counts(self) -> dict:
        counts: dict = {}
        for p in self.points:
            counts[p.kind] = counts.get(p.kind, 0) + 1
        return counts

    def check(self) -> list:
        """All violated diagram invariants, empty when the diagram is sound."""
        issues = []
        kinds = {p.id: p.kind for p in self.points}
        indeg = {p.id: 0 for p in self.points}
        outdeg = {p.id: 0 for p in self.points}
        hyper_in = {p.id: 0 for p in self.points}
        hyper_out = {p.id: 0 for p in self.points}
        successors = {p.id: [] for p in self.points}
        for arc in self.separatrices:
            if arc.source not in kinds or arc.target not in kinds:
                issues.append(f"arc {arc} references an unknown point")
                continue
            successors[arc.source].append(arc.target)
            indeg[arc.target] += 1
            outdeg[arc.source] += 1
            if kinds[arc.source] != "saddle":
                hyper_in[arc.target] += 1
            if kinds[arc.target] != "saddle":
                hyper_out[arc.source] += 1
            if kinds[arc.source] == "sink" or kinds[arc.target] == "source":
                issues.append(f"arc {arc} leaves a sink or enters a source")
            if kinds[arc.source] == "source" and kinds[arc.target] == "sink":
                issues.append(f"arc {arc} joins a source to a sink directly")
        for p in self.points:
            if p.kind == "saddle":
                if indeg[p.id] != 2 or outdeg[p.id] != 2:
                    issues.append(
                        f"saddle {p.id} has {indeg[p.id]} in / {outdeg[p.id]} out")
            elif p.kind == "saddle-node-source":
                if hyper_in[p.id] != 1 or hyper_out[p.id] != 2:
                    issues.append(
                        f"saddle-node {p.id} has {hyper_in[p.id]}+{hyper_out[p.id]}"
                        " hyperbolic separatrices, wants 1+2")
            elif p.kind == "saddle-node-sink":
                if hyper_in[p.id] != 2 or hyper_out[p.id] != 1:
                    issues.append(
                        f"saddle-node {p.id} has {hyper_in[p.id]}+{hyper_out[p.id]}"
                        " hyperbolic separatrices, wants 2+1")
            elif p.kind == "source":
                if indeg[p.id] != 0:
                    issues.append(f"source {p.id} has incoming separatrices")
            elif p.kind == "sink":
                if outdeg[p.id] != 0:
                    issues.append(f"sink {p.id} has outgoing separatrices")
            else:
                issues.append(f"point {p.id} has unknown kind {p.kind!r}")

        n_sn = sum(1 for p in self.points if p.kind in SADDLE_NODE_KINDS)
        connections = [arc for arc in self.separatrices
                       if kinds.get(arc.source) == "saddle"
                       and kinds.get(arc.target) == "saddle"]
        if self.saddle_connection is None:
            if n_sn != 1:
                issues.append(f"{n_sn} saddle-nodes in a saddle-node diagram")
            if connections:
                issues.append("saddle-to-saddle arc without a recorded connection")
        else:
            if n_sn != 0:
                issues.append("saddle-node present in a saddle-connection diagram")
            pair = (self.saddle_connection[0], self.saddle_connection[1])
            if len(connections) != 1 or \
                    (connections[0].source, connections[0].target) != pair:
                issues.append("recorded saddle connection does not match arcs")

        # no directed cycles: peel off points without incoming arcs
        remaining = dict(indeg)
        ready = [pid for pid, deg in remaining.items() if deg == 0]
        seen = 0
        while ready:
            pid = ready.pop()
            seen += 1
            for target in successors[pid]:
                remaining[target] -= 1
                if remaining[target] == 0:
                    ready.append(target)
        if seen != len(self.points):
            issues.append("directed cycle among separatrices")
        return issues


def _morse_skeleton(m: CombinatorialMap, v: int, skipped: set,
                    pair: tuple = (), merged: Optional[tuple] = None):
    """The Morse flow of ``m`` away from vertex ``v`` and the edges ``skipped``.

    Points, in id order: a source per vertex other than ``v``, a sink per
    face, the ``(kind, origin)`` points of ``pair``, a saddle per edge whose
    even dart is not in ``skipped``, and last ``merged``, which stands in
    for ``v``.  Each saddle gets its two stable and two unstable arcs.
    Returns the points, the arcs and the point ids by vertex and face index.
    """
    points, vertex_point, face_point = [], {}, {}

    def add(kind, origin):
        points.append(SingularPoint(len(points), kind, origin))
        return len(points) - 1

    for i, orbit in enumerate(m.vertex_orbits):
        if i != v:
            vertex_point[i] = add("source", ("vertex", min(orbit)))
    for i, orbit in enumerate(m.face_orbits):
        face_point[i] = add("sink", ("face", min(orbit)))
    for kind, origin in pair:
        add(kind, origin)
    saddle_point = {rep: add("saddle", ("edge", rep))
                    for rep in range(0, m.n_darts, 2) if rep not in skipped}
    if merged is not None:
        vertex_point[v] = add(*merged)
    arcs = []
    for rep, s in saddle_point.items():
        for d in (rep, rep + 1):
            arcs.append(Separatrix(vertex_point[m.vertex_of(d)], s, d))
            arcs.append(Separatrix(s, face_point[m.face_of(d)], d))
    return points, arcs, vertex_point, face_point


def _realize_source(m: CombinatorialMap, d0: int) -> SeparatrixDiagram:
    v0 = m.vertex_of(d0)
    far = m.alpha[d0]
    points, arcs, vertex_point, face_point = _morse_skeleton(
        m, v0, {min(d0, far)}, merged=("saddle-node-source", ("mark", d0)))
    sn = vertex_point[v0]
    arcs.append(Separatrix(vertex_point[m.vertex_of(far)], sn, far))
    arcs.append(Separatrix(sn, face_point[m.face_of(d0)], d0))
    arcs.append(Separatrix(sn, face_point[m.face_of(far)], far))
    return SeparatrixDiagram(tuple(points), tuple(arcs))


_FLIP_CELL = {"vertex": "face", "face": "vertex", "edge": "edge", "mark": "mark"}
_FLIP_KIND = {"source": "sink", "sink": "source", "saddle": "saddle",
              "saddle-node-source": "saddle-node-sink",
              "saddle-node-sink": "saddle-node-source"}


def _realize_sink(m: CombinatorialMap, d0: int) -> SeparatrixDiagram:
    # reversal of the source-type flow on the dual map; dart ids and orbit
    # representatives carry over because dual() keeps the dart labels
    dia = _realize_source(m.dual(), d0)
    points = tuple(SingularPoint(p.id, _FLIP_KIND[p.kind],
                                 (_FLIP_CELL[p.origin[0]], p.origin[1]))
                   for p in dia.points)
    arcs = tuple(Separatrix(a.target, a.source, a.anchor)
                 for a in dia.separatrices)
    return SeparatrixDiagram(points, arcs)


def _realize_t(m: CombinatorialMap, p: int) -> SeparatrixDiagram:
    t = m.vertex_of(p)
    a = m.sigma[p]
    b = m.sigma[a]
    pair = (("saddle", ("vertex", min(m.vertex_orbits[t]))),
            ("saddle", ("edge", min(p, m.alpha[p]))))
    skipped = {min(p, m.alpha[p]), min(a, m.alpha[a]), min(b, m.alpha[b])}
    points, arcs, vertex_point, face_point = _morse_skeleton(m, t, skipped, pair)
    # the pair follows the sources and the sinks
    lower = len(vertex_point) + len(face_point)
    upper = lower + 1
    # the lower saddle: stable manifold is the collinear pair, one unstable
    # separatrix is the connection, the other falls into the face of the
    # corner between the collinear darts
    for d in (a, b):
        far = m.alpha[d]
        arcs.append(Separatrix(vertex_point[m.vertex_of(far)], lower, far))
    arcs.append(Separatrix(lower, upper, p))
    arcs.append(Separatrix(lower, face_point[m.face_of(m.alpha[a])], m.alpha[a]))
    # the upper saddle: second stable separatrix from the far endpoint of
    # the perpendicular edge, unstable pair into the faces on its sides
    far = m.alpha[p]
    arcs.append(Separatrix(vertex_point[m.vertex_of(far)], upper, far))
    arcs.append(Separatrix(upper, face_point[m.face_of(p)], p))
    arcs.append(Separatrix(upper, face_point[m.face_of(far)], far))
    return SeparatrixDiagram(tuple(points), tuple(arcs), (lower, upper))


def realize(mm: MarkedMap) -> SeparatrixDiagram:
    """The separatrix diagram of the flow encoded by a marked map."""
    if not isinstance(mm, MarkedMap):
        raise InvalidMarkError("realize expects a MarkedMap")
    kind = mm.mark.kind
    if kind == "source":
        return _realize_source(mm.map, mm.mark.dart)
    if kind == "sink":
        return _realize_sink(mm.map, mm.mark.dart)
    if kind == "t":
        return _realize_t(mm.map, mm.mark.dart)
    raise InvalidMarkError(f"unknown mark kind {kind!r}")
