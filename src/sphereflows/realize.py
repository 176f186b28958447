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
* a sink mark is the exact flow reversal of a source mark on the dual map;
  it is realized on its own map, faces in the role of vertices, with points
  and arcs in the order the dual construction gives;
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

# per point kind: whether only arcs joining a non-saddle count (a saddle-node's
# hyperbolic separatrices), and the arcs in and out it must have, None for any
SEPARATRIX_COUNTS = {
    "saddle": (False, 2, 2),
    "source": (False, 0, None),
    "sink": (False, None, 0),
    "saddle-node-source": (True, 1, 2),
    "saddle-node-sink": (True, 2, 1),
}


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
        issues, connections = [], []
        at = {p.id: i for i, p in enumerate(self.points)}
        if len(at) != len(self.points):
            issues.append("point ids are not distinct")
        kinds = [p.kind for p in self.points]
        # per point: arcs in and out, and those joining a non-saddle
        ins, outs, hyper_in, hyper_out = ([0] * len(kinds) for _ in range(4))
        successors = [[] for _ in kinds]
        for arc in self.separatrices:
            s, t = at.get(arc.source), at.get(arc.target)
            if s is None or t is None:
                issues.append(f"arc {arc} references an unknown point")
                continue
            successors[s].append(t)
            ins[t] += 1
            outs[s] += 1
            hyper_in[t] += kinds[s] != "saddle"
            hyper_out[s] += kinds[t] != "saddle"
            if kinds[s] == "source" and kinds[t] == "sink":
                issues.append(f"arc {arc} joins a source to a sink directly")
            if kinds[s] == kinds[t] == "saddle":
                connections.append(arc)
        n_sn = 0
        for p, *found in zip(self.points, ins, outs, hyper_in, hyper_out):
            if p.kind not in SEPARATRIX_COUNTS:
                issues.append(f"point {p.id} has unknown kind {p.kind!r}")
                continue
            hyperbolic, want_in, want_out = SEPARATRIX_COUNTS[p.kind]
            n_sn += hyperbolic
            i, o = found[2:] if hyperbolic else found[:2]
            if want_in not in (None, i) or want_out not in (None, o):
                want = ["any" if w is None else w for w in (want_in, want_out)]
                issues.append(f"{p.kind} {p.id} has {i} in / {o} out"
                              f"{' hyperbolic' * hyperbolic}, wants"
                              f" {want[0]} in / {want[1]} out")
        if self.saddle_connection is None:
            if n_sn != 1:
                issues.append(f"{n_sn} saddle-nodes in a saddle-node diagram")
            if connections:
                issues.append("saddle-to-saddle arc without a recorded connection")
        else:
            if n_sn != 0:
                issues.append("saddle-node present in a saddle-connection diagram")
            if [arc[:2] for arc in connections] != [tuple(self.saddle_connection[:2])]:
                issues.append("recorded saddle connection does not match arcs")

        # no directed cycles: peel off points without incoming arcs
        peeled = [i for i, deg in enumerate(ins) if deg == 0]
        for i in peeled:
            for target in successors[i]:
                ins[target] -= 1
                if ins[target] == 0:
                    peeled.append(target)
        if len(peeled) != len(self.points):
            issues.append("directed cycle among separatrices")
        return issues


_CELL_POINT = {"vertex": "source", "face": "sink"}


def _morse_skeleton(m: CombinatorialMap, cell: str, c: int, skipped: set,
                    pair: tuple = (), merged: Optional[tuple] = None):
    """The Morse flow of ``m`` away from a cell and the edges ``skipped``.

    ``cell`` is ``"vertex"`` or ``"face"``, the kind of cell ``c`` that
    ``merged`` stands in for.  Points, in id order: a point per cell of that
    kind other than ``c``, a point per cell of the other kind (a source per
    vertex, a sink per face), the ``(kind, origin)`` points of ``pair``, a
    saddle per edge whose number ``d >> 1`` is not in ``skipped``, and last
    ``merged``.  Each saddle gets its two stable and two unstable arcs.
    Returns the points, the arcs, the point ids by cell kind and index, and
    the ids of ``pair``.
    """
    points, point = [], {"vertex": {}, "face": {}}

    def add(kind, origin):
        points.append(SingularPoint(len(points), kind, origin))
        return len(points) - 1

    orbits = {"vertex": m.vertex_orbits, "face": m.face_orbits}
    for kind in (cell, "face" if cell == "vertex" else "vertex"):
        for i, orbit in enumerate(orbits[kind]):
            if kind != cell or i != c:
                point[kind][i] = add(_CELL_POINT[kind], (kind, min(orbit)))
    pair_ids = tuple(add(*p) for p in pair)
    saddle_point = {e: add("saddle", ("edge", 2 * e))
                    for e in range(m.n_edges) if e not in skipped}
    if merged is not None:
        point[cell][c] = add(*merged)
    arcs = []
    for e, s in saddle_point.items():
        for d in (2 * e, 2 * e + 1):
            arcs += _dart_arcs(m, point, cell, s, d)
    return points, arcs, point, pair_ids


def _dart_arcs(m: CombinatorialMap, point: dict, cell: str, s: int, d: int):
    """The arcs of ``s`` in from the vertex of ``d`` and out into its face,
    the one joining a cell of kind ``cell`` first."""
    into = Separatrix(point["vertex"][m.vertex_index[d]], s, d)
    out = Separatrix(s, point["face"][m.face_index[d]], d)
    return (into, out) if cell == "vertex" else (out, into)


def _realize_saddle_node(m: CombinatorialMap, d0: int,
                         cell: str) -> SeparatrixDiagram:
    # the saddle of d0's edge merges into d0's vertex (source mark) or face
    # (sink mark); its hyperbolic separatrices join the cell of that kind at
    # far, across the edge, and the cells of the other kind at d0 and at far
    far = d0 ^ 1
    c = m.vertex_index[d0] if cell == "vertex" else m.face_index[d0]
    points, arcs, point, _ = _morse_skeleton(
        m, cell, c, {d0 >> 1},
        merged=("saddle-node-" + _CELL_POINT[cell], ("mark", d0)))
    (across, far_side), (_, near_side) = (
        _dart_arcs(m, point, cell, point[cell][c], d) for d in (far, d0))
    arcs += (across, near_side, far_side)
    return SeparatrixDiagram(tuple(points), tuple(arcs))


def _realize_t(m: CombinatorialMap, p: int) -> SeparatrixDiagram:
    t = m.vertex_index[p]
    a = m.sigma[p]
    b = m.sigma[a]
    pair = (("saddle", ("vertex", min(m.vertex_orbits[t]))),
            ("saddle", ("edge", p & ~1)))
    skipped = {p >> 1, a >> 1, b >> 1}
    points, arcs, point, (lower, upper) = _morse_skeleton(
        m, "vertex", t, skipped, pair)
    # the lower saddle: stable manifold is the collinear pair, one unstable
    # separatrix is the connection, the other falls into the face of the
    # corner between the collinear darts; the upper saddle: second stable
    # separatrix from the far endpoint of the perpendicular edge, unstable
    # pair into the faces on its sides
    (in_a, out_a), (in_b, _), (in_far, out_far) = (
        _dart_arcs(m, point, "vertex", s, d)
        for s, d in ((lower, a ^ 1), (lower, b ^ 1), (upper, p ^ 1)))
    arcs += (in_a, in_b, Separatrix(lower, upper, p), out_a, in_far,
             Separatrix(upper, point["face"][m.face_index[p]], p), out_far)
    return SeparatrixDiagram(tuple(points), tuple(arcs), (lower, upper))


def realize(mm: MarkedMap) -> SeparatrixDiagram:
    """The separatrix diagram of the flow encoded by a marked map."""
    if not isinstance(mm, MarkedMap):
        raise InvalidMarkError("realize expects a MarkedMap")
    kind = mm.mark.kind
    if kind in ("source", "sink"):
        return _realize_saddle_node(mm.map, mm.mark.dart,
                                    "vertex" if kind == "source" else "face")
    if kind == "t":
        return _realize_t(mm.map, mm.mark.dart)
    raise InvalidMarkError(f"unknown mark kind {kind!r}")
