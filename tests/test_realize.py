import random
from itertools import permutations

import pytest

from sphereflows import (CombinatorialMap, GenerationConfig,
                         InvalidMarkError, MarkedMap, Separatrix,
                         SeparatrixDiagram, SingularPoint, SinkMark,
                         SourceMark, TMark, enumerate_sink_marks,
                         enumerate_source_marks, enumerate_t_marks,
                         flow_classes, generate_maps, realize,
                         saddle_connection_census, saddle_node_census)
from sphereflows.catalog import build_bifurcation_catalog
from sphereflows.marks import MAX_SADDLES, SN_MIN_SADDLES, T_MIN_SADDLES

from oracles import relabel, sink_diagram_by_duality

SN_KINDS = ("saddle-node-source", "saddle-node-sink")


def all_marked(n_saddles, kind):
    if kind == "t":
        return enumerate_t_marks(n_saddles)
    enum = enumerate_source_marks if kind == "source" else enumerate_sink_marks
    out = []
    for m in generate_maps(GenerationConfig(n_saddles)):
        out.extend(enum(m))
    return out


class TestPublishedExamples:
    def test_segment_source_three_points(self, named):
        dia = realize(MarkedMap(named["segment"], SourceMark(0)))
        assert dia.n_points == 3
        assert dia.point_counts() == {"source": 1, "sink": 1,
                                      "saddle-node-source": 1}
        assert dia.check() == []

    def test_chain_central_source_five_points(self, named):
        m = named["chain2"]
        central = [d for d in range(4) if len(m.vertex_orbits[m.vertex_index[d]]) == 2]
        dia = realize(MarkedMap(m, SourceMark(central[0])))
        assert dia.n_points == 5
        assert dia.point_counts() == {"source": 2, "sink": 1, "saddle": 1,
                                      "saddle-node-source": 1}

    def test_loop_sink_three_points(self, named):
        dia = realize(MarkedMap(named["loop"], SinkMark(0)))
        assert dia.point_counts() == {"source": 1, "sink": 1,
                                      "saddle-node-sink": 1}

    def test_star_t_mark_six_points(self, named):
        dia = realize(MarkedMap(named["star3"], TMark(0)))
        assert dia.n_points == 6
        assert dia.point_counts() == {"source": 3, "sink": 1, "saddle": 2}
        assert dia.saddle_connection is not None
        lower, upper = dia.saddle_connection
        assert {dia.points[lower].kind, dia.points[upper].kind} == {"saddle"}
        assert dia.check() == []


class TestPointCountFormulas:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["source", "sink"])
    def test_saddle_node_counts(self, n, kind):
        for mm in all_marked(n, kind):
            dia = realize(mm)
            assert dia.n_points == 2 * n + 1
            m = mm.map
            counts = dia.point_counts()
            if kind == "source":
                assert counts.get("source", 0) == m.n_vertices - 1
                assert counts.get("sink", 0) == m.n_faces
            else:
                assert counts.get("source", 0) == m.n_vertices
                assert counts.get("sink", 0) == m.n_faces - 1
            assert counts.get("saddle", 0) == n - 1
            assert counts[f"saddle-node-{kind}"] == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_t_counts(self, n):
        for mm in all_marked(n, "t"):
            dia = realize(mm)
            assert dia.n_points == 2 * n + 2
            counts = dia.point_counts()
            assert counts.get("source", 0) == mm.map.n_vertices - 1
            assert counts.get("sink", 0) == mm.map.n_faces
            assert counts.get("saddle", 0) == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("allow_reflection", [True, False])
    def test_one_singular_point_count(self, n, allow_reflection):
        # census record, every class and every diagram agree on one count
        counts = [("saddle-node", saddle_node_census, 2 * n + 1)]
        if n >= 2:
            counts.append(
                ("saddle-connection", saddle_connection_census, 2 * n + 2))
        for kind, census, expected in counts:
            record = census(n, allow_reflection=allow_reflection)
            assert record.singular_points == expected
            classes = flow_classes(kind, n, allow_reflection)
            assert classes
            for mm in classes:
                assert mm.n_singular_points == expected
                assert realize(mm).n_points == expected


class TestDiagramInvariants:
    @pytest.mark.parametrize("n,kind", [(1, "source"), (1, "sink"),
                                        (2, "source"), (2, "sink"), (2, "t"),
                                        (3, "source"), (3, "sink"), (3, "t")])
    def test_census_check(self, n, kind):
        # building the catalog realizes and checks every class's diagram
        catalog = build_bifurcation_catalog(
            "saddle-connection" if kind == "t" else "saddle-node", n)
        entries = [e for e in catalog.entries if e.mark["kind"] == kind]
        assert entries
        expected = 2 * n + 2 if kind == "t" else 2 * n + 1
        for e in entries:
            assert sum(e.singular_points.values()) == expected

    def test_all_diagrams_sound(self):
        for kind in ("source", "sink"):
            for mm in all_marked(3, kind):
                assert realize(mm).check() == []

    def test_check_catches_broken_diagram(self, named):
        dia = realize(MarkedMap(named["segment"], SourceMark(0)))
        broken = type(dia)(dia.points, dia.separatrices[:-1],
                           dia.saddle_connection)
        assert broken.check()

    def test_directed_cycle_reported_once(self):
        kinds = ("saddle", "saddle", "source", "source", "sink", "sink")
        points = tuple(SingularPoint(i, k, ("edge", i))
                       for i, k in enumerate(kinds))
        arcs = tuple(Separatrix(a, b, 0) for a, b in
                     [(2, 0), (3, 1), (0, 1), (1, 0), (0, 4), (1, 5)])
        assert SeparatrixDiagram(points, arcs).check() == [
            "0 saddle-nodes in a saddle-node diagram",
            "saddle-to-saddle arc without a recorded connection",
            "directed cycle among separatrices",
        ]

    def test_arc_to_unknown_point_reported(self, named):
        dia = realize(MarkedMap(named["segment"], SourceMark(0)))
        for arc in (Separatrix(0, 99, 0), Separatrix(99, 0, 0)):
            broken = type(dia)(dia.points, dia.separatrices + (arc,),
                               dia.saddle_connection)
            assert broken.check() == [f"arc {arc} references an unknown point"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_bifurcation_catalog("spiral", 2)

    def test_realize_needs_marked_map(self, named):
        with pytest.raises(InvalidMarkError):
            realize(named["segment"])


def hand_diagram(kinds, pairs, connection=None):
    """A diagram with point ids 0.. of the given kinds and arcs anchored at 0."""
    points = tuple(SingularPoint(i, k, ("edge", i)) for i, k in enumerate(kinds))
    arcs = tuple(Separatrix(a, b, 0) for a, b in pairs)
    return SeparatrixDiagram(points, arcs, connection)


# sound diagrams as realize writes them: chain2 with a source mark at its
# middle vertex, the loop with a sink mark, and star3 with a T mark
SOURCE_SN = (("source", "source", "sink", "saddle", "saddle-node-source"),
             [(4, 3), (3, 2), (1, 3), (3, 2), (0, 4), (4, 2), (4, 2)])
SINK_SN = (("sink", "source", "saddle-node-sink"), [(2, 0), (1, 2), (1, 2)])
T_CONNECTION = (("source", "source", "source", "sink", "saddle", "saddle"),
                [(1, 4), (2, 4), (4, 5), (4, 3), (0, 5), (5, 3), (5, 3)])


def arc_text(a, b):
    return str(Separatrix(a, b, 0))


# one hand-broken diagram per issue check() reports, with the exact list
BROKEN_DIAGRAMS = {
    "unknown-point": (
        hand_diagram(SOURCE_SN[0], SOURCE_SN[1] + [(0, 99)]),
        [f"arc {arc_text(0, 99)} references an unknown point"]),
    "duplicate-id": (
        hand_diagram(*SINK_SN)._replace(points=hand_diagram(*SINK_SN).points
                                        + (SingularPoint(0, "sink", ()),)),
        ["point ids are not distinct"]),
    "arc-enters-source": (
        hand_diagram(SOURCE_SN[0], SOURCE_SN[1] + [(4, 1)]),
        ["source 1 has 1 in / 1 out, wants 0 in / any out",
         "saddle-node-source 4 has 1 in / 3 out hyperbolic, wants 1 in / 2 out"]),
    "arc-leaves-sink": (
        hand_diagram(SINK_SN[0] + ("sink",), SINK_SN[1] + [(0, 3)]),
        ["sink 0 has 1 in / 1 out, wants any in / 0 out"]),
    "source-to-sink": (
        hand_diagram(SOURCE_SN[0], SOURCE_SN[1] + [(0, 2)]),
        [f"arc {arc_text(0, 2)} joins a source to a sink directly"]),
    "saddle-counts": (
        hand_diagram(SOURCE_SN[0], SOURCE_SN[1][:3] + SOURCE_SN[1][4:]),
        ["saddle 3 has 2 in / 1 out, wants 2 in / 2 out"]),
    "saddle-node-source-counts": (
        hand_diagram(SOURCE_SN[0], SOURCE_SN[1][:-1]),
        ["saddle-node-source 4 has 1 in / 1 out hyperbolic, wants 1 in / 2 out"]),
    "saddle-node-sink-counts": (
        hand_diagram(SINK_SN[0], SINK_SN[1][:-1]),
        ["saddle-node-sink 2 has 1 in / 1 out hyperbolic, wants 2 in / 1 out"]),
    "unknown-kind": (
        hand_diagram(SOURCE_SN[0] + ("spiral",), SOURCE_SN[1]),
        ["point 5 has unknown kind 'spiral'"]),
    "no-saddle-node": (
        hand_diagram(("source", "source", "saddle", "sink"),
                     [(0, 2), (1, 2), (2, 3), (2, 3)]),
        ["0 saddle-nodes in a saddle-node diagram"]),
    "two-saddle-nodes": (
        hand_diagram(SOURCE_SN[0] + ("saddle-node-sink",),
                     SOURCE_SN[1] + [(0, 5), (1, 5), (5, 2)]),
        ["2 saddle-nodes in a saddle-node diagram"]),
    "saddle-node-in-connection": (
        hand_diagram(T_CONNECTION[0] + ("saddle-node-source",),
                     T_CONNECTION[1] + [(0, 6), (6, 3), (6, 3)], (4, 5)),
        ["saddle-node present in a saddle-connection diagram"]),
    "unrecorded-connection": (
        hand_diagram(*T_CONNECTION),
        ["0 saddle-nodes in a saddle-node diagram",
         "saddle-to-saddle arc without a recorded connection"]),
    "connection-mismatch": (
        hand_diagram(*T_CONNECTION, (5, 4)),
        ["recorded saddle connection does not match arcs"]),
    "cycle": (
        hand_diagram(SINK_SN[0] + ("saddle", "saddle"),
                     SINK_SN[1] + [(3, 4), (4, 3)]),
        ["saddle 3 has 1 in / 1 out, wants 2 in / 2 out",
         "saddle 4 has 1 in / 1 out, wants 2 in / 2 out",
         "saddle-to-saddle arc without a recorded connection",
         "directed cycle among separatrices"]),
    "self-loop": (
        hand_diagram(SINK_SN[0] + ("saddle",), SINK_SN[1] + [(3, 3)] * 2),
        ["saddle-to-saddle arc without a recorded connection",
         "directed cycle among separatrices"]),
}


class TestCheckReportsEachIssue:
    def test_sound_bases(self):
        for kinds, pairs in (SOURCE_SN, SINK_SN):
            assert hand_diagram(kinds, pairs).check() == []
        assert hand_diagram(*T_CONNECTION, (4, 5)).check() == []

    @pytest.mark.parametrize("name", sorted(BROKEN_DIAGRAMS))
    def test_exact_issues(self, name):
        dia, issues = BROKEN_DIAGRAMS[name]
        assert dia.check() == issues


class TestSinkMarksOnTheirOwnMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("allow_reflection", [True, False])
    def test_sink_diagram_is_the_reversed_dual_source_diagram(
            self, n, allow_reflection):
        # same points and arcs in the same order, so exports keep their bytes
        sinks = [mm for mm in flow_classes("saddle-node", n, allow_reflection)
                 if mm.mark.kind == "sink"]
        assert sinks
        for mm in sinks:
            assert realize(mm) == sink_diagram_by_duality(mm)

    def test_realizing_saddle_nodes_builds_no_map(self, monkeypatch):
        classes = [mm for n in (1, 2, 3, 4) for reflect in (True, False)
                   for mm in flow_classes("saddle-node", n, reflect)]
        built = []
        init = CombinatorialMap.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(CombinatorialMap, "__init__", counting_init)
        for mm in classes:
            realize(mm)
        assert built == []
        # the count sees a map built the way the dual construction built it
        classes[-1].map.dual()
        assert len(built) == 1


def cell_points(mm, dia):
    """The point of every cell of ``mm``'s map, keyed ``("vertex", i)`` or
    ``("face", i)``: a point stands for the vertex or face of the dart in its
    origin, a saddle-node for the vertex (source) or face (sink) of the
    marked dart, and a saddle on an edge for no cell."""
    m, cells = mm.map, {}
    for p in dia.points:
        kind, d = p.origin
        if kind == "edge":
            assert p.kind == "saddle"
            continue
        if kind == "mark":
            assert d == mm.mark.dart
            kind = {"saddle-node-source": "vertex",
                    "saddle-node-sink": "face"}[p.kind]
        cell = (kind, (m.vertex_index if kind == "vertex" else m.face_index)[d])
        assert cell not in cells, (mm, p)
        cells[cell] = p.id
    assert len(cells) == m.n_vertices + m.n_faces
    return cells


class TestSeparatricesFollowTheirDarts:
    @pytest.mark.parametrize("allow_reflection", [True, False])
    @pytest.mark.parametrize("kind,n", [
        (kind, n)
        for kind, low in (("saddle-node", SN_MIN_SADDLES),
                          ("saddle-connection", T_MIN_SADDLES))
        for n in range(low, MAX_SADDLES + 1)])
    def test_every_arc_leaves_its_darts_vertex_or_enters_its_face(
            self, kind, n, allow_reflection):
        # a separatrix runs along its anchor dart d: in from d's vertex or out
        # into d's face; in a T diagram the lower saddle's free separatrix
        # falls into the face of the corner between the collinear darts,
        # the face of sigma(sigma(p)), on the far side of the bar from p
        classes = flow_classes(kind, n, allow_reflection)
        assert classes
        for mm in classes:
            m, dia = mm.map, realize(mm)
            cell = cell_points(mm, dia)
            for arc in dia.separatrices:
                d = arc.anchor
                assert (arc.source == cell["vertex", m.vertex_index[d]]
                        or arc.target == cell["face", m.face_index[d]]), \
                    (mm, arc)
            if dia.saddle_connection is not None:
                lower, upper = dia.saddle_connection
                corner = m.sigma[m.sigma[mm.mark.dart]]
                free = [arc.target for arc in dia.separatrices
                        if arc.source == lower and arc.target != upper]
                assert free == [cell["face", m.face_index[corner]]], mm


def pairing_relabeling(rng, n_edges):
    """A random dart relabeling that commutes with the edge involution."""
    edges = list(range(n_edges))
    rng.shuffle(edges)
    pi = [0] * (2 * n_edges)
    for i, j in enumerate(edges):
        if rng.random() < 0.5:
            pi[2 * i], pi[2 * i + 1] = 2 * j + 1, 2 * j
        else:
            pi[2 * i], pi[2 * i + 1] = 2 * j, 2 * j + 1
    return pi


class TestEquivalenceInvariance:
    def test_relabeled_representatives_realize_alike(self):
        rng = random.Random(5)
        for mm in all_marked(2, "source") + all_marked(2, "t"):
            pi = pairing_relabeling(rng, mm.map.n_edges)
            other = MarkedMap(relabel(mm.map, pi), type(mm.mark)(pi[mm.mark.dart]))
            assert other.canonical_code() == mm.canonical_code()
            assert realize(other).point_counts() == realize(mm).point_counts()


def diagram_multigraph(dia):
    """Endpoint pairs of the stable manifolds, reconstructing the input graph."""
    kinds = {p.id: p.kind for p in dia.points}
    into = {}
    for arc in dia.separatrices:
        if kinds[arc.target] in ("saddle",) + SN_KINDS:
            into.setdefault(arc.target, []).append(arc.source)
    edges = []
    for pid, sources in into.items():
        if kinds[pid] == "saddle-node-source":
            # the merged vertex is the saddle-node itself
            edges.append(tuple(sorted([pid, sources[0]])))
        elif kinds[pid] == "saddle-node-sink":
            # keep the two stable separatrices; drop parabolic absorptions
            ends = [s for s in sources if kinds[s] == "source"]
            edges.append(tuple(sorted(ends)))
        elif dia.saddle_connection and pid == dia.saddle_connection[1]:
            lower = dia.saddle_connection[0]
            other = [s for s in sources if s != lower]
            edges.append(tuple(sorted([lower, other[0]])))
        elif dia.saddle_connection and pid == dia.saddle_connection[0]:
            edges.extend(tuple(sorted([pid, s])) for s in sources)
        else:
            edges.append(tuple(sorted(sources)))
    return sorted(edges)


def multigraphs_isomorphic(edges_a, edges_b, n_vertices):
    verts_a = sorted({v for e in edges_a for v in e})
    verts_b = sorted({v for e in edges_b for v in e})
    if len(verts_a) != len(verts_b) or len(verts_a) != n_vertices:
        return False
    for pi in permutations(verts_b):
        relabel = dict(zip(verts_a, pi))
        mapped = sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges_a)
        if mapped == sorted(map(tuple, edges_b)):
            return True
    return False


class TestRoundTrip:
    @pytest.mark.parametrize("n,kind", [(1, "source"), (2, "source"),
                                        (3, "source"), (2, "sink"),
                                        (3, "sink"), (2, "t"), (3, "t")])
    def test_stable_manifolds_rebuild_the_map(self, n, kind):
        for mm in all_marked(n, kind):
            m = mm.map
            expected = sorted(tuple(sorted((m.vertex_index[2 * e],
                                            m.vertex_index[m.alpha[2 * e]])))
                              for e in range(m.n_edges))
            got = diagram_multigraph(realize(mm))
            assert len(got) == m.n_edges
            assert multigraphs_isomorphic(got, expected, m.n_vertices)
