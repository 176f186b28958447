import random
from collections import Counter

import pytest

from sphereflows import (CanonicalCode, CombinatorialMap, GenerationConfig,
                         InvalidMarkError, MarkedMap, NotReversibleError,
                         SaddleCountOutOfRangeError, SinkMark, SourceMark,
                         TMark, enumerate_sink_marks, enumerate_source_marks,
                         enumerate_t_marks, flow_classes, generate_maps,
                         marked_map_from_code, reverse,
                         saddle_connection_census, saddle_node_census,
                         t_connection_category)
from sphereflows.marks import (CONNECTED_AFTER_CUT, FAR_SIDE_ONE_EDGE,
                               FAR_SIDE_TWO_EDGES, _mark_classes)

from oracles import (SADDLE_COUNTS_OUT_OF_RANGE, far_side_edges,
                     marked_classes, mirror_fixed, relabel, rooted_flows,
                     sensed_source_classes, source_class_count)
from test_generate import six_edge_maps


def out_of_range(kind):
    """The saddle counts just outside ``kind``'s supported range."""
    return [n for k, n, _ in SADDLE_COUNTS_OUT_OF_RANGE if k == kind]


class TestMarkLegality:
    def test_source_mark_rejects_loop(self, named):
        with pytest.raises(InvalidMarkError):
            MarkedMap(named["loop"], SourceMark(0))

    def test_sink_mark_rejects_bridge(self, named):
        with pytest.raises(InvalidMarkError):
            MarkedMap(named["segment"], SinkMark(0))

    def test_t_mark_needs_degree_three(self, named):
        with pytest.raises(InvalidMarkError):
            MarkedMap(named["chain2"], TMark(1))

    def test_t_mark_rejects_incident_loop(self, named):
        # the segment-with-loop vertex has degree 3 but carries its loop
        m = named["segment_loop"]
        t_darts = [d for d in range(4) if len(m.vertex_orbits[m.vertex_index[d]]) == 3]
        assert t_darts
        with pytest.raises(InvalidMarkError):
            MarkedMap(m, TMark(t_darts[0]))

    def test_mark_dart_out_of_range(self, named):
        with pytest.raises(InvalidMarkError):
            MarkedMap(named["segment"], SourceMark(9))

    def test_hand_built_code_without_involution_is_rejected(self):
        code = CanonicalCode(1, (0, 1), (0, 1), ("source", 0))
        with pytest.raises(ValueError, match="NotInvolution"):
            marked_map_from_code(code)

    @pytest.mark.parametrize("label", [-1, 2, True])
    def test_hand_built_code_with_label_off_its_darts_is_rejected(self, label):
        # -1 would index the last dart, 2 = 2E is past it, True is no int
        code = CanonicalCode(1, (0, 1), (1, 0), ("source", label))
        with pytest.raises(ValueError):
            marked_map_from_code(code)

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_exactly_the_legal_darts_take_a_mark(self, e):
        # the rules read off the cells: a source mark needs its edge's other
        # dart at another vertex, a sink mark beside another face, a T-mark
        # a degree-3 vertex holding no edge's two darts
        for m in generate_maps(GenerationConfig(e)):
            for d in range(m.n_darts):
                at = next(orb for orb in m.vertex_orbits if d in orb)
                beside = next(orb for orb in m.face_orbits if d in orb)
                legal = {SourceMark: m.alpha[d] not in at,
                         SinkMark: m.alpha[d] not in beside,
                         TMark: len(at) == 3
                         and all(m.alpha[x] not in at for x in at)}
                for cls, ok in legal.items():
                    if ok:
                        assert MarkedMap(m, cls(d)).mark == cls(d)
                    else:
                        with pytest.raises(InvalidMarkError):
                            MarkedMap(m, cls(d))


class TestSourceMarks:
    def test_published_two_edge_counts(self, named):
        assert len(enumerate_source_marks(named["two_loops"])) == 0
        assert len(enumerate_source_marks(named["chain2"])) == 2
        assert len(enumerate_source_marks(named["double_edge"])) == 1
        assert len(enumerate_source_marks(named["segment_loop"])) == 2

    def test_segment_has_one_class(self, named):
        assert len(enumerate_source_marks(named["segment"])) == 1

    def test_marks_sit_on_non_loop_edges(self):
        for m in generate_maps(GenerationConfig(3)):
            for mm in enumerate_source_marks(m):
                assert not m.is_loop(mm.mark.dart)


class TestSinkMarks:
    def test_published_small_counts(self, named):
        assert len(enumerate_sink_marks(named["segment"])) == 0
        assert len(enumerate_sink_marks(named["loop"])) == 1

    def test_trees_have_none(self, named):
        for name in ("segment", "chain2", "chain3", "star3"):
            assert enumerate_sink_marks(named[name]) == []

    def test_marks_sit_on_two_sided_edges(self):
        for m in generate_maps(GenerationConfig(3)):
            for mm in enumerate_sink_marks(m):
                assert not m.is_bridge(mm.mark.dart)


def eligible(m, mark_cls):
    """Every dart that can carry a mark of ``mark_cls`` on ``m``."""
    if mark_cls is SourceMark:
        return [d for d in range(m.n_darts) if not m.is_loop(d)]
    if mark_cls is SinkMark:
        return [d for d in range(m.n_darts) if not m.is_bridge(d)]
    return [p for orbit in m.vertex_orbits if len(orbit) == 3
            and not any(m.alpha[d] in orbit for d in orbit) for p in orbit]


def oracle_classes(m, mark_cls, reflection):
    candidates = [MarkedMap(m, mark_cls(d)) for d in eligible(m, mark_cls)]
    return marked_classes(candidates, reflection)


class TestMarkClassesPerMap:
    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_saddle_node_classes_match_oracle(self, e, reflection):
        for m in generate_maps(GenerationConfig(e, reflection)):
            for enum, mark_cls in ((enumerate_source_marks, SourceMark),
                                   (enumerate_sink_marks, SinkMark)):
                found = enum(m, allow_reflection=reflection)
                # one class each, and no class missed
                assert len(marked_classes(found, reflection)) == len(found)
                assert len(found) == len(oracle_classes(m, mark_cls, reflection))

    @pytest.mark.parametrize("n,total", [(2, 5), (3, 36)])
    def test_sensed_t_classes_match_oracle(self, n, total):
        found = enumerate_t_marks(n, allow_reflection=False)
        assert len(found) == total
        grouped = 0
        for m in generate_maps(GenerationConfig(n + 1, allow_reflection=False)):
            on_m = [mm for mm in found if mm.map is m]
            assert len(marked_classes(on_m, False)) == len(on_m)
            assert len(on_m) == len(oracle_classes(m, TMark, False))
            grouped += len(on_m)
        assert grouped == total

    def test_map_is_validated_once(self, named, monkeypatch):
        calls = []
        validate = CombinatorialMap.validate
        monkeypatch.setattr(CombinatorialMap, "validate",
                            lambda self: calls.append(self) or validate(self))
        m = CombinatorialMap(named["theta"].sigma)
        assert calls == [m]
        enumerate_source_marks(m)
        enumerate_sink_marks(m)
        MarkedMap(m, SourceMark(0))
        assert calls == [m]


class TestFlowClasses:
    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("kind", ["saddle-node", "saddle-connection"])
    def test_classes_in_code_order(self, kind, reflection):
        codes = [mm.canonical_code(reflection)
                 for mm in flow_classes(kind, 4, reflection)]
        assert codes == sorted(set(codes))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            flow_classes("spiral", 2)

    @pytest.mark.parametrize("kind,n,message", SADDLE_COUNTS_OUT_OF_RANGE)
    def test_out_of_range(self, kind, n, message):
        with pytest.raises(SaddleCountOutOfRangeError) as exc:
            flow_classes(kind, n)
        assert str(exc.value) == message


class TestSaddleNodeCensus:
    def test_one_saddle(self):
        c = saddle_node_census(1)
        assert (c.total_source, c.total_sink, c.total) == (1, 1, 2)
        assert c.singular_points == 3

    def test_two_saddles(self, named):
        c = saddle_node_census(2)
        assert (c.total_source, c.total_sink, c.total) == (5, 5, 10)
        per_graph = {row.map_code: row.n_source for row in c.rows}
        assert per_graph[named["double_edge"].canonical_code().token()] == 1
        assert per_graph[named["chain2"].canonical_code().token()] == 2
        assert per_graph[named["segment_loop"].canonical_code().token()] == 2
        assert per_graph[named["two_loops"].canonical_code().token()] == 0

    def test_three_saddles_matches_exhaustive_search(self):
        # the published total is 56; exhaustive isomorphism search over the
        # complete three-edge catalog yields 26 source classes, hence 52
        c = saddle_node_census(3)
        assert (c.total_source, c.total_sink, c.total) == (26, 26, 52)
        assert source_class_count(3) == 26

    def test_four_saddles_regression(self):
        c = saddle_node_census(4)
        assert (c.total_source, c.total_sink) == (163, 163)
        assert c.source_by_vertex_count() == {1: 0, 2: 25, 3: 70, 4: 56, 5: 12}
        sinks = {}
        for row in c.rows:
            sinks[row.n_vertices] = sinks.get(row.n_vertices, 0) + row.n_sink
        assert sinks == {1: 12, 2: 56, 3: 70, 4: 25, 5: 0}

    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_match_per_map_enumerators(self, n, reflection):
        c = saddle_node_census(n, allow_reflection=reflection)
        expected = [
            (m.canonical_code(allow_reflection=reflection).token(),
             m.n_vertices, m.n_faces,
             len(enumerate_source_marks(m, allow_reflection=reflection)),
             len(enumerate_sink_marks(m, allow_reflection=reflection)))
            for m in generate_maps(GenerationConfig(n, reflection))]
        assert [tuple(row) for row in c.rows] == expected

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 5), (3, 32), (4, 234)])
    def test_sensed_counts_match_rooted_maps(self, n, count):
        # sink classes follow from source classes through duality
        c = saddle_node_census(n, allow_reflection=False)
        assert c.total_source == c.total_sink == sensed_source_classes(n) == count

    @pytest.mark.parametrize("kind, n, fixed", [
        *(("source", n, f) for n, f in ((1, 1), (2, 5), (3, 20), (4, 92))),
        *(("sink", n, f) for n, f in ((1, 1), (2, 5), (3, 20), (4, 92))),
        *(("t", n, f) for n, f in ((2, 3), (3, 12), (4, 60)))])
    def test_unsensed_counts_by_burnside(self, kind, n, fixed):
        # reversal acts on the sensed classes with order two, so by
        # Burnside's lemma the unsensed classes number (sensed + fixed) / 2;
        # the fixed classes are found without canonical codes
        flows = "saddle-connection" if kind == "t" else "saddle-node"
        sensed, unsensed = ([mm for mm in flow_classes(flows, n, reflection)
                             if mm.mark.kind == kind]
                            for reflection in (False, True))
        assert sum(map(mirror_fixed, sensed)) == fixed
        assert len(unsensed) == (len(sensed) + fixed) // 2
        assert (len(sensed) + fixed) % 2 == 0

    def test_four_saddles_matches_exhaustive_search(self):
        # puts the published-217 refutation on brute-force footing (the sink
        # side follows through the duality bijection, tested separately)
        assert source_class_count(4) == 163

    @pytest.mark.parametrize("n", out_of_range("saddle-node"))
    def test_out_of_range(self, n):
        with pytest.raises(SaddleCountOutOfRangeError):
            saddle_node_census(n)


class TestTMarks:
    def test_two_saddles_structural(self, named):
        classes = enumerate_t_marks(2)
        assert len(classes) == 4
        bigon = named["bigon_tail"]
        center = bigon.vertex_index[4]
        bigon_darts = [d for d in bigon.vertex_orbits[center] if d != 4]
        expected = {
            MarkedMap(named["star3"], TMark(0)).canonical_code(),
            MarkedMap(bigon, TMark(bigon_darts[0])).canonical_code(),
            MarkedMap(bigon, TMark(4)).canonical_code(),
            MarkedMap(named["theta"], TMark(0)).canonical_code(),
        }
        assert {mm.canonical_code() for mm in classes} == expected

    def test_three_saddles(self):
        # the published count is 20; the four extra classes are the ones
        # whose perpendicular edge disconnects the graph
        census = saddle_connection_census(3)
        assert census.total == 24
        assert census.by_category == {CONNECTED_AFTER_CUT: 20,
                                      FAR_SIDE_ONE_EDGE: 4,
                                      FAR_SIDE_TWO_EDGES: 0}

    def test_three_saddles_matches_exhaustive_search(self):
        total = 0
        for m in generate_maps(GenerationConfig(4)):
            darts = [p for orbit in m.vertex_orbits
                     if len(orbit) == 3
                     and not any(m.alpha[d] in orbit for d in orbit)
                     for p in orbit]
            total += len(marked_classes(MarkedMap(m, TMark(p)) for p in darts))
        assert total == 24

    def test_splitting_class_lives_on_the_chair_tree(self):
        splitting = [mm for mm in enumerate_t_marks(3)
                     if t_connection_category(mm) != CONNECTED_AFTER_CUT]
        degseqs = {mm.map.degree_sequence() for mm in splitting}
        assert (3, 2, 1, 1, 1) in degseqs

    def test_four_saddles_regression(self):
        census = saddle_connection_census(4)
        assert census.total == 165
        assert census.by_category == {CONNECTED_AFTER_CUT: 135,
                                      FAR_SIDE_TWO_EDGES: 16,
                                      FAR_SIDE_ONE_EDGE: 14}

    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_category_matches_union_find(self, n, reflection):
        expected = {0: CONNECTED_AFTER_CUT, 1: FAR_SIDE_ONE_EDGE}
        for mm in enumerate_t_marks(n, allow_reflection=reflection):
            far = far_side_edges(mm)
            assert t_connection_category(mm) \
                == expected.get(far, FAR_SIDE_TWO_EDGES), mm

    def test_category_on_pendant_perpendicular(self, named):
        # Y-graph: cutting the perpendicular leg strands a bare vertex
        mm = MarkedMap(named["star3"], TMark(0))
        assert t_connection_category(mm) == CONNECTED_AFTER_CUT

    @pytest.mark.parametrize("n", out_of_range("saddle-connection"))
    def test_out_of_range(self, n):
        with pytest.raises(SaddleCountOutOfRangeError):
            enumerate_t_marks(n)

    def test_category_rejects_saddle_node_marks(self, named):
        with pytest.raises(InvalidMarkError):
            t_connection_category(MarkedMap(named["segment"], SourceMark(0)))


class TestReverse:
    def test_segment_source_reverses_to_loop_sink(self, named):
        flow1 = MarkedMap(named["segment"], SourceMark(0))
        flow7 = MarkedMap(named["loop"], SinkMark(0))
        rev = reverse(flow1)
        assert rev.mark.kind == "sink"
        assert rev.canonical_code() == flow7.canonical_code()
        assert reverse(flow1) == rev

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reverse_is_involution(self, n):
        for m in generate_maps(GenerationConfig(n)):
            for mm in enumerate_source_marks(m) + enumerate_sink_marks(m):
                back = reverse(reverse(mm))
                assert back.map == mm.map and back.mark == mm.mark

    def test_source_and_sink_class_counts_agree(self):
        c = saddle_node_census(2)
        assert c.total_source == c.total_sink == 5

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_duality_transports_classes_bijectively(self, e):
        for m in generate_maps(GenerationConfig(e)):
            sinks = {mm.canonical_code() for mm in enumerate_sink_marks(m)}
            transported = {reverse(mm).canonical_code()
                           for mm in enumerate_source_marks(m.dual())}
            # reversing a source class of the dual lands back on m as a sink
            assert transported == sinks

    def test_t_marks_not_reversible(self, named):
        with pytest.raises(NotReversibleError):
            reverse(MarkedMap(named["star3"], TMark(0)))


class TestClassInvariance:
    def test_census_survives_relabeling(self):
        rng = random.Random(3)
        for m in generate_maps(GenerationConfig(3)):
            pi = list(range(m.n_darts))
            rng.shuffle(pi)
            other = relabel(m, pi)
            for enum in (enumerate_source_marks, enumerate_sink_marks):
                assert ({mm.canonical_code() for mm in enum(m)}
                        == {mm.canonical_code() for mm in enum(other)})

    def test_code_round_trip(self):
        for m in generate_maps(GenerationConfig(3)):
            for mm in enumerate_source_marks(m) + enumerate_sink_marks(m):
                code = mm.canonical_code()
                assert marked_map_from_code(code).canonical_code() == code
        for mm in enumerate_t_marks(2):
            code = mm.canonical_code()
            assert marked_map_from_code(code).canonical_code() == code

    def test_saddle_counts(self, named):
        assert MarkedMap(named["segment"], SourceMark(0)).n_saddles == 1
        assert MarkedMap(named["star3"], TMark(0)).n_saddles == 2
        assert MarkedMap(named["star3"], TMark(0)).n_singular_points == 6


# sensed, unsensed and mirror-fixed classes by saddle count, the same for
# source and sink marks
SN_ROOTED_COUNTS = {1: (1, 1, 1), 2: (5, 5, 5), 3: (32, 26, 20),
                    4: (234, 163, 92)}
T_ROOTED_COUNTS = {2: (5, 4, 3), 3: (36, 24, 12), 4: (270, 165, 60)}
# sensed, unsensed and mirror-fixed T classes with 4 saddles by category
T4_ROOTED_BY_CATEGORY = {CONNECTED_AFTER_CUT: (234, 135, 36),
                         FAR_SIDE_ONE_EDGE: (18, 14, 10),
                         FAR_SIDE_TWO_EDGES: (18, 16, 14)}
FAR_SIDE_CATEGORY = (CONNECTED_AFTER_CUT, FAR_SIDE_ONE_EDGE, FAR_SIDE_TWO_EDGES)


def _sensed_unsensed_fixed(flows):
    sensed, fixed = len(flows), sum(f for _, f in flows)
    assert (sensed + fixed) % 2 == 0
    return sensed, (sensed + fixed) // 2, fixed


# every class count in both modes from rooted maps and Burnside's lemma, with
# no canonical code computed on the oracle side

@pytest.mark.parametrize("kind", ["source", "sink"])
@pytest.mark.parametrize("n", sorted(SN_ROOTED_COUNTS))
def test_saddle_node_census_counts_rooted_flows(kind, n):
    counts = _sensed_unsensed_fixed(rooted_flows(n, kind))
    assert counts == SN_ROOTED_COUNTS[n]
    for i, reflection in enumerate((False, True)):
        census = saddle_node_census(n, allow_reflection=reflection)
        assert getattr(census, f"total_{kind}") == counts[i]


def _by_category(flows):
    """``_sensed_unsensed_fixed`` of rooted T flows per census category."""
    return {category: _sensed_unsensed_fixed(
                [f for f in flows if min(far_side_edges(f[0]), 2) == far])
            for far, category in enumerate(FAR_SIDE_CATEGORY)}


@pytest.mark.parametrize("n", sorted(T_ROOTED_COUNTS))
def test_saddle_connection_census_counts_rooted_flows(n):
    flows = rooted_flows(n + 1, "t")
    counts = _sensed_unsensed_fixed(flows)
    assert counts == T_ROOTED_COUNTS[n]
    by_category = _by_category(flows)
    if n == 4:
        assert by_category == T4_ROOTED_BY_CATEGORY
    for i, reflection in enumerate((False, True)):
        census = saddle_connection_census(n, allow_reflection=reflection)
        assert census.total == counts[i]
        assert census.by_category == {c: v[i] for c, v in by_category.items()}


@pytest.mark.parametrize("kind", ["source", "sink", "t"])
def test_rooted_flows_mirror_fixed_agrees_with_the_trace_oracle(kind):
    # one relabeling from the root against the least trace over all starts
    for mm, fixed in rooted_flows(4, kind):
        assert mirror_fixed(mm) == fixed, mm


# sensed T classes with n saddles by far-side edge count k = 0, 1, ...
# (0: the rest stays connected), from the rooted stream alone
T_ROOTED_BY_FAR_SIDE = {2: (5,), 3: (32, 4), 4: (234, 18, 18),
                        5: (1863, 108, 81, 108)}


@pytest.mark.parametrize("n", sorted(T_ROOTED_BY_FAR_SIDE))
def test_rooted_t_flows_split_by_far_side_like_the_source_flows(n):
    # two observations, not theorems: the T classes that stay connected
    # after the cut are as many as the source classes with n saddles, and
    # the far side has k edges as often as it has n - 1 - k, for k >= 1
    flows = {}
    for flow in rooted_flows(n + 1, "t"):
        flows.setdefault(far_side_edges(flow[0]), []).append(flow)
    sensed = tuple(len(flows.get(k, ())) for k in range(n - 1))
    assert sum(sensed) == sum(map(len, flows.values()))
    assert sensed == T_ROOTED_BY_FAR_SIDE[n]
    assert sensed[0] == len(rooted_flows(n, "source"))
    assert sensed[1:] == sensed[:0:-1]
    if n == 5:
        assert [_sensed_unsensed_fixed(flows[k])[1] for k in range(4)] == [
            1006, 76, 58, 80]


def test_eleven_point_saddle_node_counts_agree():
    # five saddles, one past the census limit: the rooted-map stream,
    # Tutte's numbers and the per-map enumerators over the five-edge maps
    for kind in ("source", "sink"):
        assert _sensed_unsensed_fixed(rooted_flows(5, kind)) == (1863, 1143, 423)
    assert sensed_source_classes(5) == 1863
    for reflection, count in ((False, 1863), (True, 1143)):
        maps = generate_maps(GenerationConfig(5, reflection))
        for enumerate_marks in (enumerate_source_marks, enumerate_sink_marks):
            assert sum(len(enumerate_marks(m, allow_reflection=reflection))
                       for m in maps) == count, (enumerate_marks, reflection)


# sensed, unsensed and mirror-fixed T classes with 5 saddles by category
T5_ROOTED_BY_CATEGORY = {CONNECTED_AFTER_CUT: (1863, 1006, 149),
                         FAR_SIDE_ONE_EDGE: (108, 76, 44),
                         FAR_SIDE_TWO_EDGES: (189, 138, 87)}


def test_twelve_point_saddle_connection_counts_agree():
    # five saddles, one past the census limit: the T classes over the grown
    # six-edge maps against the rooted-map stream and Burnside's lemma
    flows = rooted_flows(6, "t")
    assert _sensed_unsensed_fixed(flows) == (2160, 1220, 280)
    by_category = _by_category(flows)
    assert by_category == T5_ROOTED_BY_CATEGORY
    for i, reflection in enumerate((False, True)):
        engine = Counter(t_connection_category(mm)
                         for m in six_edge_maps(reflection)
                         for mm in _mark_classes(m, TMark, reflection))
        assert engine == {c: v[i] for c, v in by_category.items()}
