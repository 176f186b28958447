import random
import sys

import pytest

import sphereflows.combmap as combmap
import sphereflows.generate as gen
from sphereflows import (CanonicalCode, CombinatorialMap, GenerationConfig,
                         InvalidMarkError, MarkedMap, SinkMark, SourceMark,
                         TMark, generate_maps)
from sphereflows.catalog import build_census_report
from sphereflows.combmap import (_least_trace, canonical_code_for,
                                 normal_alpha, sphere_failures)

from oracles import all_traces, maps_isomorphic, mirror, relabel


def all_maps(max_edges=3, reflection=True):
    out = []
    for e in range(1, max_edges + 1):
        out.extend(generate_maps(GenerationConfig(e, reflection)))
    return out


class TestValidation:
    def test_segment_is_valid(self):
        m = CombinatorialMap((0, 1), (1, 0))
        assert m.validate() is None
        assert (m.n_vertices, m.n_faces) == (2, 1)

    def test_loop_is_valid(self):
        m = CombinatorialMap((1, 0), (1, 0))
        assert m.validate() is None
        assert (m.n_vertices, m.n_faces) == (1, 2)

    def test_two_disjoint_segments_not_connected(self):
        assert "NotConnected" in sphere_failures((0, 1, 2, 3), (1, 0, 3, 2))
        with pytest.raises(ValueError, match="NotConnected"):
            CombinatorialMap((0, 1, 2, 3), (1, 0, 3, 2))

    def test_interleaved_loops_not_spherical(self):
        # two loops at one vertex with alternating rotation close up a torus
        assert sphere_failures((2, 3, 1, 0), (1, 0, 3, 2)) == ["NotSpherical"]
        with pytest.raises(ValueError, match="NotSpherical"):
            CombinatorialMap((2, 3, 1, 0), (1, 0, 3, 2))

    def test_alpha_with_fixed_point_reports_not_involution(self):
        with pytest.raises(ValueError, match="NotInvolution"):
            CombinatorialMap((1, 0), (0, 1))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            CombinatorialMap((0, 0), (1, 0))

    def test_zero_edges_rejected(self):
        with pytest.raises(ValueError):
            CombinatorialMap((), ())


class TestOrbits:
    def test_loop_orbits(self):
        loop = CombinatorialMap((1, 0))
        assert loop.vertex_orbits == ((0, 1),)
        assert loop.face_orbits == ((0,), (1,))

    def test_segment_orbits(self):
        seg = CombinatorialMap((0, 1))
        assert seg.vertex_orbits == ((0,), (1,))
        assert seg.face_orbits == ((0, 1),)

    def test_theta_has_three_faces(self, named):
        assert named["theta"].n_faces == 3

    @pytest.mark.parametrize("e", [1, 2, 3, 4])
    def test_orbit_partition_and_euler(self, e):
        for m in generate_maps(GenerationConfig(e)):
            darts = sorted(d for orb in m.vertex_orbits for d in orb)
            assert darts == list(range(m.n_darts))
            assert m.n_vertices + m.n_faces == m.n_edges + 2

    def test_faces_are_phi_orbits(self, named):
        for m in named.values():
            for orbit in m.face_orbits:
                assert all(m.sigma[m.alpha[d]] in orbit for d in orbit)
                phi0 = m.sigma[m.alpha[orbit[0]]]
                assert m.face_of(phi0) == m.face_of(orbit[0])


class TestDual:
    def test_segment_loop_duality(self, named):
        assert named["segment"].dual().canonical_code() \
            == named["loop"].canonical_code()
        assert named["loop"].dual().canonical_code() \
            == named["segment"].canonical_code()

    def test_dual_is_exact_involution(self):
        for m in all_maps(3):
            assert m.dual().dual() == m

    def test_dual_swaps_counts(self):
        for m in all_maps(3):
            d = m.dual()
            assert (d.n_vertices, d.n_faces) == (m.n_faces, m.n_vertices)
            assert d.n_edges == m.n_edges

    def test_dual_degrees_are_face_degrees(self):
        for m in generate_maps(GenerationConfig(4)):
            face_degrees = sorted((len(o) for o in m.face_orbits), reverse=True)
            assert m.dual().degree_sequence() == tuple(face_degrees)


def with_scrambled_copies(maps, seed):
    """Each map, then a relabeled copy, so the winning starts are not always
    the first darts the kernel tries."""
    rng = random.Random(seed)
    for m in maps:
        yield m
        pi = list(range(m.n_darts))
        rng.shuffle(pi)
        yield relabel(m, pi)


def mark_candidates(m, saddles=4):
    """Every source, sink and T candidate on ``m`` with at most ``saddles``
    saddles (E for source and sink marks, E - 1 for T marks)."""
    out = []
    if m.n_edges <= saddles:
        out += [SourceMark(d) for d in range(m.n_darts) if not m.is_loop(d)]
        out += [SinkMark(d) for d in range(m.n_darts) if not m.is_bridge(d)]
    if m.n_edges - 1 <= saddles:
        for orbit in m.vertex_orbits:
            if len(orbit) == 3 and not any(m.alpha[d] in orbit for d in orbit):
                out += [TMark(d) for d in orbit]
    return out


class TestLeastTraceKernel:
    """The early-abort kernel against the full trace of every start."""

    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_least_trace_and_every_winner(self, e, reflection):
        maps = generate_maps(GenerationConfig(e, reflection))
        for m in with_scrambled_copies(maps, seed=e):
            traces = all_traces(m, reflection)
            least = min(t for t, _, _ in traces)
            trace, winners = _least_trace(m.sigma, m.alpha, reflection)
            assert trace == least
            expected = sorted((r, labels) for t, r, labels in traces
                              if t == least)
            # one winning start per automorphism: dropping a tying start
            # changes this count
            assert len(winners) == len(expected)
            assert sorted(winners) == expected

    @pytest.mark.parametrize("reflection", [True, False])
    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_mark_code_is_least_trace_then_mark_value(self, e, reflection):
        maps = generate_maps(GenerationConfig(e, reflection))
        for m in with_scrambled_copies(maps, seed=10 + e):
            traces = all_traces(m, reflection)
            for mark in mark_candidates(m):
                best = min(t + (mark.trace_value(labels, m.alpha, r),)
                           for t, r, labels in traces)
                expected = CanonicalCode(e, best[:-1:2], best[1:-1:2],
                                         (mark.kind, best[-1]))
                assert m.canonical_code(mark, reflection) == expected, mark

    def test_every_kernel_run_goes_through_canonical_code_for(self, monkeypatch):
        # both are wrapped wherever they were imported, as the benchmark's
        # traced replay wraps canonical_code_for, so that the replay's count
        # of canonical codes is the count of kernel runs
        calls = {"_least_trace": 0, "canonical_code_for": 0}
        modules = [mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "sphereflows"]
        for name in calls:
            fn = getattr(combmap, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, counted)
        monkeypatch.setattr(gen, "_cache", {})
        build_census_report()
        generate_maps(GenerationConfig(3), strategy="brute")
        assert calls["canonical_code_for"] == calls["_least_trace"] > 0

    def test_disconnected_map_has_no_code(self):
        with pytest.raises(ValueError):
            canonical_code_for((0, 1, 2, 3), (1, 0, 3, 2), True)


class TestCanonicalCode:
    def test_segment_loop_codes_differ(self, named):
        assert named["segment"].canonical_code() != named["loop"].canonical_code()

    def test_two_edge_codes_distinct(self):
        codes = {m.canonical_code().token()
                 for m in generate_maps(GenerationConfig(2))}
        assert len(codes) == 4

    def test_relabel_invariance(self):
        rng = random.Random(7)
        for m in all_maps(3):
            pi = list(range(m.n_darts))
            for _ in range(5):
                rng.shuffle(pi)
                assert relabel(m, pi).canonical_code() == m.canonical_code()

    def test_scrambled_alpha_is_renormalized(self):
        # a valid 3-edge map with edges paired as (0,3)(1,4)(2,5)
        m = CombinatorialMap((1, 2, 0, 5, 4, 3), (3, 4, 5, 0, 1, 2))
        assert m.alpha == normal_alpha(3)
        assert sum(m.canonical_code() == other.canonical_code()
                   for other in all_maps(3)) == 1

    def test_token_round_trip(self):
        for m in all_maps(3):
            code = m.canonical_code()
            assert CanonicalCode.from_token(code.token()) == code
            assert code.to_map().canonical_code() == code

    def test_marked_token_round_trip(self, named):
        mm = MarkedMap(named["chain2"], SourceMark(1))
        code = mm.canonical_code()
        parsed = CanonicalCode.from_token(code.token())
        assert parsed == code
        assert parsed.mark[0] == "source"

    def test_malformed_token(self):
        with pytest.raises(ValueError):
            CanonicalCode.from_token("E:1;bogus")

    @pytest.mark.parametrize("token", [
        "E:2;s:1,0;a:1,0;m:-",            # E disagrees with len(s) / 2
        "E:1;s:1,0;a:1,0,3,2;m:-",        # len(a) != len(s)
        "E:1;s:1,0;a:1,0;m:vertex,0",     # unknown mark kind
        "E:1;s:1,0;a:1,0;m:source,7",     # label outside 0..2E-1
        "E:1;s:1,0;a:1,0;m:sink,-1",
        "E:1;s:5,0;a:1,0;m:-",            # s is not a permutation
        "E:1;s:1,0;a:1,1;m:-",            # a is not a permutation
        # spellings other than the one the code writes
        "E:2;s:0,2,1,3;a:1,0,3,2;m:source,0;x:9",
        "m:source,0;E:2;s:0,2,1,3;a:1,0,3,2",
        "E:02;s: 0,2,1,3;a:1,0,3,2;m:source,+0",
        "E:2;E:2;s:0,2,1,3;a:1,0,3,2;m:source,0",
    ])
    def test_strict_token_rejects(self, token):
        with pytest.raises(ValueError):
            CanonicalCode.from_token(token)

    def test_invalid_mark_dart(self, named):
        with pytest.raises(InvalidMarkError):
            named["segment"].canonical_code(SourceMark(5))

    def test_mirror_equivalent_by_default(self):
        for e in (1, 2, 3, 4):
            for m in generate_maps(GenerationConfig(e)):
                assert mirror(m).canonical_code() == m.canonical_code()

    def test_reflection_flag_can_distinguish(self):
        # chiral maps first appear at four edges
        sensed = generate_maps(GenerationConfig(4, allow_reflection=False))
        unsensed = generate_maps(GenerationConfig(4))
        assert len(sensed) > len(unsensed)
        chiral = [m for m in sensed
                  if mirror(m).canonical_code(allow_reflection=False)
                  != m.canonical_code(allow_reflection=False)]
        assert chiral
        assert all(mirror(m).canonical_code() == m.canonical_code()
                   for m in chiral)


class TestAreEquivalent:
    """Equivalence is equality of canonical codes, mark kind included."""

    def test_reflexive(self):
        for m in all_maps(2):
            assert m.canonical_code() == m.canonical_code()

    def test_chain_vs_segment_loop(self, named):
        assert named["chain2"].canonical_code() \
            != named["segment_loop"].canonical_code()

    def test_kind_mismatch_marked_vs_plain(self, named):
        mm = MarkedMap(named["chain2"], SourceMark(0))
        assert mm.canonical_code() != named["chain2"].canonical_code()

    def test_kind_mismatch_source_vs_sink(self, named):
        a = MarkedMap(named["segment_loop"], SourceMark(0))
        b = MarkedMap(named["segment_loop"], SinkMark(2))
        assert a.canonical_code() != b.canonical_code()


class TestCompleteInvariant:
    """Code equality must coincide with exhaustive isomorphism search."""

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_catalog_pairwise(self, e):
        maps = generate_maps(GenerationConfig(e))
        for i, a in enumerate(maps):
            for b in maps[i:]:
                expected = maps_isomorphic(a, b)
                got = a.canonical_code() == b.canonical_code()
                assert got == expected
                assert got == (a is b)

    def test_random_relabels_against_oracle(self):
        rng = random.Random(11)
        for m in generate_maps(GenerationConfig(2)):
            pi = list(range(m.n_darts))
            for _ in range(3):
                rng.shuffle(pi)
                other = relabel(m, pi)
                assert maps_isomorphic(m, other)
                assert other.canonical_code() == m.canonical_code()
