import random
from functools import cache

import pytest

import sphereflows.generate as gen
from sphereflows import (CombinatorialMap, EdgeCountOutOfRangeError,
                         GenerationConfig, generate_maps)
from sphereflows.combmap import normal_alpha, sphere_failures
from sphereflows.generate import MAX_EDGES, MIN_EDGES

from oracles import (all_traces, map_classes, rooted_any_genus, rooted_count,
                     rooted_maps, rooted_sum, tutte_rooted)


# published counts hold through three edges; the four- and five-edge values
# are this engine's own, cross-validated below against the exact rooted-map
# enumeration (the published four-edge list is incomplete, see the census
# report and the acceptance suite)
EXPECTED_COUNTS = {1: 2, 2: 4, 3: 14, 4: 52, 5: 248}
ROOTED_COUNTS = {1: 2, 2: 9, 3: 54, 4: 378, 5: 2916}


@pytest.mark.parametrize("e,count", sorted(EXPECTED_COUNTS.items()))
def test_map_counts(e, count):
    assert len(generate_maps(GenerationConfig(e))) == count


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_brute_equals_grow(e):
    for reflection in (True, False):
        cfg = GenerationConfig(e, reflection)
        grow = generate_maps(cfg, strategy="grow")
        brute = generate_maps(cfg, strategy="brute")
        assert [m.sigma for m in grow] == [m.sigma for m in brute], reflection


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_brute_enumerates_each_rooted_map_once(e):
    # the counts are closed forms, so no canonical code is involved
    rotations = list(gen._rooted_rotations(e))
    assert len(rotations) == len(set(rotations)) == rooted_any_genus(e)
    assert all(sorted(sigma) == list(range(2 * e)) for sigma in rotations)
    spherical = [s for s in rotations if not sphere_failures(s)]
    assert len(spherical) == tutte_rooted(e)


def test_rooted_map_stream_has_tuttes_numbers():
    # the root-edge decomposition builds each rooted planar map once
    levels = rooted_maps(6)
    assert levels[0] == ((),)
    assert [len(level) for level in levels[1:]] == [
        tutte_rooted(n) for n in range(1, 7)] == [2, 9, 54, 378, 2916, 24057]
    for level in levels[1:]:
        assert len(set(level)) == len(level)
        assert not any(sphere_failures(sigma) for sigma in level)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_rooted_map_stream_equals_brute_spherical_rotations(e):
    spherical = {s for s in gen._rooted_rotations(e) if not sphere_failures(s)}
    assert set(rooted_maps(e)[e]) == spherical


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_catalog_reproduces_rooted_map_numbers(e):
    assert tutte_rooted(e) == ROOTED_COUNTS[e]
    assert rooted_count(e) == ROOTED_COUNTS[e]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_output_sorted_and_duplicate_free(e):
    maps = generate_maps(GenerationConfig(e))
    tokens = [m.canonical_code().token() for m in maps]
    assert len(set(tokens)) == len(tokens)
    keys = [m.canonical_code().sort_key for m in maps]
    assert keys == sorted(keys)


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_random_witnesses_hit_exactly_one_class(e):
    rng = random.Random(100 + e)
    codes = {m.canonical_code().token() for m in generate_maps(GenerationConfig(e))}
    alpha = normal_alpha(e)
    darts = list(range(2 * e))
    hits = 0
    for _ in range(1000):
        sigma = darts[:]
        rng.shuffle(sigma)
        failures = sphere_failures(sigma)
        if failures:
            with pytest.raises(ValueError, match=failures[0]):
                CombinatorialMap(sigma, alpha)
        else:
            hits += 1
            m = CombinatorialMap(sigma, alpha)
            assert m.canonical_code().token() in codes
    assert hits > 0


@pytest.mark.parametrize("reflection", [True, False])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_every_child_is_valid(e, reflection):
    for m in generate_maps(GenerationConfig(e, reflection)):
        for c1, c2, _ in gen._augmentations(m):
            sigma = gen._child_sigma(m.sigma, c1, c2)
            assert not sphere_failures(sigma), (m, sigma)


def test_parallel_runs_match_serial(monkeypatch):
    serial = [m.sigma for m in generate_maps(GenerationConfig(3))]
    brute = [m.sigma for m in generate_maps(GenerationConfig(3), "brute")]
    monkeypatch.setattr(gen, "_cache", {})
    parallel = [m.sigma for m in generate_maps(GenerationConfig(3, jobs=2))]
    assert parallel == serial
    parallel = [m.sigma for m in generate_maps(GenerationConfig(3, jobs=2),
                                               "brute")]
    assert parallel == brute == serial


# -- canonical construction paths

def children(e, reflection):
    """``(parent, c1, c2, tied, child)`` for every child of every map with
    ``e`` edges."""
    for m in generate_maps(GenerationConfig(e, reflection)):
        for c1, c2, tied in gen._augmentations(m):
            child = CombinatorialMap(gen._child_sigma(m.sigma, c1, c2))
            yield m, c1, c2, tied, child


def invariants_from_orbits(child):
    """Per edge of ``child``: (sorted endpoint degrees, sorted side-face
    degrees) if the edge is removable, else None, read off its orbits."""
    out = []
    for d in range(0, child.n_darts, 2):
        a, b = sorted(len(child.vertex_orbits[child.vertex_index[x]])
                      for x in (d, d + 1))
        fa, fb = sorted(len(child.face_orbits[child.face_index[x]])
                        for x in (d, d + 1))
        removable = child.face_index[d] != child.face_index[d + 1] or a == 1
        out.append((a, b, fa, fb) if removable else None)
    return out


def tied_from_orbits(child):
    """The gate's value for the last edge of ``child``, read off its orbits:
    None if a removable edge has a smaller invariant, else the first darts
    of the edges tied with it, the last edge's last."""
    invariants = invariants_from_orbits(child)
    new = invariants[-1]
    if any(inv is not None and inv < new for inv in invariants):
        return None
    return [2 * e for e, inv in enumerate(invariants) if inv == new]


def full_rule_accepts(child, allow_reflection):
    """Whether the last edge of ``child`` is in the orbit of its canonical
    removable edge: among the removable edges of least invariant, the one
    whose least label under the winning starts is least.  Starts and
    winners come from ``oracles.all_traces``, not from the kernel."""
    invariants = invariants_from_orbits(child)
    least = min(inv for inv in invariants if inv is not None)
    tied = [2 * e for e, inv in enumerate(invariants) if inv == least]
    traces = all_traces(child, allow_reflection)
    best = min(trace for trace, _, _ in traces)
    winners = [labels for trace, _, labels in traces if trace == best]

    def label(d):
        return min(min(w[d], w[d + 1]) for w in winners)

    new = child.n_darts - 2
    return new in tied and label(new) == min(label(d) for d in tied)


@pytest.mark.parametrize("reflection", [True, False])
@pytest.mark.parametrize("e", [1, 2, 3, 4])
def test_gate_invariants_match_child_orbits(e, reflection):
    for m, c1, c2, tied, child in children(e, reflection):
        assert tied == tied_from_orbits(child), (m, c1, c2)


@pytest.mark.parametrize("reflection", [True, False])
@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_gate_and_accept_match_the_full_rule(e, reflection):
    accepted = set()
    for m, c1, c2, tied, child in children(e, reflection):
        full = full_rule_accepts(child, reflection)
        gate = tied is not None
        assert gate or not full, (m, c1, c2)
        code = gen._accepted_code(m, c1, c2, tied, reflection) if gate else None
        assert (code is not None) == full, (m, c1, c2)
        if code is not None:
            assert code == child.canonical_code(allow_reflection=reflection)
            accepted.add(code)
    # six edges lie beyond GenerationConfig's range
    grown = (six_edge_maps(reflection) if e == 5
             else generate_maps(GenerationConfig(e + 1, reflection)))
    assert sorted(accepted) == [m.canonical_code(allow_reflection=reflection)
                                for m in grown]


@pytest.mark.parametrize("reflection,up_to_five,six",
                         [(True, 561, 2184), (False, 606, 2736)])
def test_grow_kernel_runs_are_bounded(monkeypatch, reflection, up_to_five, six):
    # the kernel runs once per child that passes the gate, so a gate that
    # lets a child with a smaller removable edge through raises these counts
    runs = [0]
    kernel = gen.canonical_code_for

    def counted(*args):
        runs[0] += 1
        return kernel(*args)

    monkeypatch.setattr(gen, "canonical_code_for", counted)
    monkeypatch.setattr(gen, "_cache", {})
    parents = generate_maps(GenerationConfig(5, reflection))
    assert runs[0] <= up_to_five
    runs[0] = 0
    gen._grow(parents, reflection)
    assert runs[0] <= six


@cache
def six_edge_maps(reflection):
    """The classes one grow level above the five-edge catalog."""
    parents = generate_maps(GenerationConfig(5, reflection))
    return [code.to_map() for code in sorted(gen._grow(parents, reflection))]


@pytest.mark.parametrize("reflection,count", [(True, 1416), (False, 2071)])
def test_six_edge_level_counts(reflection, count):
    # Liskovets, "A census of nonisomorphic planar maps" (1981); OEIS
    # A006384 (unsensed) and A000087 (sensed)
    assert len(six_edge_maps(reflection)) == count


def test_six_edge_level_reproduces_rooted_map_number():
    assert rooted_sum(six_edge_maps(False)) == tutte_rooted(6) == 24057


def test_map_classes_count_rooted_maps():
    # each class is found among the rooted maps as its least re-rooting, so
    # no canonical code is computed on the oracle side
    sensed, unsensed = zip(*map(map_classes, range(1, 7)))
    assert sensed == (2, 4, 14, 57, 312, 2071)  # OEIS A000087
    assert unsensed == (2, 4, 14, 52, 248, 1416)  # OEIS A006384
    for reflection, counts in ((False, sensed), (True, unsensed)):
        engine = [generate_maps(GenerationConfig(e, reflection))
                  for e in range(1, 6)]
        assert (*map(len, engine), len(six_edge_maps(reflection))) == counts


def test_unknown_strategy():
    with pytest.raises(ValueError):
        generate_maps(GenerationConfig(2), strategy="magic")
    with pytest.raises(ValueError):
        generate_maps(GenerationConfig(2), strategy="auto")


@pytest.mark.parametrize("e", [MIN_EDGES - 1, MAX_EDGES + 1, -1])
def test_edge_count_out_of_range(e):
    with pytest.raises(EdgeCountOutOfRangeError):
        GenerationConfig(e)


def test_bad_jobs():
    with pytest.raises(ValueError):
        GenerationConfig(2, jobs=0)

