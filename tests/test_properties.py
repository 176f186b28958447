"""Structural invariants over every enumerated object, plus randomized laws."""

import json
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from sphereflows import (CanonicalCode, CombinatorialMap, GenerationConfig,
                         MarkedMap, SourceMark,
                         enumerate_sink_marks, enumerate_source_marks,
                         enumerate_t_marks, generate_maps,
                         marked_map_from_code, realize, reverse)
from sphereflows.catalog import (Catalog, CatalogEntry,
                                 build_bifurcation_catalog, build_map_catalog,
                                 export_entries, json_text)
from sphereflows.combmap import (normal_alpha, parse_token, perm_orbits,
                                 sphere_failures)

from oracles import relabel


def catalog(e, reflection=True):
    return generate_maps(GenerationConfig(e, reflection))


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_every_generated_map_is_valid(e):
    for m in catalog(e):
        assert not sphere_failures(m.sigma)
        assert all(m.alpha[m.alpha[d]] == d and m.alpha[d] != d
                   for d in range(m.n_darts))
        assert m.n_vertices - m.n_edges + m.n_faces == 2


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
def test_catalogs_closed_under_dual(e):
    tokens = {m.canonical_code().token() for m in catalog(e)}
    for m in catalog(e):
        assert m.dual().canonical_code().token() in tokens
        assert m.dual().dual().canonical_code() == m.canonical_code()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_enumerated_mark_is_legal(n):
    for m in catalog(n):
        for mm in enumerate_source_marks(m):
            assert not m.is_loop(mm.mark.dart)
        for mm in enumerate_sink_marks(m):
            assert not m.is_bridge(mm.mark.dart)
    if n >= 2:
        for mm in enumerate_t_marks(n):
            t = mm.map.vertex_orbits[mm.map.vertex_index[mm.mark.dart]]
            assert len(t) == 3
            assert not any(mm.map.alpha[d] in t for d in t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reverse_involution_over_all_classes(n):
    for m in catalog(n):
        for mm in enumerate_source_marks(m) + enumerate_sink_marks(m):
            back = reverse(reverse(mm))
            assert back.map == mm.map and back.mark == mm.mark


@pytest.mark.parametrize("n,kind,formula", [
    (1, "source", 3), (2, "source", 5), (3, "source", 7), (4, "source", 9),
    (2, "t", 6), (3, "t", 8), (4, "t", 10),
])
def test_singular_point_formula(n, kind, formula):
    if kind == "t":
        classes = enumerate_t_marks(n)
    else:
        classes = [mm for m in catalog(n) for mm in enumerate_source_marks(m)]
    for mm in classes:
        dia = realize(mm)
        assert dia.n_points == formula == mm.n_singular_points
        assert dia.check() == []


def test_sensed_classes_refine_unsensed():
    # the sensed catalogs are validated against the exact rooted-map counts
    # (test_generate); every sensed class landing in the unsensed catalog
    # extends that completeness guarantee to the default equivalence
    for e in (1, 2, 3, 4, 5):
        unsensed = {m.canonical_code().token() for m in catalog(e)}
        for m in catalog(e, reflection=False):
            assert m.canonical_code().token() in unsensed
        assert len(catalog(e, reflection=False)) >= len(catalog(e))


@st.composite
def map_with_relabeling(draw):
    e = draw(st.integers(min_value=1, max_value=3))
    maps = catalog(e)
    m = maps[draw(st.integers(min_value=0, max_value=len(maps) - 1))]
    pi = draw(st.permutations(range(m.n_darts)))
    return m, tuple(pi)


@given(map_with_relabeling())
@settings(max_examples=60, deadline=None)
def test_code_is_relabeling_invariant(case):
    m, pi = case
    assert relabel(m, pi).canonical_code() == m.canonical_code()


@given(map_with_relabeling())
@settings(max_examples=40, deadline=None)
def test_source_classes_are_relabeling_invariant(case):
    m, pi = case
    other = relabel(m, pi)
    assert ({mm.canonical_code() for mm in enumerate_source_marks(m)}
            == {mm.canonical_code() for mm in enumerate_source_marks(other)})


@st.composite
def map_with_pairing_relabeling(draw):
    """A map plus a relabeling that commutes with alpha, so marks transport."""
    e = draw(st.integers(min_value=1, max_value=3))
    maps = catalog(e)
    m = maps[draw(st.integers(min_value=0, max_value=len(maps) - 1))]
    edge_images = draw(st.permutations(range(e)))
    flips = draw(st.lists(st.booleans(), min_size=e, max_size=e))
    pi = [0] * (2 * e)
    for i in range(e):
        j = edge_images[i]
        pi[2 * i], pi[2 * i + 1] = (2 * j + 1, 2 * j) if flips[i] else (2 * j, 2 * j + 1)
    return m, tuple(pi)


@given(map_with_pairing_relabeling())
@settings(max_examples=40, deadline=None)
def test_marked_code_transports_through_relabeling(case):
    m, pi = case
    darts = [d for d in range(m.n_darts) if not m.is_loop(d)]
    if not darts:
        return
    mm = MarkedMap(m, SourceMark(darts[0]))
    other = MarkedMap(relabel(m, pi), SourceMark(pi[darts[0]]))
    assert other.canonical_code() == mm.canonical_code()


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_random_rotation_system_lands_in_the_catalog(e, data):
    sigma = data.draw(st.permutations(range(2 * e)))
    failures = sphere_failures(sigma)
    if failures:
        assert set(failures) <= {"NotConnected", "NotSpherical"}
        with pytest.raises(ValueError, match=", ".join(failures)):
            CombinatorialMap(sigma, normal_alpha(e))
    else:
        m = CombinatorialMap(sigma, normal_alpha(e))
        matches = [c for c in catalog(e)
                   if m.canonical_code() == c.canonical_code()]
        assert len(matches) == 1


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.permutations(range(n))))
@settings(max_examples=200, deadline=None)
def test_perm_orbits_partition_and_number_the_points(p):
    orbits, index = perm_orbits(p)
    assert sorted(x for orbit in orbits for x in orbit) == list(range(len(p)))
    for i, orbit in enumerate(orbits):
        assert orbit[0] == min(orbit)
        # each orbit follows p and closes at its start
        assert [p[x] for x in orbit] == [*orbit[1:], orbit[0]]
        assert all(index[x] == i for x in orbit)
    assert len(index) == len(p)


@cache
def catalog_tokens():
    """Every map and marked-map key with at most three edges."""
    tokens = []
    for m in catalog(3):
        tokens.append(m.canonical_code().token())
        tokens += [mm.canonical_code().token()
                   for mm in enumerate_source_marks(m) + enumerate_sink_marks(m)]
    tokens += [mm.canonical_code().token() for mm in enumerate_t_marks(2)]
    return tokens


@st.composite
def mutated_token(draw):
    token = draw(st.sampled_from(catalog_tokens()))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(token) - 1))
        j = draw(st.integers(min_value=0, max_value=len(token) - 1))
        char = draw(st.sampled_from("0123456789,;:-E"))
        op = draw(st.sampled_from(["replace", "insert", "delete", "swap",
                                   "kind"]))
        if op == "replace":
            token = token[:i] + char + token[i + 1:]
        elif op == "insert":
            token = token[:i] + char + token[i:]
        elif op == "delete":
            token = token[:i] + token[i + 1:]
        elif op == "swap":
            chars = list(token)
            chars[i], chars[j] = chars[j], chars[i]
            token = "".join(chars)
        else:
            kind = draw(st.sampled_from(["source", "sink", "t", "vertex"]))
            token = token.rsplit("m:", 1)[0] + f"m:{kind},{i % 12}"
    return token


@given(mutated_token())
@settings(max_examples=300, deadline=None)
def test_mutated_tokens_rebuild_or_raise_value_error(token):
    # any exception other than ValueError fails the test
    try:
        code = CanonicalCode.from_token(token)
    except ValueError:
        return
    assert len(code.sigma_images) == len(code.alpha_images) == 2 * code.n_edges
    try:
        if code.mark is None:
            code.to_map()
        else:
            assert code.mark[0] in ("source", "sink", "t")
            assert 0 <= code.mark[1] < 2 * code.n_edges
            realize(marked_map_from_code(code))
    except ValueError:
        pass


@given(mutated_token())
@settings(max_examples=300, deadline=None)
def test_json_and_dot_exports_agree_on_mutated_tokens(token):
    # both formats resolve the token and its mark, so they accept the same
    # entries; the entry's mark field and counts are those its token spells
    kind, _, label = token.rpartition("m:")[2].partition(",")
    mark = ({"kind": kind, "dart": int(label)}
            if label.removeprefix("-").isdigit() else None)
    try:
        m = parse_token(token, {})[1]
        counts = (m.n_edges, m.n_vertices, m.n_faces, m.degree_sequence())
    except ValueError:
        counts = (1, 2, 1, (1, 1))
    entry = CatalogEntry(token, *counts, mark, {}, None)
    exported = []
    for fmt in ("json", "dot"):
        try:
            export_entries([entry], fmt)
            exported.append(True)
        except ValueError:
            exported.append(False)
    assert exported[0] == exported[1], token


# the values json.loads yields: str-keyed objects, arrays, strings (lone
# surrogates and code points past the BMP included), integers of any size,
# floats with NaN and Infinity, booleans and null
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
    | st.floats() | st.text() | st.text(st.characters(min_codepoint=0x10000))
    | st.text(st.characters(categories=["Cs"])),
    lambda values: st.lists(values) | st.dictionaries(st.text(), values),
    max_leaves=20)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_json_text_is_the_stdlib_indented_encoding(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_text_spells_what_the_stdlib_spells():
    value = {"\u00e9\U0001f600": ["\x00\n\"", 2**70, -0.0, 1e300, float("nan"),
                                  float("inf"), -float("inf")],
             "empty": [[], {}, ()], "b": (True, False, None)}
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        json_text({"set": {1}})


@st.composite
def documents_with_shared_dicts(draw):
    """A document that holds the same dict objects more than once: at one
    depth, at different depths, and inside one another."""
    keys = st.text(max_size=3)
    leaves = st.none() | st.integers() | st.floats() | keys
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        shared = draw(st.dictionaries(keys, leaves | st.lists(leaves, max_size=2),
                                      min_size=1, max_size=3))
        if pool:
            shared.update(draw(st.dictionaries(keys, st.sampled_from(pool),
                                               max_size=2)))
        pool.append(shared)
    tree = draw(st.recursive(
        st.sampled_from(pool) | leaves,
        lambda values: st.lists(values, max_size=4)
        | st.dictionaries(keys, values, max_size=4),
        max_leaves=12))
    return [tree, pool, pool, {"deeper": [pool]}]


@given(documents_with_shared_dicts())
@settings(max_examples=200, deadline=None)
def test_json_text_spells_shared_dicts_as_the_stdlib(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@cache
def catalog_text(kind, n, reflection):
    if kind == "maps":
        return build_map_catalog(GenerationConfig(n, reflection)).dumps()
    return build_bifurcation_catalog(kind, n, reflection).dumps()


# None, a bool, a small int, a float, a short string, or a small list or dict
# of those; strings and keys are often a mark's own words
words = st.sampled_from(["kind", "dart", "source", "sink", "t"]) | st.text(max_size=3)
small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | words,
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(words, values, max_size=3),
    max_leaves=5)


@st.composite
def damaged_catalogs(draw):
    """A catalog's ``catalog_text`` arguments and its text with one entry
    damaged: a field deleted, or it or one of its nested items replaced by a
    JSON value."""
    source = (*draw(st.sampled_from(
        [("maps", 3), ("saddle-node", 2), ("saddle-connection", 3)])),
        draw(st.booleans()))
    doc = json.loads(catalog_text(*source))
    entry = doc["entries"][draw(st.integers(0, len(doc["entries"]) - 1))]
    key = draw(st.sampled_from(sorted(entry)))
    # export does not yet check singular_points against the realized diagram,
    # so only its deletion counts
    if key == "singular_points" or draw(st.booleans()):
        del entry[key]
        return source, json.dumps(doc)
    holder = entry
    if entry[key] and type(entry[key]) in (list, dict) and draw(st.booleans()):
        holder = entry[key]
        key = draw(st.sampled_from(sorted(holder) if type(holder) is dict
                                   else range(len(holder))))
    holder[key] = draw(small_json)
    return source, json.dumps(doc)


@given(damaged_catalogs())
@settings(max_examples=300, deadline=None)
def test_export_rejects_damage_or_ignores_it(case):
    # any exception other than ValueError fails the test; an export that
    # accepts the damaged catalog holds its undamaged entries
    source, damaged = case
    entries = Catalog.loads(catalog_text(*source)).entries
    try:
        got = Catalog.loads(damaged).entries
    except ValueError:
        return
    for fmt in ("json", "dot", "diagram-json"):
        try:
            export_entries(got, fmt)
        except ValueError:
            continue
        assert (json_text([e._asdict() for e in got])
                == json_text([e._asdict() for e in entries])), fmt
