import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from altchain import (BudgetExceededError, FormatError, SimplicialComplex,
                      enumerate_generators, face, load_complex)
from oracles import product_filter_generators, reorder, reorderings, subdivision


def brute_force_tuple_count(facets, vertex_count, n):
    # independent oracle: scan the whole tuple space and keep tuples whose
    # support lies in the downward closure computed by hand
    closure = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            closure.update(frozenset(c) for c in itertools.combinations(sorted(f), k))
    return sum(1 for t in itertools.product(range(vertex_count), repeat=n + 1)
               if frozenset(t) in closure)


def test_boundary_tetrahedron_counts(sphere):
    assert sphere.vertex_count == 4
    assert sphere.f_vector() == (4, 6, 4)
    assert sphere.dimension() == 2
    assert not sphere.has_simplex({0, 1, 2, 3})


def test_one_point_complex(point):
    assert point.f_vector() == (1,)
    assert point.simplex_set == frozenset({frozenset({0})})


def test_rp2_closure_counts(rp2):
    facets = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 3, 4], [0, 3, 5],
              [1, 2, 3], [1, 3, 4], [1, 4, 5], [2, 3, 5], [2, 4, 5]]
    expected = set()
    for f in facets:
        for k in range(1, 4):
            expected.update(frozenset(c) for c in itertools.combinations(f, k))
    assert rp2.simplex_set == frozenset(expected)
    assert rp2.f_vector() == (6, 15, 10)


def test_simplices_of_dim_matches_filter_and_sort(corpus):
    for _, K in corpus:
        for n in range(-1, K.dimension() + 2):
            expected = sorted(tuple(sorted(s)) for s in K.simplex_set
                              if len(s) == n + 1)
            got = K.simplices_of_dim(n)
            assert type(got) is list and got == expected
            # each call returns a fresh list, so a caller may change it
            got.append(None)
            assert K.simplices_of_dim(n) == expected


def test_generator_counts_sphere(sphere, sphere_index):
    facets = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    for n in range(4):
        assert sphere_index.count(n) == brute_force_tuple_count(facets, 4, n)
    assert sphere_index.count(1) == 16
    assert sphere_index.count(3) == 232


def test_generator_counts_point(point):
    index = enumerate_generators(point, 3)
    assert [index.count(n) for n in range(4)] == [1, 1, 1, 1]
    assert index.generators(2) == ((0, 0, 0),)


def test_face_examples():
    assert face(("a", "b", "c"), 1) == ("a", "c")
    assert face(("a", "a", "b"), 0) == ("a", "b")
    assert face((0, 1, 2, 3), 3) == (0, 1, 2)


def test_face_errors():
    with pytest.raises(ValueError):
        face((0, 1), 2)
    with pytest.raises(ValueError):
        face((0,), 0)


def test_simplicial_identity(sphere):
    # face(face(g, i), j) == face(face(g, j+1), i) for i <= j, the relation
    # behind boundary-squared vanishing; exhaustive through degree 4
    index = enumerate_generators(sphere, 4)
    for n in range(2, 5):
        for g in index.generators(n):
            for j in range(n):
                for i in range(j + 1):
                    assert face(face(g, i), j) == face(face(g, j + 1), i)


def test_generators_closed_under_faces_and_action(sphere_index):
    for n in range(1, 4):
        for g in sphere_index.generators(n):
            for i in range(n + 1):
                assert sphere_index.is_generator(face(g, i))
        for g in sphere_index.generators(n)[::7]:
            for images, _ in reorderings(n + 1):
                assert sphere_index.is_generator(reorder(images, g))


def test_enumeration_deterministic(sphere):
    a = enumerate_generators(sphere, 3)
    b = enumerate_generators(sphere, 3)
    for n in range(4):
        assert a.generators(n) == b.generators(n)
    assert list(a.generators(1)) == sorted(a.generators(1))


def test_position_roundtrip(sphere_index):
    for n in range(4):
        for i, g in enumerate(sphere_index.generators(n)):
            assert sphere_index.positions(len(g) - 1)[g] == i
    assert not sphere_index.is_generator((0, 1, 2, 3))  # support not a simplex


def assert_matches_oracle(K, cap, exhaustive=True):
    index = enumerate_generators(K, cap)
    expected = product_filter_generators(K, cap)
    for n in range(cap + 1):
        assert index.count(n) == len(expected[n]), (K.name, cap, n)
        assert index.generators(n) == expected[n], (K.name, cap, n)
        assert len(index.generators(n)) == index.count(n)
        assert index.positions(n) == {g: i for i, g in enumerate(expected[n])}
    if not exhaustive:
        return
    members = [set(level) for level in expected]
    for length in range(1, cap + 3):
        for t in itertools.product(range(K.vertex_count), repeat=length):
            assert index.is_generator(t) == (length <= cap + 1 and t in members[length - 1]), \
                (K.name, cap, t)


def test_generators_match_product_filter_oracle(corpus, sphere):
    boundary_5 = SimplicialComplex.from_facets(
        6, itertools.combinations(range(6), 5), name="boundary_5_simplex")
    solid_4 = SimplicialComplex.from_facets(5, [range(5)], name="solid_4_simplex")
    sd_sphere = subdivision(sphere)
    assert sd_sphere.f_vector() == (14, 36, 24)
    for K in [K for _, K in corpus] + [boundary_5, solid_4, sd_sphere]:
        for cap in range(5):
            # 14^(cap+2) tuples would be millions at caps 3 and 4 on sd(S^2)
            assert_matches_oracle(K, cap, exhaustive=K.vertex_count ** (cap + 2) <= 300_000)


@st.composite
def small_complexes(draw):
    """Up to six vertex indices, some possibly in no facet."""
    vertex_count = draw(st.integers(1, 6))
    facets = draw(st.lists(st.sets(st.integers(0, vertex_count - 1), min_size=1,
                                   max_size=4), min_size=1, max_size=5))
    return SimplicialComplex.from_facets(vertex_count, facets, name="drawn")


@settings(max_examples=60)
@given(small_complexes(), st.integers(0, 4))
def test_drawn_generators_match_product_filter_oracle(K, cap):
    assert_matches_oracle(K, cap)


def test_degrees_are_built_when_first_read(sphere):
    index = enumerate_generators(sphere, 4)
    assert [index.count(n) for n in range(5)] == [4, 16, 64, 232, 784]
    assert index.is_generator((0, 1, 1, 2)) and not index.is_generator((0, 1, 2, 3))
    assert index._levels == [] and index._tables == {}
    index.positions(2)[(0, 1, 2)]
    assert len(index._levels) == 3 and list(index._tables) == [2]


def test_budget_exceeded(torus):
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_generators(torus, 3, budget=100)
    # the running total stops at degree 2, the first one past the budget
    assert exc.value.required == 7 + 49 + 217
    assert exc.value.budget == 100


def test_load_complex_strictness():
    good = {"format_version": 1, "vertices": 3, "facets": [[0, 1], [1, 2]]}
    K = load_complex(json.dumps(good))
    assert K.f_vector() == (3, 2)

    with pytest.raises(FormatError):
        load_complex(json.dumps({**good, "extra": 1}))
    # the version is the JSON integer 1, not a value equal to it
    for version in (True, 1.0):
        with pytest.raises(FormatError):
            load_complex(json.dumps({**good, "format_version": version}))
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": 3}))
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": 3, "facets": [[]]}))
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": 3, "facets": [[0, 7]]}))
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": 3, "facets": [[0, 1.5]]}))
    # JSON booleans are not integers: neither a vertex count nor an index
    for bad in ({"vertices": True, "facets": [[0]]},
                {"vertices": 3, "facets": [[0, True]]},
                {"vertices": 3, "facets": [[False]]}):
        with pytest.raises(FormatError):
            load_complex(json.dumps(bad))
    # vertex names and the facet entries of a name-list complex are strings
    for bad in ({"vertices": ["a", ["b"]], "facets": [[0]]},
                {"vertices": ["1", 1], "facets": [["1"]]},
                {"vertices": ["a", None], "facets": [["a"]]},
                {"vertices": ["a", "b"], "facets": [["a", ["b"]]]},
                {"vertices": ["a", "b"], "facets": [["a", 1]]}):
        with pytest.raises(FormatError):
            load_complex(json.dumps(bad))
    # name and provenance, when present, are JSON strings
    assert load_complex({**good, "name": "path", "provenance": "by hand"}).name == "path"
    for key in ("name", "provenance"):
        for bad in ([1, {"a": None}], 3, None, True, {"a": "b"}):
            with pytest.raises(FormatError):
                load_complex(json.dumps({**good, key: bad}))
    with pytest.raises(FormatError):
        load_complex("not json {")
    with pytest.raises(FormatError):
        load_complex(json.dumps({**good, "format_version": 99}))


def test_load_complex_named_vertices():
    data = {"vertices": ["a", "b", "c"], "facets": [["a", "b"], ["b", "c"]],
            "name": "path"}
    K = load_complex(json.dumps(data))
    assert K.vertex_names == ("a", "b", "c")
    assert K.has_simplex({0, 1}) and K.has_simplex({1, 2})
    assert not K.has_simplex({0, 2})
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": ["a", "a"], "facets": [["a"]]}))
    with pytest.raises(FormatError):
        load_complex(json.dumps({"vertices": ["a"], "facets": [["z"]]}))


def test_from_facets_index_range():
    with pytest.raises(FormatError):
        SimplicialComplex.from_facets(2, [[0, 2]])
    with pytest.raises(FormatError):
        SimplicialComplex.from_facets(2, [[-1]])
