import json

import pytest
from hypothesis import given, strategies as st

from altchain import (AltChain, alt_chain_complex, boundary, canonicalize,
                      enumerate_generators, face_class_compat,
                      homology_presented, ordered_boundary)
from altchain.alt_chains import (presentation_from_json, presentation_to_json,
                                 sorting_sign)
from altchain.errors import BudgetExceededError
from altchain.permutations import act, enumerate_group


def brute_sorting_sign(t):
    # parity oracle: bubble sort and count the swaps
    seq = list(t)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6,
                unique=True))
def test_sorting_sign_matches_bubble_sort(entries):
    assert sorting_sign(tuple(entries)) == brute_sorting_sign(entries)


def test_canonicalize_examples():
    cls, coeff = canonicalize((1, 0, 2))
    assert (cls.canonical_tuple, cls.is_torsion, coeff) == ((0, 1, 2), False, -1)
    cls, coeff = canonicalize((2, 0, 1))
    assert (cls.canonical_tuple, cls.is_torsion, coeff) == ((0, 1, 2), False, 1)
    cls, coeff = canonicalize((0, 0, 1))
    assert (cls.canonical_tuple, cls.is_torsion, coeff) == ((0, 0, 1), True, 1)


def test_canonicalize_respects_action():
    g = (3, 1, 2)
    for s in enumerate_group(3):
        cls, coeff = canonicalize(act(s, g))
        base_cls, base_coeff = canonicalize(g)
        assert cls == base_cls
        assert coeff == s.sign * base_coeff


def test_altchain_arithmetic_and_torsion_order():
    free = AltChain.from_generator((0, 1, 2))
    assert not (free + free).is_zero()          # free classes have infinite order
    torsion = AltChain.from_generator((0, 0, 1))
    assert (torsion + torsion).is_zero()        # torsion classes have order 2
    assert not torsion.is_zero()                # and order exactly 2, not 1
    assert torsion.scale(3) == torsion
    assert (free - free).is_zero()
    with pytest.raises(ValueError):
        free + AltChain.from_generator((0, 1))


def test_ordered_boundary_basic():
    assert ordered_boundary({(0, 1): 1}) == {(1,): 1, (0,): -1}
    assert ordered_boundary({(0, 0): 1}) == {}
    assert ordered_boundary({(0, 1, 2): 1}) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_boundary_examples():
    assert boundary(AltChain.from_generator((0, 1))) == \
        AltChain(0, free={(1,): 1, (0,): -1})
    assert boundary(AltChain.from_generator((0, 0))).is_zero()
    b = boundary(AltChain.from_generator((0, 0, 1)))
    assert b == AltChain(1, torsion={(0, 0): 1})
    assert not b.free


def test_boundary_squared_zero(sphere):
    pres = alt_chain_complex(sphere, 3)
    for n in (2, 3):
        for t in pres.free_generators[n] + pres.torsion_generators[n]:
            assert boundary(boundary(AltChain.from_generator(t))).is_zero()


def test_boundary_respects_quotient(sphere_index):
    # pushing a reordered generator through the boundary matches scaling
    # the canonical boundary by the parity
    for n in (1, 2, 3):
        for g in sphere_index.generators(n)[::5]:
            base = boundary(AltChain.from_generator(g))
            for s in enumerate_group(n + 1):
                lhs = boundary(AltChain.from_generator(act(s, g)))
                assert lhs == base.scale(s.sign)


def test_boundary_equals_projected_ordered_boundary(sphere_index):
    # projecting then taking the boundary agrees with taking the ordered
    # boundary then projecting: the square that makes the quotient boundary
    # well defined
    for n in (1, 2, 3):
        for g in sphere_index.generators(n)[::7]:
            direct = boundary(AltChain.from_generator(g))
            via_ordered = AltChain.from_ordered(n - 1, ordered_boundary({g: 1}))
            assert direct == via_ordered


def test_face_class_compat_examples():
    from altchain.permutations import Permutation
    assert face_class_compat((0, 1, 2), Permutation.identity(2), 1)
    assert face_class_compat((0, 1, 2), Permutation((1, 0)), 1)
    assert face_class_compat((0, 0, 1), Permutation((1, 0)), 2)


def test_presentation_point(point):
    pres = alt_chain_complex(point, 4)
    assert [len(f) for f in pres.free_generators] == [1, 0, 0, 0, 0]
    assert [len(t) for t in pres.torsion_generators] == [0, 1, 1, 1, 1]
    # lifted boundary alternates zero and the identity on the single
    # torsion generator
    assert pres.boundary_matrix(1) == [[0]]
    assert pres.boundary_matrix(2) == [[1]]
    assert pres.boundary_matrix(3) == [[0]]
    assert pres.boundary_matrix(4) == [[1]]
    assert [str(g) for g in homology_presented(pres)] == ["Z", "0", "0", "0"]


def test_presentation_sphere_counts(sphere):
    pres = alt_chain_complex(sphere, 3)
    assert [len(f) for f in pres.free_generators] == [4, 6, 4, 0]
    # degree 2 torsion: two sorted repeats per edge plus one per vertex
    assert len(pres.torsion_generators[2]) == 2 * 6 + 4
    assert len(pres.torsion_generators[0]) == 0
    rel = pres.relation_matrix(2)
    assert len(rel) == pres.generator_count(2)
    assert all(rel[4 + j][j] == 2 for j in range(len(pres.torsion_generators[2])))


def test_presentation_budget():
    from altchain.complex_model import SimplicialComplex
    K = SimplicialComplex.from_facets(4, [[0, 1, 2, 3]])
    with pytest.raises(BudgetExceededError):
        alt_chain_complex(K, 3, budget=5)


def test_presentation_roundtrip(rp2):
    pres = alt_chain_complex(rp2, 3)
    data = json.loads(json.dumps(presentation_to_json(pres)))
    back = presentation_from_json(data)
    assert back.max_degree == pres.max_degree
    assert back.free_generators == pres.free_generators
    assert back.torsion_generators == pres.torsion_generators
    for n in range(1, 4):
        assert back.boundary_matrix(n) == pres.boundary_matrix(n)
        assert back.relation_matrix(n) == pres.relation_matrix(n)
    assert homology_presented(back) == homology_presented(pres)


def _matrix(rows, cols, dense):
    return {"format_version": 1, "rows": rows, "cols": cols,
            "entries": [str(v) for row in dense for v in row]}


def test_presentation_from_json_rejects_inconsistent_input(rp2):
    from altchain.errors import FormatError
    good = presentation_to_json(alt_chain_complex(rp2, 3))
    pres = alt_chain_complex(rp2, 3)
    d2 = pres.boundary_matrix(2)
    d1 = pres.boundary_matrix(1)
    rel1 = pres.relation_matrix(1)
    f1 = len(pres.free_generators[1])

    def mutated(**changes):
        data = json.loads(json.dumps(good))
        for key, (n, value) in changes.items():
            data[key][str(n)] = value
        return data

    # boundary 2 of the wrong shape: 1x1, and one extra zero column
    with pytest.raises(FormatError):
        presentation_from_json(mutated(boundaries=(2, _matrix(1, 1, [[0]]))))
    with pytest.raises(FormatError):
        presentation_from_json(mutated(boundaries=(
            2, _matrix(len(d2), len(d2[0]) + 1, [row + [0] for row in d2]))))
    # a free vertex row hit by a torsion edge column
    joined = [row[:] for row in d1]
    joined[0][f1] = 1
    with pytest.raises(FormatError):
        presentation_from_json(mutated(boundaries=(
            1, _matrix(len(d1), len(d1[0]), joined))))
    # relations other than 2*e_t on the torsion generators
    doubled = [[2 * v for v in row] for row in rel1]
    with pytest.raises(FormatError):
        presentation_from_json(mutated(relations=(
            1, _matrix(len(rel1), len(rel1[0]), doubled))))
    with pytest.raises(FormatError):
        presentation_from_json(mutated(relations=(1, _matrix(0, 0, []))))
    # an unknown top-level field
    with pytest.raises(FormatError):
        presentation_from_json(dict(good, comment="hand edited"))
    # a max_degree that is not a JSON integer, though int() would take it
    for bad in (3.0, 3.7, "3", True):
        with pytest.raises(FormatError):
            presentation_from_json(dict(good, max_degree=bad))
    assert presentation_from_json(good).max_degree == 3


def test_dual_dimension_invariant(corpus):
    # rational alternating cochain dimension == free quotient generators
    from altchain.cochain_algebra import alt_basis
    for name, K in corpus:
        index = enumerate_generators(K, 3)
        pres = alt_chain_complex(K, 3)
        for n in range(4):
            assert alt_basis(index, n).dim == len(pres.free_generators[n])
