import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from altchain import (AltChain, alt_chain_complex, boundary, canonicalize,
                      enumerate_generators, face_class_compat,
                      homology_presented, ordered_boundary)
from altchain.alt_chains import (descend, presentation_from_json,
                                 presentation_to_json, sorting_sign)
from altchain.complex_model import SimplicialComplex
from altchain.errors import BudgetExceededError
from altchain.integer_homology import IntegerMatrix, matrix_from_json, matrix_to_json
from altchain.permutations import act, enumerate_group
from oracles import descended_boundary_matrices, product_filter_generators, subdivision

DATA = Path(__file__).parent / "data"


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
    assert canonicalize((1, 0, 2)) == ((0, 1, 2), False, -1)
    assert canonicalize((2, 0, 1)) == ((0, 1, 2), False, 1)
    assert canonicalize((0, 0, 1)) == ((0, 0, 1), True, 1)


def test_canonicalize_respects_action():
    g = (3, 1, 2)
    for s in enumerate_group(3):
        t, is_torsion, coeff = canonicalize(act(s, g))
        base_t, base_torsion, base_coeff = canonicalize(g)
        assert (t, is_torsion) == (base_t, base_torsion)
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


def linear_map(images):
    """The ordered chain map sending each generator g to images[g]."""
    def apply(chain):
        out: dict = {}
        for g, c in chain.items():
            for u, v in images[g].items():
                out[u] = out.get(u, 0) + c * v
        return out
    return apply


def test_descend_checks_each_torsion_image():
    # the free terms of (0, 0) and (1, 1) cancel only in their sum, since
    # (1, 0) is -(0, 1) in the quotient; a check on the summed torsion
    # image, as the hand-written boundary made, would miss both
    bad = linear_map({(0, 0): {(0, 1): 1}, (1, 1): {(1, 0): 1}})
    for torsion in ({(0, 0): 1}, {(1, 1): 1}, {(0, 0): 1, (1, 1): 1}):
        with pytest.raises(ArithmeticError):
            descend(bad, AltChain(1, torsion=torsion), 1)
    # free terms that cancel within one generator's image are fine, and a
    # free generator may map to anything
    good = linear_map({(0, 0): {(0, 1): 1, (1, 0): 1, (2, 2): 1},
                       (0, 2): {(0, 1): 2, (1, 1): 1}})
    chain = AltChain(1, free={(0, 2): 3}, torsion={(0, 0): 1})
    assert descend(good, chain, 1) == AltChain(1, free={(0, 1): 6},
                                               torsion={(1, 1): 1, (2, 2): 1})


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
    assert pres.boundary_matrix(0) == IntegerMatrix(0, 1, {})
    for n in (1, 3):
        assert pres.boundary_matrix(n) == IntegerMatrix(1, 1, {})
    for n in (2, 4):
        assert pres.boundary_matrix(n) == IntegerMatrix(1, 1, {(0, 0): 1})
    assert [str(g) for g in homology_presented(pres)] == ["Z", "0", "0", "0"]


def test_presentation_generators_match_product_filter_oracle(corpus, full_tetrahedron):
    # the sorted tuple generators, strictly increasing (free) or with a
    # repeat (torsion), in lexicographic order
    for K in [K for _, K in corpus] + [full_tetrahedron]:
        pres = alt_chain_complex(K, 4)
        for n, level in enumerate(product_filter_generators(K, 4)):
            ascending = [t for t in level if list(t) == sorted(t)]
            assert pres.free_generators[n] == tuple(t for t in ascending if len(set(t)) == n + 1)
            assert pres.torsion_generators[n] == tuple(t for t in ascending if len(set(t)) <= n)


def test_presentation_matches_descended_oracle(corpus, sphere, full_tetrahedron):
    # the ordered face sum on sorted tuples, torsion rows mod 2, against
    # each generator's boundary descended through AltChain
    boundary_5 = SimplicialComplex.from_facets(
        6, [[v for v in range(6) if v != w] for w in range(6)], name="boundary_5_simplex")
    cases = [(K, 4) for _, K in corpus] + [(subdivision(sphere), 3), (boundary_5, 3),
                                          (full_tetrahedron, 4)]
    for K, cap in cases:
        pres = alt_chain_complex(K, cap)
        expected = descended_boundary_matrices(pres.free_generators,
                                               pres.torsion_generators)
        assert pres.boundary_matrix(0) == IntegerMatrix(0, pres.generator_count(0), {})
        for n in range(1, cap + 1):
            assert pres.boundary_matrix(n) == expected[n], (K.name, n)


def test_presentation_sphere_counts(sphere):
    pres = alt_chain_complex(sphere, 3)
    assert [len(f) for f in pres.free_generators] == [4, 6, 4, 0]
    # degree 2 torsion: two sorted repeats per edge plus one per vertex
    assert len(pres.torsion_generators[2]) == 2 * 6 + 4
    assert len(pres.torsion_generators[0]) == 0
    assert pres.generator_count(2) == 4 + 16
    # the relations 2*e_t are implied by the torsion list: exactly the
    # torsion generators have order 2 in the quotient
    for t in pres.torsion_generators[2]:
        g = AltChain.from_generator(t)
        assert not g.is_zero() and g.scale(2).is_zero()
    for t in pres.free_generators[2]:
        assert not AltChain.from_generator(t).scale(2).is_zero()


def test_presentation_budget(rp2):
    from altchain.complex_model import SimplicialComplex
    K = SimplicialComplex.from_facets(4, [[0, 1, 2, 3]])
    with pytest.raises(BudgetExceededError):
        alt_chain_complex(K, 3, budget=5)
    # the prediction is exact: a budget one short of the built count fails
    total = sum(alt_chain_complex(rp2, 3).generator_count(n) for n in range(4))
    alt_chain_complex(rp2, 3, budget=total)
    with pytest.raises(BudgetExceededError) as exc:
        alt_chain_complex(rp2, 3, budget=total - 1)
    assert exc.value.required == total


def test_presentation_roundtrip(rp2):
    pres = alt_chain_complex(rp2, 3)
    data = json.loads(json.dumps(presentation_to_json(pres)))
    assert data["format_version"] == 2 and "relations" not in data
    back = presentation_from_json(data)
    assert back.max_degree == pres.max_degree
    assert back.free_generators == pres.free_generators
    assert back.torsion_generators == pres.torsion_generators
    for n in range(4):
        assert back.boundary_matrix(n) == pres.boundary_matrix(n)
    assert homology_presented(back) == homology_presented(pres)


def test_presentation_version_1_still_loads(sphere):
    # written by export-presentation of sphere_s2 at --max-dim 2 while the
    # format still carried the relation matrices (format_version 1)
    v1 = json.loads((DATA / "presentation_sphere_s2_D2_v1.json").read_text())
    v2 = presentation_to_json(alt_chain_complex(sphere, 2))
    assert v1["format_version"] == 1 and "relations" in v1
    assert dict({k: v for k, v in v1.items() if k != "relations"},
                format_version=2) == json.loads(json.dumps(v2))
    old, new = presentation_from_json(v1), presentation_from_json(v2)
    assert old.max_degree == new.max_degree == 2
    assert old.free_generators == new.free_generators
    assert old.torsion_generators == new.torsion_generators
    assert old.matrices == new.matrices
    assert homology_presented(old) == homology_presented(new)


def _matrix(rows, cols, dense):
    return {"format_version": 1, "rows": rows, "cols": cols,
            "entries": [str(v) for row in dense for v in row]}


def test_presentation_from_json_rejects_inconsistent_input(rp2):
    from altchain.errors import FormatError
    good = presentation_to_json(alt_chain_complex(rp2, 3))
    pres = alt_chain_complex(rp2, 3)
    d2 = pres.boundary_matrix(2)
    d1 = pres.boundary_matrix(1)
    f1 = len(pres.free_generators[1])
    assert (0, f1) not in d1.entries

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
            2, matrix_to_json(IntegerMatrix(d2.rows, d2.cols + 1, d2.entries)))))
    # a free vertex row hit by a torsion edge column
    joined = IntegerMatrix(d1.rows, d1.cols, {**d1.entries, (0, f1): 1})
    with pytest.raises(FormatError):
        presentation_from_json(mutated(boundaries=(1, matrix_to_json(joined))))
    # an unknown top-level field; version 2 has no relations
    with pytest.raises(FormatError):
        presentation_from_json(dict(good, comment="hand edited"))
    with pytest.raises(FormatError, match="relations"):
        presentation_from_json(dict(good, relations={}))
    # a max_degree that is not a JSON integer, though int() would take it
    for bad in (3.0, 3.7, "3", True):
        with pytest.raises(FormatError):
            presentation_from_json(dict(good, max_degree=bad))
    for bad in (0, 3, 1.0, True, "2", None):
        with pytest.raises(FormatError, match="format_version"):
            presentation_from_json(dict(good, format_version=bad))
    assert presentation_from_json(good).max_degree == 3


def test_presentation_from_json_rejects_bad_generators(rp2):
    # the first rows keep every generator count and boundary shape, so
    # only the parse of the generator lists can reject them; the last
    # four change a generator count or the degree list itself
    from altchain.errors import FormatError
    good = presentation_to_json(alt_chain_complex(rp2, 3))
    assert good["degrees"][1]["free"][0] == [0, 1]
    assert good["degrees"][1]["torsion"][0] == [0, 0]

    def with_degree(n, **fields):
        data = json.loads(json.dumps(good))
        data["degrees"][n].update(fields)
        return data

    def with_generator(n, kind, g):
        data = json.loads(json.dumps(good))
        data["degrees"][n][kind][0] = g
        return data

    rows = [with_generator(0, "free", [0.5]),        # float vertex
            with_generator(0, "free", [True]),       # boolean vertex
            with_generator(0, "free", [0.0]),
            with_generator(0, "free", "0"),          # string generators
            with_generator(1, "free", "01"),
            with_generator(1, "free", [0, 1, 2, 3]),  # wrong length
            with_generator(1, "free", [0]),
            with_generator(1, "free", [1, 0]),       # unsorted free tuple
            with_generator(1, "free", [0, 0]),       # free tuple with a repeat
            with_generator(1, "torsion", [0, 1]),    # torsion without a repeat
            with_generator(2, "torsion", [1, 0, 0]),  # unsorted torsion tuple
            with_degree(1, degree=1.0),              # degree not a JSON integer
            with_degree(1, degree=True),
            with_degree(1, degree="1"),
            with_degree(1, degree=2),                # degree off its position
            with_degree(0, comment="hand edited"),   # unknown key
            with_degree(0, free={})]                 # generators not a list
    missing = json.loads(json.dumps(good))
    del missing["degrees"][2]["torsion"]
    rows.append(missing)
    rows.append(dict(good, degrees={str(n): d for n, d in enumerate(good["degrees"])}))
    rows.append(dict(good, degrees=good["degrees"][:3] + [[]]))
    for data in rows:
        with pytest.raises(FormatError):
            presentation_from_json(data)


def test_presentation_version_1_relations_are_checked():
    from altchain.errors import FormatError
    v1 = json.loads((DATA / "presentation_sphere_s2_D2_v1.json").read_text())
    presentation_from_json(v1)
    rel1 = matrix_from_json(v1["relations"]["1"]).to_dense()

    def with_relations(relations):
        return dict(v1, relations=dict(v1["relations"], **relations))

    # relations other than 2*e_t on the torsion generators
    doubled = [[2 * v for v in row] for row in rel1]
    with pytest.raises(FormatError):
        presentation_from_json(with_relations(
            {"1": _matrix(len(rel1), len(rel1[0]), doubled)}))
    with pytest.raises(FormatError):
        presentation_from_json(with_relations({"1": _matrix(0, 0, [])}))
    # version 1 still needs them
    with pytest.raises(FormatError, match="relations"):
        presentation_from_json({k: v for k, v in v1.items() if k != "relations"})
    partial = dict(v1, relations={"0": v1["relations"]["0"]})
    with pytest.raises(FormatError):
        presentation_from_json(partial)


def test_dual_dimension_invariant(corpus):
    # rational alternating cochain dimension == free quotient generators
    from altchain.cochain_algebra import alt_basis
    for name, K in corpus:
        index = enumerate_generators(K, 3)
        pres = alt_chain_complex(K, 3)
        for n in range(4):
            assert alt_basis(index, n).dim == len(pres.free_generators[n])
