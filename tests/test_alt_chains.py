import json
from random import Random

import pytest

from altchain import (AltChain, alt_chain_complex, boundary, canonicalize,
                      enumerate_generators, face_class_compat,
                      homology_presented, ordered_boundary)
from altchain.alt_chains import descend, presentation_from_json, presentation_to_json
from altchain.complex_model import SimplicialComplex
from altchain.errors import BudgetExceededError
from altchain.homotopy_prism import (CombinatorialHomotopy, SimplicialMap, prism,
                                     prism_alt, push_forward, push_forward_alt)
from oracles import (descended_boundary_matrices, fraction_rank, product_filter_generators,
                     reorder, reorderings, scaled_projector_matrix, subdivision)


def matrix_json(rows: int, cols: int, entries: dict) -> dict:
    """Matrix format 2: the dimensions, and the entries {(row, col): value}
    as [row, col, "value"] triples in row-major order."""
    return {"format_version": 2, "rows": rows, "cols": cols,
            "entries": [[r, c, str(v)] for (r, c), v in sorted(entries.items())]}


def test_canonicalize_examples():
    assert canonicalize((1, 0, 2)) == ((0, 1, 2), False, -1)
    assert canonicalize((2, 0, 1)) == ((0, 1, 2), False, 1)
    assert canonicalize((0, 0, 1)) == ((0, 0, 1), True, 1)


def test_canonicalize_respects_action():
    g = (3, 1, 2)
    for images, sign in reorderings(3):
        t, is_torsion, coeff = canonicalize(reorder(images, g))
        base_t, base_torsion, base_coeff = canonicalize(g)
        assert (t, is_torsion) == (base_t, base_torsion)
        assert coeff == sign * base_coeff


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
    assert ordered_boundary({(0, 1): 3, (1, 0): 2}) == {(1,): 1, (0,): -1}
    with pytest.raises(ValueError):
        ordered_boundary({(3,): 1})


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
            for images, sign in reorderings(n + 1):
                lhs = boundary(AltChain.from_generator(reorder(images, g)))
                assert lhs == base.scale(sign)


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


def assert_reduced(chain):
    """No zero free coefficient, and every torsion coefficient 1."""
    assert all(type(c) is int and c for c in chain.free.values()), chain
    assert all(c == 1 for c in chain.torsion.values()), chain


def projected(n, ordered):
    """(the quotient chain of an ordered chain, its class count before
    filtering): the classes summed here and filtered by the public
    constructor."""
    free, torsion = {}, {}
    for g, c in ordered.items():
        t, is_torsion, sign = canonicalize(g)
        part = torsion if is_torsion else free
        part[t] = part.get(t, 0) + (c if is_torsion else sign * c)
    return AltChain(n, free, torsion), len(free) + len(torsion)


def test_quotient_chains_come_out_reduced(sphere):
    # ordered chains on a few reorderings of a few generators, so that free
    # terms cancel and torsion terms meet an even number of times; every
    # quotient chain built from them holds only its nonzero classes
    rng = Random(30)
    index = enumerate_generators(sphere, 3)
    shift = SimplicialMap(sphere, sphere, (1, 2, 3, 0))
    h = CombinatorialHomotopy(SimplicialMap.identity(sphere), SimplicialMap.identity(sphere))
    cancelled = 0
    for n in range(1, 4):
        for _ in range(30):
            ordered: dict = {}
            for g in rng.sample(index.generators(n), 3):
                for _ in range(3):
                    t = tuple(rng.sample(g, len(g)))
                    ordered[t] = ordered.get(t, 0) + rng.choice((-2, -1, 1, 2))
            ordered = {t: c for t, c in ordered.items() if c}
            chain = AltChain.from_ordered(n, ordered)
            expected, classes = projected(n, ordered)
            assert chain == expected
            cancelled += classes - len(chain.free) - len(chain.torsion)
            # each quotient map of a chain is the projection of the ordered
            # map of any lift, which `ordered` is
            for result, lift in (
                    (boundary(chain), projected(n - 1, ordered_boundary(ordered))),
                    (push_forward_alt(shift, chain), projected(n, push_forward(shift, ordered))),
                    (prism_alt(h, chain), projected(n + 1, prism(h, ordered)))):
                assert result == lift[0]
                assert_reduced(result)
            assert_reduced(chain)
            assert_reduced(-chain)
    assert cancelled  # some class summed to zero, or to an even torsion count


def test_face_class_compat_examples(monkeypatch):
    import altchain.alt_chains as alt_chains
    swap = (1, 0)
    assert face_class_compat((0, 2), (0, 1))
    # odd reorderings of free faces: the class flips with the sign
    assert face_class_compat((0, 2), swap)
    assert face_class_compat((2, 0, 1), (0, 2, 1))
    # torsion faces: the swap of the equal entries fixes the tuple, and a
    # reordering that moves it keeps the class, which has no sign
    assert face_class_compat((0, 0), swap)
    assert face_class_compat((1, 0, 1), (1, 0, 2))
    # a canonical form with the wrong sign fails on an odd reordering of a
    # free face, and only there
    real = alt_chains.canonicalize

    def unsigned(g):
        t, is_torsion, sign = real(g)
        return t, is_torsion, 1

    monkeypatch.setattr(alt_chains, "canonicalize", unsigned)
    assert not face_class_compat((0, 2), swap)
    assert not face_class_compat((2, 0, 1), (0, 2, 1))
    assert face_class_compat((2, 0, 1), (1, 2, 0))
    assert face_class_compat((1, 0, 1), (1, 0, 2))


def test_presentation_point(point):
    pres = alt_chain_complex(point, 4)
    assert [len(f) for f in pres.free_generators] == [1, 0, 0, 0, 0]
    assert [len(t) for t in pres.torsion_generators] == [0, 1, 1, 1, 1]
    # lifted boundary alternates zero and the identity on the single
    # torsion generator
    assert pres.columns[0] == [{}]
    for n in (1, 3):
        assert pres.columns[n] == [{}]
    for n in (2, 4):
        assert pres.columns[n] == [{0: 1}]
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
        assert pres.columns[0] == [{}] * pres.generator_count(0)
        dense = pres.boundaries
        for n in range(1, cap + 1):
            assert dense[n] == expected[n], (K.name, n)


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
    assert back.columns == pres.columns
    assert homology_presented(back) == homology_presented(pres)


def test_presentation_from_json_rejects_inconsistent_input(rp2):
    from altchain.errors import FormatError
    good = presentation_to_json(alt_chain_complex(rp2, 3))
    pres = alt_chain_complex(rp2, 3)
    d1, d2 = good["boundaries"]["1"], good["boundaries"]["2"]
    f1 = len(pres.free_generators[1])
    assert 0 not in pres.columns[1][f1]

    def mutated(**changes):
        data = json.loads(json.dumps(good))
        for key, (n, value) in changes.items():
            data[key][str(n)] = value
        return data

    # boundary 2 of the wrong shape: 1x1, and one extra zero column
    with pytest.raises(FormatError, match="expected"):
        presentation_from_json(mutated(boundaries=(2, matrix_json(1, 1, {}))))
    with pytest.raises(FormatError, match="expected"):
        presentation_from_json(mutated(boundaries=(2, dict(d2, cols=d2["cols"] + 1))))
    # a boundary in matrix format 1, every entry row-major
    dense = dict(d1, format_version=1,
                 entries=[str(v) for row in pres.boundaries[1] for v in row])
    with pytest.raises(FormatError, match="format_version 1"):
        presentation_from_json(mutated(boundaries=(1, dense)))
    # a free vertex row hit by a torsion edge column
    joined = dict(d1, entries=sorted(d1["entries"] + [[0, f1, "1"]]))
    with pytest.raises(FormatError, match="joins a free and a torsion"):
        presentation_from_json(mutated(boundaries=(1, joined)))
    # an unknown top-level field; the relations of version 1 are not read
    with pytest.raises(FormatError):
        presentation_from_json(dict(good, comment="hand edited"))
    with pytest.raises(FormatError, match="relations"):
        presentation_from_json(dict(good, relations={}))
    # a max_degree that is not a JSON integer, though int() would take it
    for bad in (3.0, 3.7, "3", True):
        with pytest.raises(FormatError):
            presentation_from_json(dict(good, max_degree=bad))
    for bad in (0, 1, 3, 1.0, True, "2", None):
        with pytest.raises(FormatError, match="format_version"):
            presentation_from_json(dict(good, format_version=bad))
    assert presentation_from_json(good).max_degree == 3


def test_presentation_from_json_checks_the_chain_complex_law(point):
    # the reader is the one way a presentation enters from outside, so it
    # refuses what homology_presented takes for granted
    from altchain.errors import FormatError

    def presentation(degrees, boundaries):
        return {"format_version": 2, "max_degree": len(degrees) - 1,
                "degrees": [{"degree": n, "free": f, "torsion": t}
                            for n, (f, t) in enumerate(degrees)],
                "boundaries": {str(n): M for n, M in boundaries.items()}}

    one = matrix_json(1, 1, {(0, 0): 1})
    # one free generator per degree, each boundary the identity: the
    # composite is 1 on a free row
    chain = [([list(range(n + 1))], []) for n in range(3)]
    with pytest.raises(FormatError, match="boundaries 1 and 2 do not compose"):
        presentation_from_json(presentation(chain, {1: one, 2: one}))
    # a torsion edge whose boundary is the free vertex
    with pytest.raises(FormatError, match="boundary 1 joins a free and a torsion"):
        presentation_from_json(presentation([([[0]], []), ([], [[0, 0]])], {1: one}))
    # on the point the torsion generators of degrees 2 and 3 get boundary 1
    # each: the composite is odd on a torsion row; an even one is 0 mod 2e_t
    data = presentation_to_json(alt_chain_complex(point, 3))
    assert data["boundaries"]["2"] == one
    for value, ok in ((1, False), (2, True)):
        data["boundaries"]["3"] = matrix_json(1, 1, {(0, 0): value})
        if ok:
            assert [str(g) for g in homology_presented(presentation_from_json(data))] == \
                ["Z", "0", "0"]
        else:
            with pytest.raises(FormatError, match="boundaries 2 and 3 do not compose"):
                presentation_from_json(data)


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


def test_dual_dimension_invariant(corpus):
    # rational alternating cochain dimension, the projector's rank, ==
    # free quotient generators
    for name, K in corpus:
        index = enumerate_generators(K, 3)
        pres = alt_chain_complex(K, 3)
        for n in range(4):
            rank = fraction_rank(scaled_projector_matrix(index, n))
            assert rank == len(pres.free_generators[n]), (name, n)
