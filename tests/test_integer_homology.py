import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from altchain import (AbelianGroup, IntegerMatrix, alt_chain_complex,
                      cohomology_rational, enumerate_generators,
                      homology_free, homology_presented, ordered_homology,
                      simplicial_homology, smith_normal_form,
                      verify_cohomology_splitting)
from altchain.cochain_algebra import alt_coboundary_matrix, coboundary_matrix
from altchain.complex_model import SimplicialComplex
from altchain.integer_homology import (canonical_invariant_factors,
                                       integer_rank, matrix_from_json,
                                       matrix_to_json, ordered_boundary_matrix,
                                       rational_rank, simplicial_boundary_matrix,
                                       sparse_diagonalize)


def fraction_det(matrix):
    # independent determinant: fraction Gaussian elimination
    n = len(matrix)
    mat = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for r in range(c + 1, n):
            if mat[r][c]:
                f = mat[r][c] * inv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
    return det


def fraction_rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / mat[rank][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]).invariant_factors == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    zero = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert zero.rank == 0 and zero.invariant_factors == ()


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_snf_properties(rows):
    snf = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # U * diag * V == M exactly
    D = [[snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
          for j in range(n)] for i in range(m)]
    from altchain.integer_homology import dense_matmul
    assert dense_matmul(dense_matmul(snf.u, D), snf.v) == [list(r) for r in rows]
    # unimodular transforms
    assert abs(fraction_det(snf.u)) == 1
    assert abs(fraction_det(snf.v)) == 1
    assert dense_matmul(snf.u, snf.u_inv) == [[1 if i == j else 0 for j in range(m)]
                                              for i in range(m)]
    assert dense_matmul(snf.v_inv, snf.v) == [[1 if i == j else 0 for j in range(n)]
                                              for i in range(n)]
    # divisibility chain, nonnegative
    factors = snf.invariant_factors
    assert all(d > 0 for d in factors)
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    # rank agrees with an independent fraction elimination
    assert snf.rank == fraction_rank(rows)
    # kernel vectors really lie in the kernel
    for k in snf.kernel_basis():
        assert all(sum(rows[i][j] * k[j] for j in range(n)) == 0 for i in range(m))


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_sparse_diagonalize_agrees_with_dense(rows):
    M = IntegerMatrix.from_dense(rows)
    sparse_factors = canonical_invariant_factors(sparse_diagonalize(M))
    assert sparse_factors == smith_normal_form(rows).invariant_factors
    assert integer_rank(M) == fraction_rank(rows)


def test_snf_solve():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.solve([4, 9]) == [2, 3]
    assert snf.solve([1, 0]) is None
    snf2 = smith_normal_form([[1, 1], [1, 1]])
    assert snf2.solve([2, 3]) is None
    x = snf2.solve([5, 5])
    assert x is not None and x[0] + x[1] == 5


def test_canonical_invariant_factors():
    assert canonical_invariant_factors([4, 2]) == (2, 4)
    assert canonical_invariant_factors([6, 4]) == (2, 12)
    assert canonical_invariant_factors([0, 3, 1]) == (1, 3)
    assert canonical_invariant_factors([-2, 2]) == (2, 2)


def test_abelian_group_canonical_and_str():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(2, (2,))) == "Z^2 + Z/2"
    assert AbelianGroup.canonical(1, (4, 2)) == AbelianGroup(1, (2, 4))
    assert AbelianGroup.canonical(0, (1, 1)) == AbelianGroup(0)


def test_rational_rank_with_fractions():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)],
            [Fraction(2), Fraction(4, 3)]]
    assert rational_rank(rows) == fraction_rank(rows)


def test_homology_free_golden(sphere, point, rp2):
    for K, expected in ((sphere, ["Z", "0", "Z"]),
                        (point, ["Z", "0", "0"]),
                        (rp2, ["Z", "Z/2", "0"])):
        index = enumerate_generators(K, 3)
        assert [str(g) for g in ordered_homology(index)] == expected


def test_homology_free_rejects_bad_complex():
    # two matrices whose composition is not zero
    d1 = IntegerMatrix.from_dense([[1, 0], [0, 1]])
    d2 = IntegerMatrix.from_dense([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        homology_free([2, 2, 2], [None, d1, d2])
    with pytest.raises(ValueError):
        homology_free([2, 3], [None, d1])


def test_homology_presented_golden(corpus):
    golden = {
        "point": ["Z", "0", "0"],
        "sphere_s2": ["Z", "0", "Z"],
        "rp2_6": ["Z", "Z/2", "0"],
        "torus_7": ["Z", "Z^2", "Z"],
        "klein_8": ["Z", "Z + Z/2", "0"],
    }
    for name, K in corpus:
        pres = alt_chain_complex(K, 3)
        assert [str(g) for g in homology_presented(pres)] == golden[name], name


def test_presented_agrees_with_free_and_simplicial(corpus):
    for name, K in corpus:
        index = enumerate_generators(K, 3)
        pres = alt_chain_complex(K, 3)
        a = homology_presented(pres)
        b = ordered_homology(index)
        c = simplicial_homology(K)
        for n in range(3):
            expected = c[n] if n < len(c) else AbelianGroup(0)
            assert a[n] == b[n] == expected, (name, n)


def test_simplicial_boundary_matrices_compose_to_zero(torus):
    d1 = simplicial_boundary_matrix(torus, 1)
    d2 = simplicial_boundary_matrix(torus, 2)
    assert d1.matmul(d2).is_zero()


def test_ordered_boundary_matrix_against_coboundary_transpose(sphere_index):
    # the coboundary matrix is the transpose of the boundary matrix one
    # degree up; two independently built routes
    for n in (0, 1, 2):
        delta = coboundary_matrix(sphere_index, n)
        partial = ordered_boundary_matrix(sphere_index, n + 1)
        assert delta.entries == partial.transpose().entries


def test_cohomology_rational_golden(sphere, torus):
    index = enumerate_generators(sphere, 3)
    dims = [index.count(k) for k in range(4)]
    deltas = [coboundary_matrix(index, k) for k in range(3)]
    assert cohomology_rational(dims, deltas) == [1, 0, 1]

    alt_dims = [len(sphere.simplices_of_dim(k)) for k in range(4)]
    alt_deltas = [alt_coboundary_matrix(index, k) for k in range(3)]
    assert cohomology_rational(alt_dims, alt_deltas) == [1, 0, 1]

    tindex = enumerate_generators(torus, 3)
    tdims = [tindex.count(k) for k in range(4)]
    tdeltas = [coboundary_matrix(tindex, k) for k in range(3)]
    assert cohomology_rational(tdims, tdeltas) == [1, 2, 1]


def test_cohomology_degree_zero_counts_components():
    # two disjoint edges: two connected components
    K = SimplicialComplex.from_facets(4, [[0, 1], [2, 3]])
    index = enumerate_generators(K, 2)
    dims = [index.count(k) for k in range(3)]
    deltas = [coboundary_matrix(index, k) for k in range(2)]
    ranks = cohomology_rational(dims, deltas)
    assert ranks[0] == 2
    alt_dims = [len(K.simplices_of_dim(k)) for k in range(3)]
    alt_deltas = [alt_coboundary_matrix(index, k) for k in range(2)]
    assert cohomology_rational(alt_dims, alt_deltas)[0] == 2


def test_splitting_report_golden(sphere, klein):
    sindex = enumerate_generators(sphere, 3)
    r2 = verify_cohomology_splitting(sindex, 2)
    assert (r2.rank_full, r2.rank_alternating, r2.kernel_rank) == (1, 1, 0)
    assert r2.commutes_on_basis and r2.induced_isomorphism
    r0 = verify_cohomology_splitting(sindex, 0)
    assert (r0.rank_full, r0.rank_alternating, r0.kernel_rank) == (1, 1, 0)

    kindex = enumerate_generators(klein, 2)
    r1 = verify_cohomology_splitting(kindex, 1)
    assert (r1.rank_full, r1.rank_alternating, r1.kernel_rank) == (1, 1, 0)


def test_euler_characteristic_consistency(corpus):
    # alternating Betti sum equals the alternating simplex count
    for name, K in corpus:
        groups = simplicial_homology(K)
        betti = sum((-1) ** n * g.free_rank for n, g in enumerate(groups))
        chi = sum((-1) ** n * c for n, c in enumerate(K.f_vector()))
        assert betti == chi, name


def test_matrix_json_roundtrip():
    M = IntegerMatrix.from_dense([[1, -2, 0], [0, 5, 7]])
    data = json.loads(json.dumps(matrix_to_json(M)))
    assert data["entries"] == ["1", "-2", "0", "0", "5", "7"]
    back = matrix_from_json(data)
    assert back.rows == 2 and back.cols == 3 and back.entries == M.entries
    from altchain.errors import FormatError
    with pytest.raises(FormatError):
        matrix_from_json({"format_version": 1, "rows": 1, "cols": 2,
                          "entries": ["1"]})
    with pytest.raises(FormatError):
        matrix_from_json({"format_version": 1, "rows": 1, "cols": 1,
                          "entries": ["x"]})
    # JSON integers are read as they are; floats, booleans, nulls and
    # strings that are not plain decimals are rejected, not truncated
    assert matrix_from_json({"format_version": 1, "rows": 1, "cols": 3,
                             "entries": [4, "-12", 0]}).entries == \
        {(0, 0): 4, (0, 1): -12}
    for bad in (1.5, 2.0, True, False, None, " 3", "+3", "1_000", "1.0", "٣", [1]):
        with pytest.raises(FormatError):
            matrix_from_json({"format_version": 1, "rows": 1, "cols": 2,
                              "entries": ["1", bad]})


def test_matrix_from_json_rejects_bad_version_and_dimensions():
    from altchain.errors import FormatError
    with pytest.raises(FormatError):
        matrix_from_json({"format_version": 2, "rows": 1, "cols": 1,
                          "entries": ["5"]})
    with pytest.raises(FormatError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": ["5"]})
    with pytest.raises(FormatError):
        matrix_from_json({"format_version": 1, "rows": -1, "cols": -1,
                          "entries": ["5"]})
    with pytest.raises(FormatError):
        matrix_from_json({"format_version": 1, "rows": 0, "cols": -3,
                          "entries": []})


def test_big_entry_exactness():
    # arbitrary precision: no overflow on entries far beyond 64 bits
    big = 2 ** 100
    snf = smith_normal_form([[big, big + 2], [2, 4]])
    factors = snf.invariant_factors
    assert len(factors) == 2
    assert factors[0] == 2
    det = abs(fraction_det([[big, big + 2], [2, 4]]))
    assert factors[0] * factors[1] == det


def test_homology_presented_rejects_non_cycle_boundary():
    class Bogus:
        # one free generator per degree, "boundary" the identity: the
        # degree-1 generator's image is not a cycle in any sense compatible
        # with a degree-0 relation-free group of rank 1 quotiented by
        # nothing, once degree 0 demands cycles of the (absent) degree -1
        max_degree = 2
        free = ([0], [0], [0])

        def generator_count(self, n):
            return 1

        def boundary_matrix(self, n):
            return [[1]]

        def relation_matrix(self, n):
            return [[]]

        @property
        def torsion_generators(self):
            return ((), (), ())

    with pytest.raises(ValueError):
        # degree-1 cycles are 0 here, but the degree-2 boundary column (1)
        # is not inside that cycle lattice
        homology_presented(Bogus())


class BlockPresentation:
    """Duck-typed presentation: free and torsion counts per degree, with
    free blocks and torsion blocks given separately (degree -> dense)."""

    def __init__(self, free, torsion, torsion_blocks, free_blocks=None):
        self.max_degree = len(free) - 1
        self.free = free
        self.torsion_generators = tuple(tuple(range(t)) for t in torsion)
        self.torsion_blocks = torsion_blocks
        self.free_blocks = free_blocks or {}

    def generator_count(self, n):
        return self.free[n] + len(self.torsion_generators[n])

    def boundary_matrix(self, n):
        f_rows, f_cols = self.free[n - 1], self.free[n]
        out = [[0] * self.generator_count(n)
               for _ in range(self.generator_count(n - 1))]
        for r, row in enumerate(self.free_blocks.get(n, [])):
            out[r][:f_cols] = row
        for r, row in enumerate(self.torsion_blocks.get(n, [])):
            out[f_rows + r][f_cols:] = row
        return out


def test_homology_presented_torsion_term(rp2):
    # t_n - r_n - r_{n+1} is 0 on every corpus presentation; these pin it
    # nonzero (answers from the three-SNF recipe on [boundary | 2*e_t])
    zero = BlockPresentation([0, 0, 0], [1, 1, 0], {})
    assert [str(g) for g in homology_presented(zero)] == ["Z/2", "Z/2"]
    edge = BlockPresentation([0, 0, 0], [1, 2, 0], {1: [[1, 1]]})
    assert [str(g) for g in homology_presented(edge)] == ["0", "Z/2"]
    # integer rank 3 but F2 rank 2, and an even entry that must read as 0
    triangle = BlockPresentation([0, 0, 0], [3, 4, 0],
                                 {1: [[1, 1, 0, 2], [0, 1, 1, 0], [1, 0, 1, 0]]})
    assert [str(g) for g in homology_presented(triangle)] == ["Z/2", "Z/2 + Z/2"]
    simplicial = {n: simplicial_boundary_matrix(rp2, n).to_dense() for n in (1, 2)}
    mixed = BlockPresentation([6, 15, 10, 0], [1, 3, 1, 0],
                              {1: [[1, 1, 0]], 2: [[1], [1], [0]]}, simplicial)
    assert [str(g) for g in homology_presented(mixed)] == ["Z", "Z/2 + Z/2", "0"]


def test_homology_presented_rejects_non_block_and_bad_torsion_square():
    # a free edge whose boundary hits the torsion vertex
    non_block = BlockPresentation([0, 1, 0], [1, 0, 0], {})
    non_block.boundary_matrix = lambda n: [[1]] if n == 1 else [[]]
    with pytest.raises(ValueError, match="joins a free and a torsion"):
        homology_presented(non_block)
    odd_square = BlockPresentation([0, 0, 0, 0], [1, 1, 1, 0],
                                   {1: [[1]], 2: [[1]]})
    with pytest.raises(ValueError, match="mod 2"):
        homology_presented(odd_square)


def test_rational_cochain_ranks_match_free_quotient_ranks(corpus):
    # universal-coefficients check at this scale: the alternating
    # cohomology Betti numbers equal the free ranks of the quotient
    # homology groups in every degree
    from altchain.cochain_algebra import alt_coboundary_matrix

    for name, K in corpus:
        index = enumerate_generators(K, 3)
        dims = [len(K.simplices_of_dim(k)) for k in range(4)]
        deltas = [alt_coboundary_matrix(index, k) for k in range(3)]
        ranks = cohomology_rational(dims, deltas)
        groups = homology_presented(alt_chain_complex(K, 3))
        for n in range(3):
            assert ranks[n] == groups[n].free_rank, (name, n)


def test_random_boundary_matrix_ranks_cross_check(torus):
    # the sparse integer elimination against fraction elimination on an
    # actual boundary matrix
    index = enumerate_generators(torus, 2)
    M = ordered_boundary_matrix(index, 2)
    dense = M.to_dense()
    assert integer_rank(M) == fraction_rank(dense)
