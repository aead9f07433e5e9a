import contextlib
import itertools
import json
import signal
from math import gcd

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
                                       simplicial_boundary_matrix,
                                       sparse_diagonalize)
from oracles import fraction_det, fraction_rank


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == ()


@contextlib.contextmanager
def time_limit(seconds):
    # an elimination that stops making progress fails instead of hanging
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_snf_properties(rows):
    with time_limit(1):
        factors = smith_normal_form(rows)
    m, n = len(rows), len(rows[0])
    # divisibility chain, positive
    assert all(d > 0 for d in factors)
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    # rank agrees with an independent fraction elimination
    assert len(factors) == fraction_rank(rows)
    # d_1 * ... * d_k is the gcd of all k x k minors (0 beyond the rank)
    product = 1
    for k in range(1, min(m, n) + 1):
        product = product * factors[k - 1] if k <= len(factors) else 0
        minors = 0
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                minor = fraction_det([[rows[i][j] for j in cs] for i in rs])
                minors = gcd(minors, int(minor))
        assert minors == product, k


@settings(max_examples=40, deadline=None)
@given(small_matrix)
def test_sparse_diagonalize_agrees_with_dense(rows):
    M = IntegerMatrix.from_dense(rows)
    sparse_factors = canonical_invariant_factors(sparse_diagonalize(M))
    assert sparse_factors == smith_normal_form(rows)
    assert integer_rank(M) == fraction_rank(rows)


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
    # the version is the JSON integer 1, not a value equal to it
    for version in (True, 1.0):
        with pytest.raises(FormatError):
            matrix_from_json({"format_version": version, "rows": 1, "cols": 1,
                              "entries": ["3"]})


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
    factors = smith_normal_form([[big, big + 2], [2, 4]])
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
            return IntegerMatrix(1, 1, {(0, 0): 1})

        @property
        def torsion_generators(self):
            return ((), (), ())

    with pytest.raises(ValueError):
        # degree-1 cycles are 0 here, but the degree-2 boundary column (1)
        # is not inside that cycle lattice
        homology_presented(Bogus())


class BlockPresentation:
    """Duck-typed presentation: free and torsion counts per degree, with
    free blocks and torsion blocks given separately (degree -> dense rows)."""

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
        entries = {}
        for block, (dr, dc) in ((self.free_blocks.get(n, []), (0, 0)),
                                (self.torsion_blocks.get(n, []), (f_rows, f_cols))):
            entries.update({(dr + r, dc + c): v for r, row in enumerate(block)
                            for c, v in enumerate(row) if v})
        return IntegerMatrix(self.generator_count(n - 1), self.generator_count(n), entries)


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
    non_block.boundary_matrix = lambda n: (IntegerMatrix(1, 1, {(0, 0): 1}) if n == 1
                                           else IntegerMatrix(1, 0, {}))
    with pytest.raises(ValueError, match="joins a free and a torsion"):
        homology_presented(non_block)
    odd_square = BlockPresentation([0, 0, 0, 0], [1, 1, 1, 0],
                                   {1: [[1]], 2: [[1]]})
    with pytest.raises(ValueError, match="mod 2"):
        homology_presented(odd_square)
    # a boundary that is not g_{n-1} x g_n
    wrong_shape = BlockPresentation([0, 0, 0], [1, 1, 0], {})
    wrong_shape.boundary_matrix = lambda n: IntegerMatrix(1, 2, {})
    with pytest.raises(ValueError, match="wrong shape"):
        homology_presented(wrong_shape)


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


# ---------------------------------------------------------------------------
# unit-pivot elimination against the column scan and dense SNF

def scan_diagonalize(M):
    """The earlier column-scan elimination, which ran its own Euclid on any
    pivot, with every pivot column found by a scan over all live columns.
    Where every pivot it meets is +-1, as on torsion-free coboundaries, it
    takes the same pivots as ``sparse_diagonalize``."""
    from altchain.integer_homology import _nearest_quotient

    rows: dict = {}
    cols: dict = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    diag = []
    while cols:
        pc = min(cols, key=lambda c: (len(cols[c]), c))
        pr = min(cols[pc], key=lambda r: (abs(rows[r][pc]), len(rows[r]), r))
        while True:
            pv = rows[pr][pc]
            switched = False
            for r in list(cols[pc]):
                if r == pr:
                    continue
                q = _nearest_quotient(rows[r][pc], pv)
                if q:
                    prow = rows[pr]
                    rrow = rows[r]
                    for c, v in prow.items():
                        nv = rrow.get(c, 0) - q * v
                        if nv:
                            rrow[c] = nv
                            cols[c].add(r)
                        else:
                            rrow.pop(c, None)
                            cols[c].discard(r)
                if rows.get(r, {}).get(pc):
                    pr = r
                    switched = True
                    break
                if not rows.get(r):
                    rows.pop(r, None)
            if switched:
                continue
            pv = rows[pr][pc]
            switched = False
            for c in list(rows[pr]):
                if c == pc:
                    continue
                q = _nearest_quotient(rows[pr][c], pv)
                if q:
                    for r in list(cols[pc]):
                        nv = rows[r].get(c, 0) - q * rows[r][pc]
                        if nv:
                            rows[r][c] = nv
                            cols[c].add(r)
                        else:
                            rows[r].pop(c, None)
                            cols[c].discard(r)
                if rows[pr].get(c):
                    pc = c
                    switched = True
                    break
                if not cols.get(c):
                    cols.pop(c, None)
            if switched:
                continue
            break
        diag.append(rows[pr][pc])
        del rows[pr][pc]
        if not rows[pr]:
            del rows[pr]
        cols[pc].discard(pr)
        if not cols[pc]:
            del cols[pc]
    return diag


sparse_entry = st.sampled_from([0] * 19 + list(range(-9, 10)))


@st.composite
def shaped_matrices(draw):
    """Tall, wide, or cancelling: rows repeated, negated and summed so that
    elimination empties rows and columns and parks columns with no unit."""
    shape = draw(st.sampled_from(["tall", "wide", "cancelling"]))
    small, large = draw(st.integers(1, 6)), draw(st.integers(7, 16))
    m, n = (large, small) if shape == "tall" else (small, large)
    dense = draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                          min_size=m, max_size=m))
    if shape == "cancelling":
        for _ in range(draw(st.integers(2, 10))):
            i, j = draw(st.integers(0, len(dense) - 1)), draw(st.integers(0, len(dense) - 1))
            k = draw(st.sampled_from([1, -1]))
            combo = [a + k * b for a, b in zip(dense[i], dense[j])]
            dense.append(combo if max(map(abs, combo)) <= 9 else [-a for a in dense[i]])
    return IntegerMatrix.from_dense(dense)


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
def test_heap_pivots_match_column_scan(M):
    # a core reorders the diagonal, so compare what its consumers read:
    # invariant factors, rank and the F2 rank (the odd entries)
    diag = sparse_diagonalize(M)
    factors = smith_normal_form(M.to_dense())
    assert canonical_invariant_factors(diag) == factors
    assert len(diag) == len(factors)
    assert sum(d % 2 for d in diag) == sum(d % 2 for d in factors)


def test_heap_pivots_match_column_scan_on_coboundaries(corpus):
    boundary_4simplex = SimplicialComplex.from_facets(
        5, list(itertools.combinations(range(5), 4)), name="bd_simplex_4")
    cases = [(K, 3) for _, K in corpus] + [(boundary_4simplex, 4)]
    for K, cap in cases:
        index = enumerate_generators(K, cap)
        for n in range(cap):
            M = coboundary_matrix(index, n)
            diag, scan = sparse_diagonalize(M), scan_diagonalize(M)
            if all(d in (1, -1) for d in scan):
                assert diag == scan, (K.name, n)
            else:
                # the Z/2 of RP^2 and the Klein bottle: the scan divided by a
                # 2 mid-way, the unit pivots leave it to the core, last
                assert canonical_invariant_factors(diag) == \
                    canonical_invariant_factors(scan), (K.name, n)
                assert len(diag) == len(scan), (K.name, n)
                assert sum(d % 2 for d in diag) == sum(d % 2 for d in scan), (K.name, n)


def test_matrix_builders_match_face_position_oracle(sphere_index, rp2):
    from altchain.complex_model import face

    for index in (sphere_index, enumerate_generators(rp2, 2)):
        for n in range(index.max_degree):
            cob: dict = {}
            for i, g in enumerate(index.generators(n + 1)):
                for k in range(n + 2):
                    key = (i, index.position(face(g, k)))
                    cob[key] = cob.get(key, 0) + (-1) ** k
                    if not cob[key]:
                        del cob[key]
            # same entries in the same order: the order fixes the pivots' ties
            assert list(coboundary_matrix(index, n).entries.items()) == list(cob.items())
            bd = [((r, c), v) for (c, r), v in cob.items()]
            assert list(ordered_boundary_matrix(index, n + 1).entries.items()) == bd


def test_empty_complex_costs_linear_in_the_degree_cap():
    # no simplex means no generator in any degree, so no budget bounds the
    # cap; a degree without generators must cost O(1), not O(n)
    from altchain.complex_model import load_complex

    K = load_complex({"vertices": 0, "facets": []})
    with time_limit(2):
        # the budget check sums the counts once; recomputing the running
        # total at every degree takes about half a minute at this cap
        enumerate_generators(K, 100_000)
    cap = 20_000
    with time_limit(5):
        index = enumerate_generators(K, cap)
        groups = ordered_homology(index)
    assert groups == [AbelianGroup(0)] * cap
    with time_limit(5):
        ranks = cohomology_rational([0] * (cap + 1),
                                    [coboundary_matrix(index, n) for n in range(cap)])
    assert ranks == [0] * cap


def test_unit_pivots_leave_a_core_of_minors(monkeypatch):
    # matrix #205 of a Random(7) draw of 300 (26 x 32, 143 entries in
    # -9..9): Euclid inside the sparse phase ran for seconds there with
    # entries past 100 bits.  Every core entry is a minor of M, since the
    # unit pivot block has determinant +-1, so Hadamard's bound holds.
    from random import Random
    import altchain.integer_homology as ih

    rng = Random(7)
    for _ in range(206):
        m, n, dens = rng.randint(1, 30), rng.randint(1, 33), rng.random()
        dense = [[rng.randint(-9, 9) if rng.random() < dens else 0
                  for _ in range(n)] for _ in range(m)]
    M = IntegerMatrix.from_dense(dense)
    assert (M.rows, M.cols, len(M.entries)) == (26, 32, 143)
    cores = []

    def recording_snf(core):
        cores.append(core)
        return smith_normal_form(core)

    monkeypatch.setattr(ih, "smith_normal_form", recording_snf)
    diag = sparse_diagonalize(M)
    assert len(cores) == 1 and cores[0]
    hadamard_sq = 1
    for col in zip(*dense):
        hadamard_sq *= max(1, sum(v * v for v in col))
    assert all(v * v <= hadamard_sq for row in cores[0] for v in row)
    assert canonical_invariant_factors(diag) == smith_normal_form(dense)
