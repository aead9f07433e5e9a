import contextlib
import itertools
import json
import signal
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from altchain import (AbelianGroup, alt_chain_complex, cohomology_rational,
                      enumerate_generators, homology_presented, ordered_homology,
                      simplicial_homology, smith_normal_form)
from altchain import integer_homology as ih
from altchain.alt_chains import presentation_from_json, presentation_to_json
from altchain.complex_model import SimplicialComplex
from altchain.errors import FormatError
from altchain.integer_homology import canonical_invariant_factors, product_entries
from oracles import (alt_coboundary_matrix, coboundary_matrix, face_sum_matrix,
                     fraction_det, fraction_rank, ordered_boundary_matrix,
                     simplicial_boundary_matrix, sparse_rows)
from test_complex_model import small_complexes


small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def test_snf_examples():
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
    assert smith_normal_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == ()
    # diagonals that are no positive divisibility chain until put in
    # canonical order
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, -4], [6, 0]]) == (2, 12)
    assert smith_normal_form([[-5]]) == (5,)
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == (2, 2, 60)


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
    sparse_factors = canonical_invariant_factors(ih._eliminate(sparse_rows(rows))[0])
    assert sparse_factors == smith_normal_form(rows)
    assert len(ih._eliminate(sparse_rows(rows))[0]) == fraction_rank(rows)


def boundary_of_simplex(d):
    return SimplicialComplex.from_facets(
        d + 1, list(itertools.combinations(range(d + 1), d)), name=f"bd_simplex_{d}")


def columns_of(dense) -> list:
    """The columns ``{row: nonzero}`` of a matrix with at least one row."""
    return [{r: v for r, v in enumerate(col) if v} for col in zip(*dense)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    small_matrix.filter(lambda m: len(m[0]) == k),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=k, max_size=k))))
def test_product_entries_match_the_dense_product(pair):
    outer, inner = pair
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inner)] for row in outer]
    entries = product_entries(columns_of(outer), columns_of(inner))
    assert sorted(entries) == sorted((r, c, v) for r, row in enumerate(product)
                                     for c, v in enumerate(row) if v)
    assert [c for _, c, _ in entries] == sorted(c for _, c, _ in entries)  # column by column


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


def test_ordered_homology_golden(sphere, point, rp2):
    for K, expected in ((sphere, ["Z", "0", "Z"]),
                        (point, ["Z", "0", "0"]),
                        (rp2, ["Z", "Z/2", "0"])):
        index = enumerate_generators(K, 3)
        assert [str(g) for g in ordered_homology(index)] == expected


def test_ordered_homology_keeps_no_top_level(sphere):
    # the sweep reads the top-degree tuples as it needs them, so only the
    # degrees below are kept; a kept top degree is read as kept
    index = enumerate_generators(sphere, 3)
    groups = ordered_homology(index)
    assert len(index._levels) == 3
    assert list(index.stream(3)) == list(index.generators(3))
    assert [list(index.stream(n)) for n in range(4)] == [list(index.generators(n))
                                                        for n in range(4)]
    assert ordered_homology(index) == groups


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
    assert all(sum(a * b for a, b in zip(row, col)) == 0 for row in d1 for col in zip(*d2))
    assert product_entries(columns_of(d1), columns_of(d2)) == []


def full_levels(index) -> list:
    return [index.generators(n) for n in range(index.max_degree + 1)]


def alt_levels(K, cap: int) -> list:
    return [K.simplices_of_dim(n) for n in range(cap + 1)]


def test_cohomology_rational_golden(sphere, torus):
    assert cohomology_rational(full_levels(enumerate_generators(sphere, 3))) == [1, 0, 1]
    assert cohomology_rational(alt_levels(sphere, 3)) == [1, 0, 1]
    assert cohomology_rational(full_levels(enumerate_generators(torus, 3))) == [1, 2, 1]


def test_cohomology_degree_zero_counts_components():
    # two disjoint edges: two connected components
    K = SimplicialComplex.from_facets(4, [[0, 1], [2, 3]])
    assert cohomology_rational(full_levels(enumerate_generators(K, 2)))[0] == 2
    assert cohomology_rational(alt_levels(K, 2))[0] == 2


def test_splitting_report_golden(sphere, klein):
    # the figures the registry's cohomology-splitting suite compares: full
    # and alternating Betti numbers agree degree by degree (kernel rank 0)
    sindex = enumerate_generators(sphere, 3)
    assert cohomology_rational(full_levels(sindex)) == [1, 0, 1]
    assert cohomology_rational(alt_levels(sphere, 3)) == [1, 0, 1]
    kindex = enumerate_generators(klein, 2)
    assert cohomology_rational(full_levels(kindex)) == [1, 1]
    assert cohomology_rational(alt_levels(klein, 2)) == [1, 1]


def test_euler_characteristic_consistency(corpus):
    # alternating Betti sum equals the alternating simplex count
    for name, K in corpus:
        groups = simplicial_homology(K)
        betti = sum((-1) ** n * g.free_rank for n, g in enumerate(groups))
        chi = sum((-1) ** n * c for n, c in enumerate(K.f_vector()))
        assert betti == chi, name


def one_boundary(vertices: int, edges: int, entries, **matrix) -> dict:
    """A presentation of degrees 0 and 1 with free generators only, whose
    boundary 1 is the vertices x edges matrix object with these triples,
    and any field of ``matrix`` put in or over."""
    return {"format_version": 2, "max_degree": 1,
            "degrees": [{"degree": 0, "free": [[v] for v in range(vertices)], "torsion": []},
                        {"degree": 1, "free": [[0, e + 1] for e in range(edges)],
                         "torsion": []}],
            "boundaries": {"1": dict({"format_version": 2, "rows": vertices, "cols": edges,
                                      "entries": entries}, **matrix)}}


def test_matrix_json_roundtrip():
    # matrix format 2 lives on inside presentations: the nonzero entries
    # as [row, col, "value"], written row-major whatever order they came in
    dense = [[0, -2, 0], [1, 5, 7]]
    data = one_boundary(2, 3, [[1, 2, "7"], [1, 1, "5"], [1, 0, "1"], [0, 1, "-2"]])
    pres = presentation_from_json(data)
    assert pres.boundaries[1] == dense
    assert json.loads(json.dumps(presentation_to_json(pres)))["boundaries"]["1"] == {
        "format_version": 2, "rows": 2, "cols": 3, "entries": [
            [0, 1, "-2"], [1, 0, "1"], [1, 1, "5"], [1, 2, "7"]]}
    empty = presentation_from_json(one_boundary(0, 4, []))
    assert empty.boundaries[1] == [] and empty.columns[1] == [{}] * 4
    assert presentation_to_json(empty)["boundaries"]["1"]["entries"] == []
    # format 1, every entry row-major, is no longer read
    with pytest.raises(FormatError, match="format_version 1"):
        presentation_from_json(one_boundary(2, 3, ["0", "-2", "0", "1", "5", "7"],
                                            format_version=1))
    # JSON integers are read as they are; floats, booleans, nulls and
    # strings that are not plain decimals are rejected, not truncated
    assert presentation_from_json(one_boundary(1, 3, [[0, 0, 4], [0, 1, "-12"]])
                                  ).boundaries[1] == [[4, -12, 0]]
    for bad in (1.5, 2.0, True, False, None, " 3", "+3", "1_000", "1.0", "٣", [1], "x"):
        with pytest.raises(FormatError):
            presentation_from_json(one_boundary(1, 2, [[0, 0, "1"], [0, 1, bad]]))
    # the version is a JSON integer, not a value equal to one
    for version in (True, 1.0, 2.0):
        with pytest.raises(FormatError):
            presentation_from_json(one_boundary(1, 1, [[0, 0, "3"]], format_version=version))
    # format 2 rejects, per rule: an index that is not a JSON integer, an
    # index out of range, a repeated cell, a zero, a value that is not
    # -?[0-9]+, and anything that is not a triple
    good = [[0, 1, "3"], [1, 0, "-12"]]
    assert presentation_from_json(one_boundary(2, 2, good)).boundaries[1] == [[0, 3], [-12, 0]]
    for bad in ([1.0, 0, "3"], [0, True, "3"], [0, "1", "3"], [None, 0, "3"],  # index type
                [2, 0, "3"], [0, 2, "3"], [-1, 0, "3"],                         # out of range
                [0, 1, "5"],                                                    # duplicate cell
                [0, 0, "0"], [0, 0, "-0"], [0, 0, 0],                           # zero
                [0, 0, " 3"], [0, 0, "+3"], [0, 0, "1.0"], [0, 0, 1.5],         # value rule
                [0, 0, True], [0, 0, "\u0663"], [0, 0, None],
                [0, 0], [0, 0, "3", "4"], "0 0 3", {"row": 0}):                # not a triple
        with pytest.raises(FormatError):
            presentation_from_json(one_boundary(2, 2, good + [bad]))
    with pytest.raises(FormatError):
        presentation_from_json(one_boundary(2, 2, {}))


def test_matrix_from_json_rejects_bad_version_and_dimensions():
    with pytest.raises(FormatError):
        presentation_from_json(one_boundary(1, 1, [[0, 0, "5"]], format_version=3))
    unversioned = one_boundary(1, 1, [[0, 0, "5"]])
    del unversioned["boundaries"]["1"]["format_version"]
    with pytest.raises(FormatError):
        presentation_from_json(unversioned)
    with pytest.raises(FormatError, match="dimension"):
        presentation_from_json(one_boundary(1, 1, [[0, 0, "5"]], rows=-1, cols=-1))
    with pytest.raises(FormatError, match="dimension"):
        presentation_from_json(one_boundary(0, 0, [], cols=-3))
    for key in ("rows", "cols", "entries"):
        missing = one_boundary(1, 1, [[0, 0, "5"]])
        del missing["boundaries"]["1"][key]
        with pytest.raises(FormatError, match=f"missing '{key}'"):
            presentation_from_json(missing)


def test_big_entry_exactness():
    # arbitrary precision: no overflow on entries far beyond 64 bits
    big = 2 ** 100
    factors = smith_normal_form([[big, big + 2], [2, 4]])
    assert len(factors) == 2
    assert factors[0] == 2
    det = abs(fraction_det([[big, big + 2], [2, 4]]))
    assert factors[0] * factors[1] == det


class BlockPresentation:
    """Duck-typed presentation: free and torsion counts per degree, with
    free blocks and torsion blocks given separately (degree -> dense rows)."""

    def __init__(self, free, torsion, torsion_blocks, free_blocks=None):
        self.max_degree = len(free) - 1
        self.free_generators = tuple(tuple(range(f)) for f in free)
        self.torsion_generators = tuple(tuple(range(t)) for t in torsion)
        self.columns = [[{} for _ in range(free[0] + torsion[0])]]
        for n in range(1, len(free)):
            columns = [{} for _ in range(free[n] + torsion[n])]
            for block, (dr, dc) in (((free_blocks or {}).get(n, []), (0, 0)),
                                    (torsion_blocks.get(n, []), (free[n - 1], free[n]))):
                for r, row in enumerate(block):
                    for c, v in enumerate(row):
                        if v:
                            columns[dc + c][dr + r] = v
            self.columns.append(columns)


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
    simplicial = {n: simplicial_boundary_matrix(rp2, n) for n in (1, 2)}
    mixed = BlockPresentation([6, 15, 10, 0], [1, 3, 1, 0],
                              {1: [[1, 1, 0]], 2: [[1], [1], [0]]}, simplicial)
    assert [str(g) for g in homology_presented(mixed)] == ["Z", "Z/2 + Z/2", "0"]


def test_homology_presented_rejects_wrong_shape():
    # a boundary that is not g_{n-1} x g_n; the law of a presented complex
    # is checked where a presentation is built or read in (test_alt_chains)
    wrong_shape = BlockPresentation([0, 0, 0], [1, 1, 0], {})
    wrong_shape.columns[1] = [{}, {}]
    with pytest.raises(ValueError, match="wrong shape"):
        homology_presented(wrong_shape)


def test_presented_torsion_blocks_leave_no_dense_core(monkeypatch):
    # the torsion blocks are read mod 2, each odd entry as 1, so every
    # pivot is a unit; over Z, eliminated top-down, their even entries
    # left a 504 x 1,680 dense core on the boundary of the 6-simplex at D=7
    pres = alt_chain_complex(boundary_of_simplex(6), 7)
    cores = []

    def spy(core):
        cores.append(core)
        return smith_normal_form(core)

    monkeypatch.setattr(ih, "smith_normal_form", spy)
    with time_limit(10):
        groups = homology_presented(pres)
    assert [str(g) for g in groups] == ["Z", "0", "0", "0", "0", "Z", "0"]
    assert cores == []


def test_rational_cochain_ranks_match_free_quotient_ranks(corpus):
    # universal-coefficients check at this scale: the alternating
    # cohomology Betti numbers equal the free ranks of the quotient
    # homology groups in every degree
    for name, K in corpus:
        ranks = cohomology_rational(alt_levels(K, 3))
        groups = homology_presented(alt_chain_complex(K, 3))
        for n in range(3):
            assert ranks[n] == groups[n].free_rank, (name, n)


def test_random_boundary_matrix_ranks_cross_check(torus):
    # the sparse integer elimination against fraction elimination on an
    # actual boundary matrix
    dense = ordered_boundary_matrix(enumerate_generators(torus, 2), 2)
    assert len(ih._eliminate(sparse_rows(dense))[0]) == fraction_rank(dense)


# ---------------------------------------------------------------------------
# unit-pivot elimination against the column scan and dense SNF

def scan_diagonalize(M):
    """The earlier column-scan elimination, which ran its own Euclid on any
    pivot, with every pivot column found by a scan over all live columns.
    Where every pivot it meets is +-1, as on torsion-free coboundaries, it
    takes the same pivots as the unit-pivot elimination."""
    from altchain.integer_homology import _nearest_quotient

    rows = sparse_rows(M)
    cols: dict = {}
    for r, row in rows.items():
        for c in row:
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
    return dense


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
# rows 0 and 1 wait; row 1 pivots only after row 2's pivot, and row 0
# only after row 1's, so the waiting rows take two passes (factors 1, 1, 3)
@example([[2, 3, 0], [3, 0, 2], [1, 0, 1]])
def test_unit_pivots_match_dense_snf(M):
    # a core reorders the diagonal, so compare what its consumers read:
    # invariant factors, rank and the F2 rank (the odd entries)
    diag, pivots = ih._eliminate(sparse_rows(M))
    factors = smith_normal_form(M)
    assert canonical_invariant_factors(diag) == factors
    assert len(diag) == len(factors)
    assert sum(d % 2 for d in diag) == sum(d % 2 for d in factors)
    assert_unit_pivot_block(M, pivots)


def assert_unit_pivot_block(M, pivots):
    # the unit-pivot rows on their pivot columns, as they stand in M, have
    # determinant +-1: what clearing across degrees and the F2 count rest on
    block = [[M[r][c] for c in pivots.values()] for r in pivots]
    assert fraction_det(block) in (1, -1)


def test_unit_pivots_match_column_scan_on_coboundaries(corpus):
    cases = [(K, 3) for _, K in corpus] + [(boundary_of_simplex(4), 4)]
    for K, cap in cases:
        index = enumerate_generators(K, cap)
        for n in range(cap):
            M = coboundary_matrix(index, n)
            (diag, pivots), scan = ih._eliminate(sparse_rows(M)), scan_diagonalize(M)
            # the two diagonals differ in order and sign, and on the Z/2 of
            # RP^2 and the Klein bottle the scan divides by a 2 mid-way where
            # the unit pivots leave it to the core: compare what consumers read
            assert canonical_invariant_factors(diag) == \
                canonical_invariant_factors(scan), (K.name, n)
            assert len(diag) == len(scan), (K.name, n)
            assert sum(d % 2 for d in diag) == sum(d % 2 for d in scan), (K.name, n)
            assert_unit_pivot_block(M, pivots)


def test_matrix_builders_match_face_position_oracle(sphere_index, rp2):
    # the face columns of the registry's d d check and the oracles' dense
    # boundaries against one loop over complex_model.face
    from altchain import verify
    from altchain.complex_model import face

    for index in (sphere_index, enumerate_generators(rp2, 2)):
        for n in range(index.max_degree):
            cob: dict = {}
            for i, g in enumerate(index.generators(n + 1)):
                row = cob.setdefault(i, {})
                for k in range(n + 2):
                    c = index.positions(n)[face(g, k)]
                    row[c] = row.get(c, 0) + (-1) ** k
                    if not row[c]:
                        del row[c]
            cob = {i: row for i, row in cob.items() if row}
            assert sparse_rows(coboundary_matrix(index, n)) == cob
            columns = verify._ordered_columns(index, n + 1)
            assert {i: col for i, col in enumerate(columns) if col} == cob
            # the simplicial boundary against its per-simplex loop
            K = index.complex
            cols = {t: j for j, t in enumerate(K.simplices_of_dim(n))}
            alt = {i: {cols[face(rho, k)]: (-1) ** k for k in range(n + 2)}
                   for i, rho in enumerate(K.simplices_of_dim(n + 1))}
            assert sparse_rows(alt_coboundary_matrix(K, n)) == alt


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
        ranks = cohomology_rational(full_levels(index))
    assert ranks == [0] * cap


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=7),
                min_size=1, max_size=6))
def test_face_matrix_matches_the_per_index_sum(columns):
    # the face matrix column by column, one _face_row each; entries from
    # {0, 1, 2} make runs of equal entries common
    columns = [tuple(g) for g in columns]
    faces = {g[:i] + g[i + 1:] for g in columns for i in range(len(g))}
    row_of = {t: r for r, t in enumerate(sorted(faces))}
    expected = face_sum_matrix(columns, row_of)
    for j, g in enumerate(columns):
        assert ih._face_row(g, row_of) == {r: row[j] for r, row in enumerate(expected) if row[j]}


def test_face_work_is_one_face_per_run():
    # the point's only degree-n generator is (0,) * (n + 1): one run, so
    # one face; one face per entry took over 6 s at this cap, for the
    # boundaries and for the coboundaries alike
    from altchain.complex_model import load_complex

    index = enumerate_generators(load_complex({"vertices": 1, "facets": [[0]]}), 1000)
    with time_limit(3):
        groups = ordered_homology(index)
        ranks = cohomology_rational(full_levels(index))
    assert groups == [AbelianGroup(1)] + [AbelianGroup(0)] * 999
    assert ranks == [1] + [0] * 999


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
    assert (len(dense), len(dense[0]), sum(map(bool, sum(dense, [])))) == (26, 32, 143)
    cores = []

    def recording_snf(core):
        cores.append(core)
        return smith_normal_form(core)

    monkeypatch.setattr(ih, "smith_normal_form", recording_snf)
    diag, _ = ih._eliminate(sparse_rows(dense))
    assert len(cores) == 1 and cores[0]
    hadamard_sq = 1
    for col in zip(*dense):
        hadamard_sq *= max(1, sum(v * v for v in col))
    assert all(v * v <= hadamard_sq for row in cores[0] for v in row)
    assert canonical_invariant_factors(diag) == smith_normal_form(dense)


# ---------------------------------------------------------------------------
# clearing across degrees against each matrix eliminated on its own

def uncleared_free(dims, boundaries):
    factors = [()] + [canonical_invariant_factors(ih._eliminate(sparse_rows(M))[0])
                      for M in boundaries[1:len(dims)]]
    return [AbelianGroup.canonical(dims[n] - len(factors[n]) - len(factors[n + 1]),
                                   factors[n + 1]) for n in range(len(dims) - 1)]


def uncleared_presented(pres):
    D = pres.max_degree
    tors = [len(pres.torsion_generators[n]) for n in range(D + 1)]
    free = [pres.generator_count(n) - t for n, t in enumerate(tors)]
    free_blocks, f2 = [None], [0]
    for n in range(1, D + 1):
        B = pres.boundaries[n]
        free_blocks.append([row[:free[n]] for row in B[:free[n - 1]]])
        block = [[v % 2 for v in row[free[n]:]] for row in B[free[n - 1]:]]
        f2.append(sum(d % 2 for d in ih._eliminate(sparse_rows(block))[0]))
    f2.append(0)
    return [AbelianGroup.canonical(g.free_rank, g.torsion + (2,) * (tors[n] - f2[n] - f2[n + 1]))
            for n, g in enumerate(uncleared_free(free, free_blocks))]


def uncleared_betti(dims, deltas):
    ranks = [0] + [len(ih._eliminate(sparse_rows(M))[0]) for M in deltas]
    if max(dims) <= 400:
        assert ranks[1:] == [fraction_rank(M) if any(map(any, M)) else 0 for M in deltas]
    return [dims[n] - ranks[n] - ranks[n + 1] for n in range(len(dims) - 1)]


def assert_clearing_keeps_answers(K, cap):
    index = enumerate_generators(K, cap)
    dims = [index.count(n) for n in range(cap + 1)]
    ordered = [None] + [ordered_boundary_matrix(index, n) for n in range(1, cap + 1)]
    assert ordered_homology(index) == uncleared_free(dims, ordered), K.name
    pres = alt_chain_complex(K, cap)
    assert homology_presented(pres) == uncleared_presented(pres), K.name
    deltas = [coboundary_matrix(index, n) for n in range(cap)]
    assert cohomology_rational(full_levels(index)) == uncleared_betti(dims, deltas), K.name
    alt_dims = [len(K.simplices_of_dim(n)) for n in range(cap + 1)]
    alt_deltas = [alt_coboundary_matrix(K, n) for n in range(cap)]
    assert cohomology_rational(alt_levels(K, cap)) == \
        uncleared_betti(alt_dims, alt_deltas), K.name
    assert_simplicial_clearing_keeps_answers(K)


def assert_simplicial_clearing_keeps_answers(K):
    top = K.dimension()
    dims = [len(K.simplices_of_dim(n)) for n in range(top + 2)]
    boundaries = [None] + [simplicial_boundary_matrix(K, n) for n in range(1, top + 2)]
    assert simplicial_homology(K) == uncleared_free(dims, boundaries), K.name


def test_clearing_keeps_the_answers_of_uncleared_elimination(corpus, rp2):
    # rp2_6 and klein_8 carry Z/2, so their eliminations leave a core
    from oracles import subdivision

    for K, cap in [(K, 4) for _, K in corpus] + [(boundary_of_simplex(5), 3)]:
        assert_clearing_keeps_answers(K, cap)
    sd_rp2 = subdivision(rp2)
    assert_simplicial_clearing_keeps_answers(sd_rp2)
    assert [str(g) for g in simplicial_homology(sd_rp2)] == ["Z", "Z/2", "0"]


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.integers(0, 3))
def test_clearing_keeps_the_answers_on_drawn_complexes(K, cap):
    assert_clearing_keeps_answers(K, cap)


def test_clearing_drops_the_columns_of_the_previous_unit_pivots():
    # delta_3 of the boundary of the 6-simplex at cap 4 is 16,807 x 2,401;
    # the 300 unit-pivot rows of delta_2 index columns that could only
    # reduce to zero, so 2,101 columns enter its elimination
    index = enumerate_generators(boundary_of_simplex(6), 4)
    betti, seen = spied(cohomology_rational, full_levels(index))
    assert betti == [1, 0, 0, 0]
    entering = [(index.count(n + 1), index.count(n),
                 len({c for _, row in layout for c, _ in row}))
                for n, (layout, *_) in enumerate(seen)]
    assert entering == [(49, 7, 7), (343, 49, 43), (2401, 343, 300), (16807, 2401, 2101)]


def test_full_rank_stops_the_face_rows(monkeypatch):
    # delta_3 reaches its rank, 2,101, the number of columns left after
    # clearing, within the first 2,401 of its 16,807 rows, and no face row
    # is built after that
    index = enumerate_generators(boundary_of_simplex(6), 4)
    built = []

    def counting_face_row(g, row_of):
        built.append(len(g) - 1)
        return face_row(g, row_of)

    face_row = ih._face_row
    monkeypatch.setattr(ih, "_face_row", counting_face_row)
    assert cohomology_rational(full_levels(index)) == [1, 0, 0, 0]
    assert built.count(4) <= 2401


def test_torsion_keeps_every_row_read(rp2):
    # the Z/2 of sd(RP^2) lies in delta_1, whose rank stays below the
    # columns left, so every one of its rows is read
    from oracles import subdivision

    index = enumerate_generators(subdivision(rp2), 3)
    groups, seen = spied(ordered_homology, index)
    assert [str(g) for g in groups] == ["Z", "Z/2", "0"]
    layout, read, live, (_, pivots) = seen[1]
    assert read == len(layout) == index.count(2)
    assert len(pivots) < live


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_full_rank_bound_keeps_the_result(M):
    # with live the number of columns that hold an entry, reading stops at
    # full rank; every row left would reduce to zero
    live = len({c for row in sparse_rows(M).values() for c in row})
    assert ih._eliminate(sparse_rows(M), live) == ih._eliminate(sparse_rows(M))


# ---------------------------------------------------------------------------
# coboundary rows built from the levels against the transposed boundary

def spied(fn, arg):
    """``fn(arg)``, and per call of ``_eliminate`` the rows it was given,
    read out in full (in order, each as its (col, value) list in order),
    how many of them it read, its bound ``live`` and what it returned."""
    real, seen = ih._eliminate, []

    def spy(rows, live=None):
        rows = list(rows.items() if isinstance(rows, dict) else rows)
        layout = [(r, list(row.items())) for r, row in rows]
        read = []

        def reading():
            for pair in rows:
                read.append(pair)
                yield pair
        out = real(reading(), live)
        seen.append((layout, len(read), live, out))
        return out

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ih, "_eliminate", spy)
        result = fn(arg)
    return result, seen


def assert_rows_and_pivots_match(levels, deltas):
    # entry for entry the rows are those of the transposed boundary; the
    # rows read are a prefix of them, and stopping there changes nothing
    # (the pivot rule reads the order within a row, so that is kept)
    betti, seen = spied(cohomology_rational, levels)
    assert len(seen) == len(deltas)
    cleared, rank = {}, 0
    for n, (delta, (layout, read, live, out)) in enumerate(zip(deltas, seen)):
        kept = [[0 if c in cleared else v for c, v in enumerate(row)] for row in delta]
        rows = sparse_rows(kept)
        assert [(r, dict(row)) for r, row in layout if row] == list(rows.items()), n
        assert live == len(levels[n]) - rank, n  # rank(delta_n) <= dim - rank(delta_{n-1})
        assert read == len(layout) or len(out[1]) == live, n
        assert out == ih._eliminate({r: dict(row) for r, row in layout}), n
        cleared, rank = out[1], len(out[0])
    dims = [len(level) for level in levels]
    assert betti == uncleared_betti(dims, deltas)


def test_coboundary_rows_and_pivots_match_the_transposed_boundary(corpus):
    for K in [K for _, K in corpus] + [boundary_of_simplex(4)]:
        index = enumerate_generators(K, 4)
        assert_rows_and_pivots_match(full_levels(index),
                                     [coboundary_matrix(index, n) for n in range(4)])
        assert_rows_and_pivots_match(alt_levels(K, 4),
                                     [alt_coboundary_matrix(K, n) for n in range(4)])


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.integers(0, 3))
def test_coboundary_rows_and_pivots_match_on_drawn_complexes(K, cap):
    index = enumerate_generators(K, cap)
    assert_rows_and_pivots_match(full_levels(index),
                                 [coboundary_matrix(index, n) for n in range(cap)])
    assert_rows_and_pivots_match(alt_levels(K, cap),
                                 [alt_coboundary_matrix(K, n) for n in range(cap)])
