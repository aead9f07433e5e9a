import itertools
import json
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from altchain import (Cochain, DegreeCapError, FormatError, SimplicialComplex,
                      alt_basis, alt_cup, alternating_cochain,
                      alternative_maker, coboundary, cup,
                      enumerate_generators, is_alternative,
                      nonlinear_residual, split)
from altchain.cochain_algebra import (alternative_maker_matrix,
                                      alternative_maker_matrix_scaled,
                                      cochain_from_json, cochain_to_json,
                                      coboundary_matrix)
from altchain.integer_homology import integer_rank, rational_rank
from altchain.permutations import act, enumerate_group


def fraction_rref_rank(rows):
    # independent rank oracle: plain Gaussian elimination over Fraction
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def random_cochain(index, n, rng, terms=3):
    gens = index.generators(n)
    vals = {}
    for g in rng.sample(gens, min(terms, len(gens))):
        vals[g] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Cochain(n, vals)


def random_alternating(K, n, rng, terms=2):
    simplices = K.simplices_of_dim(n)
    total = Cochain.zero(n)
    for tau in rng.sample(simplices, min(terms, len(simplices))):
        total = total + alternating_cochain(tau, Fraction(rng.randint(1, 9),
                                                          rng.randint(1, 9)))
    return total


def test_coboundary_vertex_indicator(sphere_index):
    alpha = Cochain.indicator((0,))
    d = coboundary(sphere_index, alpha)
    # on the edge (0, 1): value at face 0 = (1,) minus value at face 1 = (0,)
    assert d((0, 1)) == Fraction(-1)
    assert d((1, 0)) == Fraction(1)
    assert d((0, 0)) == Fraction(0)


def test_coboundary_of_zero_and_squared(sphere, sphere_index):
    assert coboundary(sphere_index, Cochain.zero(1)).is_zero()
    rng = Random(7)
    for n in (0, 1):
        for _ in range(10):
            alpha = random_cochain(sphere_index, n, rng)
            assert coboundary(sphere_index, coboundary(sphere_index, alpha)).is_zero()


def test_coboundary_degree_cap(sphere_index):
    with pytest.raises(DegreeCapError):
        coboundary(sphere_index, Cochain.indicator((0, 1, 2, 2)))


def test_coboundary_matches_matrix(sphere_index):
    # sparse cochain route against the assembled matrix route
    rng = Random(3)
    for n in (0, 1, 2):
        M = coboundary_matrix(sphere_index, n)
        alpha = random_cochain(sphere_index, n, rng)
        vec = [alpha(g) for g in sphere_index.generators(n)]
        image = coboundary(sphere_index, alpha)
        dense = [[0] * M.cols for _ in range(M.rows)]
        for (r, c), v in M.entries.items():
            dense[r][c] = v
        for i, g in enumerate(sphere_index.generators(n + 1)):
            assert image(g) == sum(dense[i][j] * vec[j] for j in range(M.cols))


def test_is_alternative_examples():
    assert is_alternative(Cochain(0, {(0,): 3, (2,): Fraction(1, 2)}))
    assert not is_alternative(Cochain.indicator((0, 1)))
    assert is_alternative(Cochain(1, {(0, 1): 1, (1, 0): -1}))
    assert not is_alternative(Cochain(1, {(0, 1): 1, (1, 0): -1, (2, 2): 5}))


def test_alternative_maker_examples():
    chi = Cochain(1, {(0, 1): 1, (1, 0): -1})
    assert alternative_maker(chi) == chi
    half = alternative_maker(Cochain.indicator((0, 1)))
    assert half((0, 1)) == Fraction(1, 2)
    assert half((1, 0)) == Fraction(-1, 2)
    assert alternative_maker(Cochain.indicator((0, 0))).is_zero()


def test_alternative_maker_is_projector(sphere, sphere_index):
    rng = Random(11)
    for n in range(4):
        for _ in range(8):
            alpha = random_cochain(sphere_index, n, rng)
            once = alternative_maker(alpha)
            assert alternative_maker(once) == once
            assert is_alternative(once)


def test_alternative_maker_projector_on_full_basis(sphere_index):
    # exhaustive over every indicator cochain in low degrees
    for n in (0, 1, 2):
        for g in sphere_index.generators(n):
            once = alternative_maker(Cochain.indicator(g))
            assert alternative_maker(once) == once
            assert is_alternative(once)


def test_split_examples(sphere, sphere_index):
    chi = alternating_cochain((1, 2))
    assert split(chi) == (chi, Cochain.zero(1))
    degenerate = Cochain.indicator((2, 2))
    assert split(degenerate) == (Cochain.zero(1), degenerate)
    rng = Random(5)
    alpha = random_cochain(sphere_index, 2, rng)
    alt, ker = split(alpha)
    assert alt + ker == alpha
    assert alternative_maker(ker).is_zero()


def test_splitting_dimensions_sphere_degree_one(sphere_index):
    # 16 = 6 + 10: rank of the projector plus its nullity, via two
    # independent rank computations on the same matrix
    dense = alternative_maker_matrix(sphere_index, 1)
    assert len(dense) == 16
    assert fraction_rref_rank(dense) == 6
    assert rational_rank(dense) == 6
    scaled = alternative_maker_matrix_scaled(sphere_index, 1)
    assert integer_rank(scaled) == 6
    basis = alt_basis(sphere_index, 1)
    assert basis.dim == 6 and basis.complement_dim == 10


def test_alt_basis_counts(sphere_index):
    assert alt_basis(sphere_index, 0).dim == 4
    assert alt_basis(sphere_index, 2).dim == 4
    assert alt_basis(sphere_index, 3).dim == 0
    assert alt_basis(sphere_index, 3).complement_dim == 232


def test_alternating_cochain_rejects_repeats():
    with pytest.raises(ValueError):
        alternating_cochain((0, 0, 1))
    with pytest.raises(ValueError):
        alternating_cochain((1, 0))


def test_cup_examples(sphere_index):
    a = Cochain(0, {(0,): 2})
    b = Cochain(0, {(0,): 5, (1,): 7})
    assert cup(sphere_index, a, b) == Cochain(0, {(0,): 10})

    alpha = Cochain.indicator((0, 1))
    beta = Cochain.indicator((1, 2))
    product = cup(sphere_index, alpha, beta)
    assert product == Cochain(2, {(0, 1, 2): 1})
    # brute check over every degree-2 generator
    for g in sphere_index.generators(2):
        assert product(g) == alpha(g[:2]) * beta(g[1:])

    assert cup(sphere_index, alpha, Cochain.zero(1)).is_zero()


def test_cup_degree_overflow(sphere_index):
    with pytest.raises(DegreeCapError):
        cup(sphere_index, Cochain.indicator((0, 1, 2)), Cochain.indicator((2, 0, 1)))


def test_cup_leibniz_arbitrary_inputs(sphere_index):
    rng = Random(13)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for _ in range(6):
            alpha = random_cochain(sphere_index, p, rng)
            beta = random_cochain(sphere_index, q, rng)
            lhs = coboundary(sphere_index, cup(sphere_index, alpha, beta))
            rhs = cup(sphere_index, coboundary(sphere_index, alpha), beta) + \
                cup(sphere_index, alpha, coboundary(sphere_index, beta)).scale((-1) ** p)
            assert lhs == rhs


def test_alt_cup_degree_zero_is_pointwise(sphere_index):
    a = Cochain(0, {(0,): Fraction(1, 3), (2,): 4})
    b = Cochain(0, {(0,): 6, (2,): Fraction(1, 2)})
    assert alt_cup(sphere_index, a, b) == Cochain(0, {(0,): 2, (2,): 2})


def test_alt_cup_graded_commutativity(sphere, sphere_index):
    rng = Random(17)
    for p, q in ((0, 0), (0, 1), (1, 1), (1, 2)):
        for _ in range(8):
            a = random_alternating(sphere, p, rng)
            b = random_alternating(sphere, q, rng)
            assert alt_cup(sphere_index, b, a) == \
                alt_cup(sphere_index, a, b).scale((-1) ** (p * q))


def test_alt_cup_leibniz_alternating(sphere, sphere_index):
    rng = Random(19)
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for _ in range(8):
            a = random_alternating(sphere, p, rng)
            b = random_alternating(sphere, q, rng)
            lhs = coboundary(sphere_index, alt_cup(sphere_index, a, b))
            rhs = alt_cup(sphere_index, coboundary(sphere_index, a), b) + \
                alt_cup(sphere_index, a, coboundary(sphere_index, b)).scale((-1) ** p)
            assert lhs == rhs


def test_alt_cup_associativity_counterexample(sphere_index):
    # The projected product is NOT associative at cochain level: the two
    # nests disagree already on vertex/edge basis cochains.  Frozen from a
    # hand expansion; the law does hold after passing to cohomology
    # (test_alt_cup_associativity_up_to_coboundary).
    delta0 = Cochain.indicator((0,))
    chi01 = alternating_cochain((0, 1))
    lhs = alt_cup(sphere_index, alt_cup(sphere_index, delta0, delta0), chi01)
    rhs = alt_cup(sphere_index, delta0, alt_cup(sphere_index, delta0, chi01))
    assert lhs == alternating_cochain((0, 1), Fraction(1, 2))
    assert rhs == alternating_cochain((0, 1), Fraction(1, 4))
    assert lhs != rhs


def test_alt_cup_nests_against_full_symmetrization(sphere, sphere_index):
    # when the inner pair has total degree zero its projection is trivial
    # and that nest collapses to the single global parity average; the
    # mirror-image nest does not, which is exactly the associativity defect
    rng = Random(23)
    for r in (1, 2):
        for _ in range(5):
            a = random_alternating(sphere, 0, rng)
            b = random_alternating(sphere, 0, rng)
            c = random_alternating(sphere, r, rng)
            sym_left = alternative_maker(
                cup(sphere_index, cup(sphere_index, a, b), c))
            assert alt_cup(sphere_index, alt_cup(sphere_index, a, b), c) == sym_left
            sym_right = alternative_maker(
                cup(sphere_index, c, cup(sphere_index, a, b)))
            assert alt_cup(sphere_index, c, alt_cup(sphere_index, a, b)) == sym_right


def test_alt_cup_associativity_up_to_coboundary(torus):
    # for closed alternating inputs the two nests are cohomologous: their
    # difference is the coboundary of an alternating cochain.  Uses honest
    # degree-1 cocycles of the torus (kernel of the alternating coboundary),
    # which span nontrivial cohomology classes.
    from altchain.cochain_algebra import alt_coboundary_matrix
    from altchain.integer_homology import smith_normal_form

    index = enumerate_generators(torus, 3)
    edges = torus.simplices_of_dim(1)
    triangles = torus.simplices_of_dim(2)
    M1 = alt_coboundary_matrix(index, 1)  # alternating degree 1 -> 2
    dense1 = [[0] * M1.cols for _ in range(M1.rows)]
    for (r, col), v in M1.entries.items():
        dense1[r][col] = v
    kernel = smith_normal_form(dense1).kernel_basis()
    assert len(kernel) == len(edges) - fraction_rref_rank(dense1)

    rng = Random(29)
    for _ in range(4):
        vec_a, vec_b = rng.sample(kernel, 2)
        a = Cochain.zero(1)
        b = Cochain.zero(1)
        for tau, ca_, cb_ in zip(edges, vec_a, vec_b):
            if ca_:
                a = a + alternating_cochain(tau, ca_)
            if cb_:
                b = b + alternating_cochain(tau, cb_)
        c = Cochain(0, {(v,): Fraction(rng.randint(1, 5)) for v in range(7)})
        assert coboundary(index, a).is_zero() and coboundary(index, b).is_zero()
        lhs = alt_cup(index, alt_cup(index, a, b), c)
        rhs = alt_cup(index, a, alt_cup(index, b, c))
        diff = lhs - rhs
        assert is_alternative(diff)
        assert coboundary(index, diff).is_zero()
        # solvable over Q: diff = coboundary(xi) for an alternating xi
        target = [diff(t) for t in triangles]
        augmented = [row + [target[i]] for i, row in enumerate(dense1)]
        assert fraction_rref_rank(augmented) == fraction_rref_rank(dense1)


def test_nonlinear_residual(sphere, sphere_index):
    closed = coboundary(sphere_index, Cochain(0, {(0,): 3, (1,): -2}))
    assert coboundary(sphere_index, closed).is_zero()
    assert nonlinear_residual(sphere_index, closed).is_zero()
    assert nonlinear_residual(sphere_index, Cochain.zero(1)).is_zero()

    # independent oracle: full parity-weighted sum over all 24 reorderings
    group = enumerate_group(4)

    def oracle(alpha):
        dalpha = coboundary(sphere_index, alpha)
        out = {}
        for g in sphere_index.generators(3):
            total = Fraction(0)
            for s in group:
                h = act(s, g)
                total += s.sign * alpha(h[:2]) * dalpha(h[1:])
            if total:
                out[g] = total / factorial(4)
        return Cochain(3, out)

    rng = Random(31)
    for alpha in [alternating_cochain((0, 1))] + \
            [random_alternating(sphere, 1, rng) for _ in range(4)]:
        residual = nonlinear_residual(sphere_index, alpha)
        assert residual == oracle(alpha)
        # every degree-3 generator of the boundary complex has a repeated
        # vertex, so the alternating projection (hence the residual) is
        # forced to vanish there
        assert residual.is_zero()


def test_nonlinear_residual_nonzero_on_solid_tetrahedron(full_tetrahedron):
    index = enumerate_generators(full_tetrahedron, 3)
    alpha = alternating_cochain((0, 1), 1) + alternating_cochain((1, 2), 3) \
        + alternating_cochain((2, 3), -2) + alternating_cochain((0, 2), 5)
    residual = nonlinear_residual(index, alpha)
    assert not residual.is_zero()
    # independent oracle: full parity-weighted sum over all 24 reorderings
    dalpha = coboundary(index, alpha)
    group = enumerate_group(4)
    for g in index.generators(3):
        total = Fraction(0)
        for s in group:
            h = act(s, g)
            total += s.sign * alpha(h[:2]) * dalpha(h[1:])
        assert residual(g) == total / factorial(4)


def test_nonlinear_residual_degree_cap(sphere_index):
    with pytest.raises(DegreeCapError):
        nonlinear_residual(sphere_index, Cochain.indicator((0, 1, 2)))


def test_projector_commutes_with_coboundary(sphere_index):
    for n in (0, 1, 2):
        for g in sphere_index.generators(n):
            chi = Cochain.indicator(g)
            assert coboundary(sphere_index, alternative_maker(chi)) == \
                alternative_maker(coboundary(sphere_index, chi))


def test_cochain_arithmetic_and_errors():
    a = Cochain(1, {(0, 1): 1})
    b = Cochain(1, {(0, 1): -1, (1, 2): 2})
    assert (a + b) == Cochain(1, {(1, 2): 2})
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    with pytest.raises(ValueError):
        a + Cochain(0, {(0,): 1})
    with pytest.raises(ValueError):
        Cochain(2, {(0, 1): 1})


def test_serialization_roundtrip(sphere_index):
    alpha = Cochain(1, {(0, 1): Fraction(3, 7), (2, 1): -2})
    data = cochain_to_json(alpha)
    assert data["values"][0][1].count("/") == 1
    back = cochain_from_json(json.loads(json.dumps(data)), sphere_index)
    assert back == alpha


def test_serialization_strictness(sphere_index):
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [], "bogus": 0})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [[[0, 1], "1/0"]]})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [[[0], "1/2"]]})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [[[0, 1], "1/2"]],
                           "format_version": 2})
    with pytest.raises(FormatError):
        # (0, 1, 2, 3) spans no simplex of the sphere
        cochain_from_json({"degree": 3, "values": [[[0, 1, 2, 3], "1/1"]]},
                          sphere_index)


# ---------------------------------------------------------------------------
# the orbit forms against the group-sum forms they replaced

def oracle_alternative_maker(alpha):
    # the parity-weighted sum over the whole group at every reordering of
    # every supported tuple
    n = alpha.degree
    group = enumerate_group(n + 1)
    closure = {h for g in alpha.values for h in itertools.permutations(g)}
    out = {}
    for g in closure:
        total = sum((s.sign * alpha(act(s, g)) for s in group), Fraction(0))
        if total:
            out[g] = total / factorial(n + 1)
    return Cochain(n, out)


def oracle_is_alternative(alpha):
    group = enumerate_group(alpha.degree + 1)
    closure = {h for g in alpha.values for h in itertools.permutations(g)}
    return all(alpha(act(s, g)) == s.sign * alpha(g)
               for g in closure for s in group)


def oracle_coboundary(index, alpha):
    # gather: the signed sum of the face values at every generator
    n = alpha.degree
    out = {}
    for g in index.generators(n + 1):
        total = sum((-1) ** i * alpha(g[:i] + g[i + 1:]) for i in range(n + 2))
        if total:
            out[g] = total
    return Cochain(n + 1, out)


def matrix_columns(M):
    columns: dict = {}
    for (r, c), v in M.entries.items():
        columns.setdefault(c, []).append((r, v))
    return columns


def matrix_image(columns, index, alpha):
    # the matrix applied to the coordinate vector of alpha
    n = alpha.degree
    rows = index.generators(n + 1)
    out: dict = {}
    for g, a in alpha.values.items():
        for r, v in columns.get(index.position(g), ()):
            out[rows[r]] = out.get(rows[r], 0) + v * a
    return Cochain(n + 1, out)


@pytest.fixture(scope="module")
def oracle_indices(corpus):
    solid = SimplicialComplex.from_facets(5, [range(5)], name="solid_4_simplex")
    return [enumerate_generators(K, 4) for _, K in corpus] + \
        [enumerate_generators(solid, 4)]


@pytest.fixture(scope="module")
def oracle_columns(oracle_indices):
    # (position in oracle_indices, degree) -> coboundary matrix by column
    return {(k, n): matrix_columns(coboundary_matrix(index, n))
            for k, index in enumerate(oracle_indices) for n in range(4)}


@st.composite
def cochains(draw, index, degrees=range(5)):
    """Generators of the index (repeated entries included) together with a
    few reorderings of each, so that an orbit often holds several supported
    tuples whose signed values may cancel."""
    n = draw(st.sampled_from(list(degrees)))
    values = {}
    for g in draw(st.lists(st.sampled_from(index.generators(n)), max_size=4)):
        orders = draw(st.lists(st.permutations(range(n + 1)), min_size=1, max_size=3))
        for order in orders:
            values[tuple(g[j] for j in order)] = Fraction(
                draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return Cochain(n, values)


ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                           suppress_health_check=[HealthCheck.too_slow])


@ORACLE_SETTINGS
@given(data=st.data())
def test_orbit_projector_matches_group_sum(oracle_indices, data):
    index = data.draw(st.sampled_from(oracle_indices))
    alpha = data.draw(cochains(index))
    once = alternative_maker(alpha)
    assert once == oracle_alternative_maker(alpha)
    assert is_alternative(alpha) == oracle_is_alternative(alpha)
    assert is_alternative(once) and oracle_is_alternative(once)
    assert all(len(set(g)) == len(g) for g in once.values)


@ORACLE_SETTINGS
@given(data=st.data())
def test_scatter_coboundary_matches_gather_and_matrix(oracle_indices,
                                                      oracle_columns, data):
    k = data.draw(st.integers(0, len(oracle_indices) - 1))
    index = oracle_indices[k]
    alpha = data.draw(cochains(index, range(4)))
    image = coboundary(index, alpha)
    assert image == oracle_coboundary(index, alpha)
    assert image == matrix_image(oracle_columns[k, alpha.degree], index, alpha)


def test_scaled_projector_matrix_matches_group_sum(sphere_index, oracle_indices):
    solid = oracle_indices[-1]
    for index, top in ((sphere_index, 3), (solid, 2)):
        for n in range(top + 1):
            M = alternative_maker_matrix_scaled(index, n)
            for j, g in enumerate(index.generators(n)):
                column = {index.generators(n)[r]: v
                          for (r, c), v in M.entries.items() if c == j}
                expected = oracle_alternative_maker(Cochain.indicator(g))
                assert Cochain(n, column) == expected.scale(factorial(n + 1))


def test_is_alternative_rejects_a_broken_orbit():
    chi = alternating_cochain((0, 1, 2), Fraction(3, 2))
    assert is_alternative(chi) and oracle_is_alternative(chi)
    missing = Cochain(2, {g: v for g, v in chi.values.items() if g != (2, 0, 1)})
    flipped = Cochain(2, {g: -v if g == (1, 0, 2) else v
                          for g, v in chi.values.items()})
    repeat = chi + Cochain.indicator((0, 0, 1))
    for bad in (missing, flipped, repeat):
        assert not is_alternative(bad)
        assert not oracle_is_alternative(bad)
    # a repeated tuple alone, and a symmetric rather than alternating pair
    assert not is_alternative(Cochain(1, {(2, 2): -1}))
    assert not is_alternative(Cochain(1, {(0, 1): 1, (1, 0): 1}))
