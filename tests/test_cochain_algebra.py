import itertools
import json
from fractions import Fraction
from math import factorial, gcd
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from altchain import (Cochain, DegreeCapError, FormatError, SimplicialComplex,
                      alt_cup, alternating_cochain,
                      alternative_maker, coboundary, cup,
                      enumerate_generators, is_alternative,
                      nonlinear_residual, split)
from altchain import integer_homology as ih
from altchain.cochain_algebra import cochain_from_json, cochain_to_json
from altchain.homotopy_prism import SimplicialMap, pull_back
from altchain.permutations import parity
from oracles import (alt_coboundary_matrix, coboundary_matrix, fraction_alternating,
                     fraction_coboundary, fraction_cup, fraction_projector,
                     fraction_pull_back, fraction_rank, fraction_scale, fraction_sum,
                     integer_kernel, reorder, reorderings, scaled_projector_matrix,
                     sparse_rows, transpose)


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
        dense = coboundary_matrix(sphere_index, n)
        alpha = random_cochain(sphere_index, n, rng)
        vec = [alpha(g) for g in sphere_index.generators(n)]
        image = coboundary(sphere_index, alpha)
        for i, g in enumerate(sphere_index.generators(n + 1)):
            assert image(g) == sum(a * b for a, b in zip(dense[i], vec))


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
    dense = scaled_projector_matrix(sphere_index, 1)
    assert len(dense) == sphere_index.count(1) == 16
    assert fraction_rank(dense) == 6
    assert len(ih._eliminate(sparse_rows(dense))[0]) == 6
    assert len(integer_kernel(dense)) == 10
    assert dense == transpose(dense)  # symmetric, so its rows are its columns


def test_alt_basis_counts(sphere_index):
    # the alternating cochains have one basis cochain per simplex: the
    # projector's rank, with the rest of each degree its kernel
    ranks = [fraction_rank(scaled_projector_matrix(sphere_index, n)) for n in range(4)]
    assert ranks == [len(sphere_index.complex.simplices_of_dim(n)) for n in range(4)]
    assert ranks == [4, 6, 4, 0]
    assert sphere_index.count(3) - ranks[3] == 232


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
    index = enumerate_generators(torus, 3)
    edges = torus.simplices_of_dim(1)
    triangles = torus.simplices_of_dim(2)
    dense1 = alt_coboundary_matrix(torus, 1)  # alternating degree 1 -> 2
    kernel = integer_kernel(dense1)
    assert len(kernel) == len(edges) - fraction_rank(dense1)

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
        assert fraction_rank(augmented) == fraction_rank(dense1)


def test_nonlinear_residual(sphere, sphere_index):
    closed = coboundary(sphere_index, Cochain(0, {(0,): 3, (1,): -2}))
    assert coboundary(sphere_index, closed).is_zero()
    assert nonlinear_residual(sphere_index, closed).is_zero()
    assert nonlinear_residual(sphere_index, Cochain.zero(1)).is_zero()

    # independent oracle: full parity-weighted sum over all 24 reorderings
    group = list(reorderings(4))

    def oracle(alpha):
        dalpha = coboundary(sphere_index, alpha)
        out = {}
        for g in sphere_index.generators(3):
            total = Fraction(0)
            for images, sign in group:
                h = reorder(images, g)
                total += sign * alpha(h[:2]) * dalpha(h[1:])
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
    group = list(reorderings(4))
    for g in index.generators(3):
        total = Fraction(0)
        for images, sign in group:
            h = reorder(images, g)
            total += sign * alpha(h[:2]) * dalpha(h[1:])
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


def test_cochain_values_are_exact():
    # a float has no exact value here (0.1 would become 3602879701896397/2**55)
    a = Cochain(1, {(0, 1): 1})
    for make in (lambda: Cochain(0, {(0,): 0.1}), lambda: Cochain(1, {(0, 1): 2.0}),
                 lambda: a.scale(0.5), lambda: alternating_cochain((0, 1), 0.5)):
        with pytest.raises(TypeError):
            make()
    assert a.scale(Fraction(1, 2)) == Cochain(1, {(0, 1): Fraction(1, 2)})
    assert a.scale(-2).values == {(0, 1): -2}
    assert Cochain(0, {(0,): 3}).values == {(0,): Fraction(3)}
    assert type(Cochain(0, {(0,): 3}).values[(0,)]) is Fraction


def test_serialization_roundtrip(sphere_index):
    alpha = Cochain(1, {(0, 1): Fraction(3, 7), (2, 1): -2})
    data = cochain_to_json(alpha)
    assert data["values"][0][1].count("/") == 1
    back = cochain_from_json(json.loads(json.dumps(data)), sphere_index)
    assert back == alpha


def test_reader_sums_the_repeats_of_a_tuple():
    def read(*entries):
        return cochain_from_json({"degree": 1, "values": [list(e) for e in entries]})

    assert read(([0, 1], "1/2"), ([0, 1], "1/3")).values == {(0, 1): Fraction(5, 6)}
    cancelled = read(([0, 1], "1/2"), ([0, 1], "-1/2"))
    assert (cancelled.num, cancelled.den) == ({}, 1)
    whole = read(([0, 1], "1/2"), ([1, 2], 3), ([0, 1], "1/2"))
    assert (whole.num, whole.den) == ({(0, 1): 1, (1, 2): 3}, 1)
    # five repeats over pairwise nearly coprime 1,000-digit denominators
    # pass the digit limit, and the reader stops there: the bad sixth
    # entry is never read
    repeats = [([0, 1], f"1/{10 ** 999 + k}") for k in range(5)]
    with pytest.raises(FormatError, match="digit limit"):
        read(*repeats, ([0, 1], "one half"))
    assert read(*repeats[:4]).values == {
        (0, 1): sum(Fraction(1, 10 ** 999 + k) for k in range(4))}


# a JSON integer, or a string of the reader's grammar, with Fraction as oracle
READ_VALUES = [3, -4, 0, 10 ** 40, "6/4", "-6/4", "-0", "0/5", "007", "-3/0006",
               "1.50", "-0.25", "-12.000", "0.0", "9" * 4_000, "-" + "9" * 4_000 + "/3",
               "9" * 3_000 + "." + "9" * 3_000]
# refused with the one message; "9" * 5_000 passes int()'s digit limit
REFUSED_VALUES = ["1/0", "-0/0", "1/", "+1", " 1", "1 ", "1e3", "0.", ".5", 0.5, 2.0,
                  True, False, "9" * 5_000, "1/" + "9" * 5_000, "0." + "9" * 5_000]


@pytest.mark.parametrize("value", READ_VALUES, ids=range(len(READ_VALUES)))
def test_reader_matches_the_fraction_oracle(value):
    loaded = cochain_from_json({"degree": 1, "values": [[[0, 1], value]]})
    assert loaded == Cochain(1, {(0, 1): Fraction(value)})


def test_reader_refuses_each_malformed_value_with_its_entry():
    for value in REFUSED_VALUES:
        entry = [[0, 1], value]
        with pytest.raises(FormatError) as refused:
            cochain_from_json({"degree": 1, "values": [entry]})
        assert str(refused.value) == f"bad cochain entry {entry!r}"


def test_serialization_strictness(sphere_index):
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [], "bogus": 0})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [[[0, 1], "1/0"]]})
    with pytest.raises(FormatError):
        cochain_from_json({"degree": 1, "values": [[[0], "1/2"]]})
    for version in (2, True, 1.0):
        with pytest.raises(FormatError):
            cochain_from_json({"degree": 1, "values": [[[0, 1], "1/2"]],
                               "format_version": version})
    # vertices are JSON integers; values are JSON integers or exact strings
    loaded = cochain_from_json({"degree": 1, "values": [
        [[0, 1], "1/3"], [[1, 2], "-2"], [[0, 2], 5], [[2, 3], "0.25"]]})
    assert loaded.values == {(0, 1): Fraction(1, 3), (1, 2): -2, (0, 2): 5,
                             (2, 3): Fraction(1, 4)}
    for entry in ([[0, 1.9], "1/3"], [[True, 2], "1/3"], [[0, 1], 0.1],
                  [[0, 1], True], [[0, 1], None], [[0, 1], "1e3"],
                  [[0, 1], " 1/2"], [[0, 1], "1_000"], [[0, 1], "inf"],
                  [[0, 1], "1/-2"], ["01", "1/1"], [[0, 1], "1/1", 0], [[0, 1]]):
        with pytest.raises(FormatError):
            cochain_from_json({"degree": 1, "values": [entry]})
    for data in ({"degree": True, "values": []}, {"degree": 1.0, "values": []},
                 {"degree": 1, "values": {"0": "1/1"}}):
        with pytest.raises(FormatError):
            cochain_from_json(data)
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
    group = list(reorderings(n + 1))
    closure = {h for g in alpha.values for h in itertools.permutations(g)}
    out = {}
    for g in closure:
        total = sum((sign * alpha(reorder(images, g)) for images, sign in group),
                    Fraction(0))
        if total:
            out[g] = total / factorial(n + 1)
    return Cochain(n, out)


def oracle_is_alternative(alpha):
    group = list(reorderings(alpha.degree + 1))
    closure = {h for g in alpha.values for h in itertools.permutations(g)}
    return all(alpha(reorder(images, g)) == sign * alpha(g)
               for g in closure for images, sign in group)


def oracle_coboundary(index, alpha):
    # gather: the signed sum of the face values at every generator
    n = alpha.degree
    out = {}
    for g in index.generators(n + 1):
        total = sum((-1) ** i * alpha(g[:i] + g[i + 1:]) for i in range(n + 2))
        if total:
            out[g] = total
    return Cochain(n + 1, out)


def matrix_columns(dense):
    columns: dict = {}
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                columns.setdefault(c, []).append((r, v))
    return columns


def matrix_image(columns, index, alpha):
    # the matrix applied to the coordinate vector of alpha
    n = alpha.degree
    rows = index.generators(n + 1)
    out: dict = {}
    for g, a in alpha.values.items():
        for r, v in columns.get(index.positions(n)[g], ()):
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


# pairwise coprime past 1, so that sums of values meet many denominators
DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)


@st.composite
def cochains(draw, index, degrees=range(5)):
    """Generators of the index (repeated entries included) together with a
    few reorderings of each, so that an orbit often holds several supported
    tuples.  Some orbits of distinct entries get a last value that makes
    their signed sum cancel to zero."""
    n = draw(st.sampled_from(list(degrees)))
    values = {}
    for g in draw(st.lists(st.sampled_from(index.generators(n)), max_size=4)):
        orders = draw(st.lists(st.permutations(range(n + 1)), min_size=1, max_size=3))
        orbit = {}
        for order in orders:
            orbit[tuple(g[j] for j in order)] = Fraction(
                draw(st.integers(-3, 3)), draw(st.sampled_from(DENOMINATORS)))
        if len(orbit) > 1 and len(set(g)) == len(g) and draw(st.booleans()):
            # the parity of a tuple of distinct entries is its sign in the orbit
            *rest, last = orbit
            orbit[last] = -parity(last) * sum(parity(h) * orbit[h] for h in rest)
        values.update(orbit)
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


@ORACLE_SETTINGS
@given(data=st.data())
def test_add_matches_pointwise_sum(oracle_indices, data):
    index = data.draw(st.sampled_from(oracle_indices))
    alpha = data.draw(cochains(index))
    beta = data.draw(cochains(index, [alpha.degree]))
    # some of alpha's tuples get the opposite value, so their sums cancel
    cancelled = set()
    if alpha.values:
        cancelled = data.draw(st.sets(st.sampled_from(sorted(alpha.values))))
    beta = Cochain(alpha.degree, {**beta.values,
                                  **{g: -alpha(g) for g in cancelled}})
    total = alpha + beta
    pointwise = {g: alpha(g) + beta(g) for g in {*alpha.values, *beta.values}}
    assert total.values == {g: v for g, v in pointwise.items() if v}
    assert not cancelled & total.values.keys()
    assert all(type(v) is Fraction for v in total.values.values())
    assert (alpha - alpha).values == {}


def assert_clean(result):
    """Built without checks, a result still holds only nonzero Fractions
    on tuples of its degree: the checking constructor keeps it as it is."""
    assert result == Cochain(result.degree, result.values)
    assert all(type(v) is Fraction and v for v in result.values.values())


@ORACLE_SETTINGS
@given(data=st.data())
def test_computed_cochains_need_no_checks(oracle_indices, data):
    index = data.draw(st.sampled_from(oracle_indices))
    alpha = data.draw(cochains(index, range(3)))
    n = alpha.degree
    same = data.draw(cochains(index, [n]))
    beta = data.draw(cochains(index, range(3 - n)))
    d_alpha = coboundary(index, alpha)
    results = [alpha + same, alpha - same, -alpha, d_alpha,
               cup(index, alpha, beta), alternative_maker(alpha)]
    # forced cancellations: every sum, and the coboundary of a coboundary,
    # is zero
    cancelled = [alpha + (-alpha), alpha - alpha, coboundary(index, d_alpha)]
    simplices = index.complex.simplices_of_dim(n)
    if simplices:
        tau = data.draw(st.sampled_from(simplices))
        value = Fraction(data.draw(st.integers(-3, 3)),
                         data.draw(st.sampled_from(DENOMINATORS)))
        chi = alternating_cochain(tau, value)
        results += [chi, chi + alpha]
        cancelled += [alternating_cochain(tau, 0), chi - chi]
    for result in results + cancelled:
        assert_clean(result)
    assert all(r.is_zero() for r in cancelled)
    assert [r.degree for r in cancelled[:3]] == [n, n, n + 2]
    assert all(r.degree == n for r in cancelled[3:])


def assert_canonical(result, expected):
    """Nonzero int numerators over an int denominator in lowest terms, the
    same cochain again through the checking constructor, and the values of
    the {tuple: Fraction} oracle."""
    num, den = result.num, result.den
    assert type(den) is int and den >= 1
    assert all(type(v) is int and v for v in num.values())
    assert gcd(den, *num.values()) == 1  # so den == 1 when num is empty
    assert Cochain(result.degree, result.values) == result
    assert result.values == expected


@ORACLE_SETTINGS
@given(data=st.data())
def test_every_operation_keeps_the_canonical_form(oracle_indices, data):
    index = data.draw(st.sampled_from(oracle_indices))
    K = index.complex
    alpha = data.draw(cochains(index, range(3)))
    n = alpha.degree
    same = data.draw(cochains(index, [n]))
    beta = data.draw(cochains(index, range(3 - n)))
    a, b, c, q = alpha.values, same.values, beta.values, beta.degree
    k = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.sampled_from(DENOMINATORS)))
    image = data.draw(st.lists(st.integers(0, K.vertex_count - 1),
                               min_size=K.vertex_count, max_size=K.vertex_count))
    try:
        f = SimplicialMap(K, K, image)
    except ValueError:  # not simplicial: the constant map is
        f = SimplicialMap.constant(K, K, image[0])
    projected = fraction_projector(a, n)
    alt, kernel = split(alpha)
    checks = [
        (alpha + same, fraction_sum(a, b)), (alpha - same, fraction_sum(a, b, -1)),
        (-alpha, fraction_scale(a, -1)), (alpha.scale(k), fraction_scale(a, k)),
        (coboundary(index, alpha), fraction_coboundary(index, a, n)),
        (cup(index, alpha, beta), fraction_cup(index, a, n, c, q)),
        (alt_cup(index, alpha, beta),
         fraction_projector(fraction_cup(index, a, n, c, q), n + q)),
        (alternative_maker(alpha), projected),
        (alt, projected), (kernel, fraction_sum(a, projected, -1)),
        (pull_back(f, alpha), fraction_pull_back(f, index, a, n)),
        (cochain_from_json(json.loads(json.dumps(cochain_to_json(alpha)))), a)]
    simplices = K.simplices_of_dim(n)
    if simplices:
        tau = data.draw(st.sampled_from(simplices))
        checks.append((alternating_cochain(tau, k), fraction_alternating(tau, k)))
    for result, expected in checks:
        assert_canonical(result, expected)


def seeded_cochain(gens, n, rng):
    """Nonzero values on a few of the given generators, one with a repeated
    entry among them when the list has one, and on a reordering of each
    that the list holds, so that an orbit often holds two tuples."""
    picked = rng.sample(gens, min(3, len(gens)))
    repeats = [g for g in gens if len(set(g)) < len(g)]
    if repeats:
        picked.append(rng.choice(repeats))
    allowed, values = set(gens), {}
    for g in picked:
        for h in (g, tuple(rng.sample(g, len(g)))):
            if h in allowed:
                values[h] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 6))
    return Cochain(n, values)


def test_cup_and_projector_match_the_fraction_oracles(oracle_indices):
    # cup reads beta by first vertex and the projector sums each orbit in
    # one pass; both against the oracles, on empty inputs too, and on a
    # beta none of whose first vertices ends an alpha tuple
    rng = Random(30)
    met = {"repeat": 0, "apart": 0}
    for index in oracle_indices:
        for p in range(3):
            for q in range(3 - p):
                for _ in range(3):
                    alpha = seeded_cochain(index.generators(p), p, rng)
                    ends = {a[-1] for a in alpha.num}
                    apart = [b for b in index.generators(q) if b[0] not in ends]
                    betas = [seeded_cochain(index.generators(q), q, rng), Cochain.zero(q)]
                    if apart:
                        betas.append(seeded_cochain(apart, q, rng))
                        met["apart"] += 1
                    met["repeat"] += any(len(set(g)) < len(g) for g in alpha.num)
                    for a in (alpha, Cochain.zero(p)):
                        for b in betas:
                            product = cup(index, a, b)
                            expected = fraction_cup(index, a.values, p, b.values, q)
                            assert product.values == expected, (index.complex.name, a, b)
                            assert alternative_maker(product).values == \
                                fraction_projector(expected, p + q)
                        assert alternative_maker(a).values == fraction_projector(a.values, p)
                    if apart:
                        assert cup(index, alpha, betas[-1]).is_zero()
    empty = alternative_maker(Cochain.zero(2))
    assert empty.is_zero() and (empty.degree, empty.den) == (2, 1)
    assert met["repeat"] and met["apart"]


def test_scaled_projector_matrix_matches_group_sum(sphere_index, oracle_indices):
    # the projector of every indicator: (n+1)! times it is its column of
    # the fraction oracle's matrix, and it is the group sum
    solid = oracle_indices[-1]
    for index, top in ((sphere_index, 3), (solid, 2)):
        for n in range(top + 1):
            M = scaled_projector_matrix(index, n)
            gens = index.generators(n)
            for j, g in enumerate(gens):
                column = {gens[r]: row[j] for r, row in enumerate(M) if row[j]}
                image = alternative_maker(Cochain.indicator(g))
                assert image.scale(factorial(n + 1)) == Cochain(n, column)
                assert image == oracle_alternative_maker(Cochain.indicator(g))


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
