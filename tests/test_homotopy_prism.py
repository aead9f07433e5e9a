from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from altchain import (AltChain, CombinatorialHomotopy, Cochain, SimplicialMap,
                      alternating_cochain, alternative_maker, boundary,
                      coboundary, enumerate_generators, is_alternative,
                      ordered_boundary, prism, prism_alt, pull_back,
                      push_forward, push_forward_alt)
from altchain.alt_chains import canonicalize
from altchain.complex_model import SimplicialComplex, face
from altchain.homotopy_prism import prism_generator
from altchain.permutations import act, enumerate_group
from oracles import integer_kernel


def chain_sub(a, b):
    out = dict(a)
    for t, c in b.items():
        out[t] = out.get(t, 0) - c
    return {t: c for t, c in out.items() if c}


def prism_identity_holds(h, g):
    # boundary(prism) + prism(boundary) == end - start, on one generator
    chain = {g: 1}
    lhs = ordered_boundary(prism(h, chain))
    if len(g) > 1:
        for t, c in prism(h, ordered_boundary(chain)).items():
            lhs[t] = lhs.get(t, 0) + c
    lhs = {t: c for t, c in lhs.items() if c}
    rhs = chain_sub(push_forward(h.end, chain), push_forward(h.start, chain))
    return lhs == rhs


def prism_identity_holds_alt(h, g):
    alt = AltChain.from_generator(g)
    lhs = boundary(prism_alt(h, alt))
    if len(g) > 1:
        lhs = lhs + prism_alt(h, boundary(alt))
    rhs = push_forward_alt(h.end, alt) - push_forward_alt(h.start, alt)
    return lhs == rhs


def test_simplicial_map_validation(sphere, full_tetrahedron):
    with pytest.raises(ValueError):
        SimplicialMap(sphere, sphere, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        SimplicialMap(sphere, sphere, (0, 1, 2, 9))  # image out of range
    # collapsing two opposite vertices of the sphere is fine (images span
    # smaller simplices), but mapping a facet onto the missing tetrahedron
    # interior is not expressible; check a genuinely bad assignment on the
    # tetrahedron boundary target
    tetra_to_sphere = SimplicialMap(full_tetrahedron, full_tetrahedron,
                                    (0, 1, 2, 3))
    assert tetra_to_sphere.apply((0, 3, 3)) == (0, 3, 3)
    with pytest.raises(ValueError):
        # the solid facet {0,1,2,3} cannot land on the hollow sphere
        SimplicialMap(full_tetrahedron, sphere, (0, 1, 2, 3))


def test_push_forward_examples(sphere, sphere_index):
    ident = SimplicialMap.identity(sphere)
    chain = {(0, 1): 2, (2, 3): -1}
    assert push_forward(ident, chain) == chain

    const = SimplicialMap.constant(sphere, sphere, 0)
    assert push_forward(const, {(1, 2): 1}) == {(0, 0): 1}

    # swapping vertices 0 and 1 is a simplicial automorphism of the sphere;
    # on the quotient it flips the orientation class of (0, 1, 2)
    swap = SimplicialMap(sphere, sphere, (1, 0, 2, 3))
    pushed = push_forward_alt(swap, AltChain.from_generator((0, 1, 2)))
    assert pushed == AltChain.from_generator((0, 1, 2), -1)


def test_push_forward_is_chain_map(sphere, sphere_index):
    rng = Random(3)
    swap = SimplicialMap(sphere, sphere, (1, 0, 2, 3))
    const = SimplicialMap.constant(sphere, sphere, 2)
    for f in (swap, const):
        for n in (1, 2, 3):
            gens = sphere_index.generators(n)
            chain = {g: rng.randint(-3, 3) for g in rng.sample(gens, 5)}
            assert ordered_boundary(push_forward(f, chain)) == \
                push_forward(f, ordered_boundary(chain))


def test_pull_back_examples(sphere, sphere_index):
    ident = SimplicialMap.identity(sphere)
    alpha = Cochain(1, {(0, 1): Fraction(1, 2), (2, 2): 3})
    assert pull_back(ident, alpha) == alpha

    const = SimplicialMap.constant(sphere, sphere, 0)
    chi = alternating_cochain((1, 2))
    assert pull_back(const, chi).is_zero()

    beta = Cochain(0, {(0,): 5})
    pulled = pull_back(const, beta)
    assert pulled == Cochain(0, {(v,): 5 for v in range(4)})


def test_pull_back_preserves_alternating_and_commutes(sphere, sphere_index):
    rng = Random(5)
    swap = SimplicialMap(sphere, sphere, (1, 0, 2, 3))
    const = SimplicialMap.constant(sphere, sphere, 1)
    for f in (swap, const):
        for n in (0, 1, 2):
            gens = sphere_index.generators(n)
            alpha = Cochain(n, {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for g in rng.sample(gens, 4)})
            assert pull_back(f, alternative_maker(alpha)) == \
                alternative_maker(pull_back(f, alpha))
        chi = alternating_cochain(sphere.simplices_of_dim(1)[0])
        assert is_alternative(pull_back(f, chi))


def test_contiguity_validation(sphere, full_triangle):
    ident = SimplicialMap.identity(sphere)
    # swapping 0,1 moves facet {0,2,3} to {1,2,3}: the union spans all four
    # vertices, which is not a simplex of the hollow sphere
    swap = SimplicialMap(sphere, sphere, (1, 0, 2, 3))
    with pytest.raises(ValueError):
        CombinatorialHomotopy(ident, swap)
    # cone contraction of the solid triangle is contiguous
    CombinatorialHomotopy(SimplicialMap.constant(full_triangle, full_triangle, 0),
                          SimplicialMap.identity(full_triangle))
    with pytest.raises(ValueError):
        CombinatorialHomotopy(ident, SimplicialMap.identity(full_triangle))


def test_prism_cone_examples(full_triangle):
    f = SimplicialMap.constant(full_triangle, full_triangle, 0)
    g = SimplicialMap.identity(full_triangle)
    h = CombinatorialHomotopy(f, g)

    assert prism_generator(h, (1,)) == {(0, 1): 1}
    assert prism_identity_holds(h, (1,))

    # degree 1: head mapped through the contraction, tail through the
    # identity, signs alternating over the split position
    assert prism_generator(h, (1, 2)) == {(0, 1, 2): 1, (0, 0, 2): -1}
    assert prism_identity_holds(h, (1, 2))


def test_prism_identity_homotopy(sphere, sphere_index):
    ident = SimplicialMap.identity(sphere)
    h = CombinatorialHomotopy(ident, ident)
    # the operator itself is nonzero even though end - start vanishes
    assert prism(h, {(0, 1): 1}) != {}
    for n in (0, 1, 2):
        for g in sphere_index.generators(n)[::5]:
            assert prism_identity_holds(h, g)
            assert prism_identity_holds_alt(h, g)


def test_prism_identity_cone_all_degrees(full_tetrahedron):
    index = enumerate_generators(full_tetrahedron, 3)
    h = CombinatorialHomotopy(
        SimplicialMap.constant(full_tetrahedron, full_tetrahedron, 0),
        SimplicialMap.identity(full_tetrahedron))
    for n in (0, 1, 2):
        for g in index.generators(n):
            assert prism_identity_holds(h, g)
            assert prism_identity_holds_alt(h, g)


def test_prism_nontrivial_pair_on_torus(torus):
    from altchain.complex_model import SimplicialComplex
    seg = SimplicialComplex.from_facets(2, [[0, 1]], name="segment")
    seg_index = enumerate_generators(seg, 3)
    p, q, r = torus.simplices_of_dim(2)[0]
    f = SimplicialMap(seg, torus, (p, q))
    g = SimplicialMap(seg, torus, (q, r))
    h = CombinatorialHomotopy(f, g)
    for n in range(3):
        for gen in seg_index.generators(n):
            assert prism_identity_holds(h, gen)
            assert prism_identity_holds_alt(h, gen)


def test_prism_alt_well_defined():
    from altchain.complex_model import SimplicialComplex
    solid = SimplicialComplex.from_facets(4, [[0, 1, 2, 3]])
    h = CombinatorialHomotopy(SimplicialMap.constant(solid, solid, 0),
                              SimplicialMap.identity(solid))
    index = enumerate_generators(solid, 2)
    for n in (1, 2):
        for g in index.generators(n):
            base = prism_alt(h, AltChain.from_generator(g))
            for s in enumerate_group(n + 1):
                lhs = prism_alt(h, AltChain.from_generator(act(s, g)))
                rhs = prism_alt(h, AltChain.from_generator(g, s.sign))
                assert lhs == rhs
            assert base == prism_alt(h, AltChain.from_generator(g))


def test_prism_alt_well_defined_on_sphere(sphere, sphere_index):
    ident = SimplicialMap.identity(sphere)
    h = CombinatorialHomotopy(ident, ident)
    for n in (1, 2):
        for g in sphere_index.generators(n):
            for s in enumerate_group(n + 1):
                lhs = prism_alt(h, AltChain.from_generator(act(s, g)))
                rhs = prism_alt(h, AltChain.from_generator(g, s.sign))
                assert lhs == rhs


def test_prism_alt_torsion_input(full_triangle):
    h = CombinatorialHomotopy(
        SimplicialMap.constant(full_triangle, full_triangle, 0),
        SimplicialMap.identity(full_triangle))
    torsion = AltChain.from_generator((1, 1))
    out = prism_alt(h, torsion)
    assert not out.free          # pure torsion output
    assert prism_identity_holds_alt(h, (1, 1))


def test_prism_alt_linear_on_chains(full_tetrahedron):
    # the quotient prism must be linear, mixed free/torsion included
    index = enumerate_generators(full_tetrahedron, 2)
    h = CombinatorialHomotopy(
        SimplicialMap.constant(full_tetrahedron, full_tetrahedron, 0),
        SimplicialMap.identity(full_tetrahedron))
    rng = Random(8)
    for n in (1, 2):
        gens = index.generators(n)
        picks = rng.sample(gens, 4)
        total = AltChain(n)
        expected = AltChain(n + 1)
        for g in picks:
            c = rng.randint(-3, 3)
            total = total + AltChain.from_generator(g, c)
            expected = expected + prism_alt(h, AltChain.from_generator(g, c))
        assert prism_alt(h, total) == expected


def test_contiguous_maps_agree_on_homology(torus):
    # for a cycle z the prism supplies an explicit primitive:
    # boundary(P(z)) equals end(z) - start(z), so the induced maps agree
    # on every homology class
    from altchain.complex_model import SimplicialComplex
    from altchain.integer_homology import ordered_boundary_matrix

    seg = SimplicialComplex.from_facets(2, [[0, 1]], name="segment")
    seg_index = enumerate_generators(seg, 2)
    p, q, r = torus.simplices_of_dim(2)[0]
    h = CombinatorialHomotopy(SimplicialMap(seg, torus, (p, q)),
                              SimplicialMap(seg, torus, (q, r)))
    for n in (1, 2):
        M = ordered_boundary_matrix(seg_index, n)
        kernel = integer_kernel(M.to_dense())
        gens = seg_index.generators(n)
        for vec in kernel:
            z = {g: c for g, c in zip(gens, vec) if c}
            assert ordered_boundary(z) == {}
            difference = push_forward(h.end, z)
            for t, c in push_forward(h.start, z).items():
                difference[t] = difference.get(t, 0) - c
            difference = {t: c for t, c in difference.items() if c}
            assert ordered_boundary(prism(h, z)) == difference


def test_contiguous_maps_agree_on_alternating_cohomology(torus):
    # dual statement: pulling back a closed alternating cochain along the
    # two maps gives cohomologous results, with the explicit alternating
    # primitive A(omega o P)
    from altchain.cochain_algebra import alt_coboundary_matrix
    from altchain.complex_model import SimplicialComplex

    index = enumerate_generators(torus, 2)
    edges = torus.simplices_of_dim(1)
    M = alt_coboundary_matrix(index, 1)
    dense = [[0] * M.cols for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        dense[i][j] = v
    kernel = integer_kernel(dense)
    assert kernel  # the torus has closed degree-1 cochains to spare

    seg = SimplicialComplex.from_facets(2, [[0, 1]], name="segment")
    seg_index = enumerate_generators(seg, 2)
    p, q, r = torus.simplices_of_dim(2)[0]
    h = CombinatorialHomotopy(SimplicialMap(seg, torus, (p, q)),
                              SimplicialMap(seg, torus, (q, r)))
    for vec in kernel[:3]:
        omega = Cochain.zero(1)
        for tau, c in zip(edges, vec):
            if c:
                omega = omega + alternating_cochain(tau, c)
        assert coboundary(index, omega).is_zero()
        pulled_diff = pull_back(h.end, omega) - pull_back(h.start, omega)
        # transpose the prism through the cochain: xi(g) = omega(P(g))
        xi_vals = {}
        for g in seg_index.generators(0):
            xi_vals[g] = sum(c * omega(t)
                             for t, c in prism_generator(h, g).items())
        xi = Cochain(0, {g: v for g, v in xi_vals.items() if v})
        assert coboundary(seg_index, xi) == pulled_diff
        assert coboundary(seg_index, alternative_maker(xi)) == pulled_diff
        assert is_alternative(pulled_diff)


# ---------------------------------------------------------------------------
# the descended maps against the hand-written loops they replaced

def _add_generator(free, torsion, g, c):
    t, is_torsion, coeff = canonicalize(g)
    if is_torsion:
        torsion[t] = torsion.get(t, 0) + c
    else:
        free[t] = free.get(t, 0) + coeff * c


def oracle_boundary(chain):
    free, torsion = {}, {}
    for t, c in chain.free.items():
        for i in range(len(t)):
            _add_generator(free, torsion, face(t, i), ((-1) ** i) * c)
    pending_free: dict = {}
    for t, c in chain.torsion.items():
        for i in range(len(t)):
            key, is_torsion, coeff = canonicalize(face(t, i))
            if is_torsion:
                torsion[key] = torsion.get(key, 0) + c
            else:
                pending_free[key] = pending_free.get(key, 0) + ((-1) ** i) * coeff * c
    if any(pending_free.values()):
        raise ArithmeticError(f"free terms {pending_free}")
    return AltChain(chain.degree - 1, free, torsion)


def oracle_push_forward_alt(f, chain):
    free, torsion = {}, {}
    for t, c in chain.free.items():
        _add_generator(free, torsion, f.apply(t), c)
    for t, c in chain.torsion.items():
        ft = tuple(sorted(f.apply(t)))
        torsion[ft] = torsion.get(ft, 0) + c
    return AltChain(chain.degree, free, torsion)


def oracle_prism_alt(h, chain):
    free, torsion = {}, {}
    for t, c in chain.free.items():
        for u, v in prism_generator(h, t).items():
            _add_generator(free, torsion, u, c * v)
    for t, c in chain.torsion.items():
        piece = AltChain.from_ordered(chain.degree + 1, prism_generator(h, t))
        if piece.free:
            raise ArithmeticError(f"free terms {piece.free}")
        for u, w in piece.torsion.items():
            torsion[u] = torsion.get(u, 0) + c * w
    return AltChain(chain.degree + 1, free, torsion)


@pytest.fixture(scope="module")
def prism_fixtures(corpus):
    """(domain index, homotopy) pairs of the verify prism suite: cone
    contractions of full simplices, the identity homotopy on each corpus
    complex, and an edge walked across a triangle of each."""
    out = []
    for d in (1, 2, 3):
        K = SimplicialComplex.from_facets(d + 1, [range(d + 1)])
        out.append((enumerate_generators(K, min(3, d + 1)), CombinatorialHomotopy(
            SimplicialMap.constant(K, K, 0), SimplicialMap.identity(K))))
    edge = SimplicialComplex.from_facets(2, [[0, 1]])
    edge_index = enumerate_generators(edge, 3)
    for _, K in corpus:
        ident = SimplicialMap.identity(K)
        out.append((enumerate_generators(K, 3), CombinatorialHomotopy(ident, ident)))
        if K.simplices_of_dim(2):
            p, q, r = K.simplices_of_dim(2)[0]
            out.append((edge_index, CombinatorialHomotopy(
                SimplicialMap(edge, K, (p, q)), SimplicialMap(edge, K, (q, r)))))
    return out


@st.composite
def alt_chains(draw, index):
    """A quotient chain of degree 0-3 projected from a few ordered
    generators with distinct entries and a few with a repeat, so that it
    has a free and a torsion part whenever its degree allows."""
    n = draw(st.integers(0, min(3, index.max_degree)))
    ordered: dict = {}
    for repeat in (False, True):
        pool = [g for g in index.generators(n) if (len(set(g)) < len(g)) == repeat]
        if pool:
            for g in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
                ordered[g] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
    return AltChain.from_ordered(n, ordered)


@settings(max_examples=200)
@given(data=st.data())
def test_descended_maps_match_the_loops_they_replaced(prism_fixtures, data):
    index, h = data.draw(st.sampled_from(prism_fixtures))
    chain = data.draw(alt_chains(index))
    for f in (h.start, h.end):
        assert push_forward_alt(f, chain) == oracle_push_forward_alt(f, chain)
    assert prism_alt(h, chain) == oracle_prism_alt(h, chain)
    if chain.degree >= 1:
        assert boundary(chain) == oracle_boundary(chain)
