"""Acceptance gate: every contract criterion as one test with a printed
verdict line.  Everything is exact arithmetic; there are no tolerances.

Criterion 4b checks projected-cup associativity where it holds exactly:
on closed alternating inputs, which gives associativity in cohomology.  On
arbitrary alternating inputs the law is false; a minimal counterexample
lives in test_cochain_algebra.test_alt_cup_associativity_counterexample
and in the README.
"""

import itertools
import json
import time
from fractions import Fraction
from random import Random

import pytest

from altchain import (AltChain, Cochain, CombinatorialHomotopy, SimplicialMap,
                      alt_chain_complex, alt_cup, alternating_cochain,
                      alternative_maker, boundary, canonicalize, coboundary,
                      enumerate_generators, face, homology_presented,
                      is_alternative, ordered_boundary, prism, prism_alt,
                      push_forward, push_forward_alt, simplicial_homology,
                      verify_cohomology_splitting)
from altchain import alt_chains, permutations, verify
from altchain.cochain_algebra import (alt_basis, alt_coboundary_matrix,
                                      alternative_maker_matrix_scaled)
from altchain.complex_model import SimplicialComplex
from altchain.integer_homology import integer_rank
from altchain.permutations import (Permutation, act, enumerate_group,
                                   induced_face_perm)
from oracles import integer_kernel


@pytest.fixture(scope="module")
def ctx(corpus):
    return {name: (K, enumerate_generators(K, 3)) for name, K in corpus}


def report(line):
    print(f"\n{line}")


def random_alternating(K, n, rng, terms=2):
    simplices = K.simplices_of_dim(n)
    if not simplices:
        return None
    total = Cochain.zero(n)
    for tau in rng.sample(simplices, min(terms, len(simplices))):
        total = total + alternating_cochain(
            tau, Fraction(rng.choice([v for v in range(-9, 10) if v]),
                          rng.randint(1, 9)))
    return total


def test_criterion_01_face_sign_identity():
    start = time.perf_counter()
    cases = 0
    for k in range(1, 7):
        for s in enumerate_group(k):
            for i in range(k):
                assert s.sign == (-1) ** (i - s(i)) * induced_face_perm(s, i).sign
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"[criterion 1] PASS - face/sign identity, {cases} exhaustive "
           f"cases through S_6 in {elapsed:.3f}s")


def test_criterion_02_boundary_of_reordered_generator(ctx):
    start = time.perf_counter()
    _, index = ctx["sphere_s2"]
    cases = 0
    for n in range(1, 4):
        group = enumerate_group(n + 1)
        for g in index.generators(n):
            for s in group:
                lhs = ordered_boundary({act(s, g): 1})
                rhs = {}
                for i in range(n + 1):
                    t = act(induced_face_perm(s, i), face(g, s(i)))
                    rhs[t] = rhs.get(t, 0) + (-1) ** i
                rhs = {t: c for t, c in rhs.items() if c}
                assert lhs == rhs, (g, s.images)
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"[criterion 2] PASS - boundary/action expansion, {cases} cases "
           f"on the 2-sphere through degree 3 in {elapsed:.2f}s")


def test_criterion_03_projector_splitting_dimensions(ctx):
    _, sphere_index = ctx["sphere_s2"]
    scaled = alternative_maker_matrix_scaled(sphere_index, 1)
    assert scaled.rows == 16
    rank = integer_rank(scaled)
    assert rank == 6
    assert 16 == 6 + 10 == rank + (16 - rank)
    checked = 1
    for name, (K, index) in ctx.items():
        for n in range(4):
            scaled = alternative_maker_matrix_scaled(index, n)
            r = integer_rank(scaled)
            assert r == len(K.simplices_of_dim(n)), (name, n)
            basis = alt_basis(index, n)
            assert basis.dim + basis.complement_dim == index.count(n)
            checked += 1
    report(f"[criterion 3] PASS - cochain space splits as alternating part "
           f"plus projector kernel in {checked} degree checks "
           f"(2-sphere degree 1: 16 = 6 + 10)")


def _low_degree_basis(K):
    out = [alternating_cochain(t) for t in K.simplices_of_dim(0)]
    out += [alternating_cochain(t) for t in K.simplices_of_dim(1)]
    return out


def test_criterion_04a_graded_commutativity(ctx):
    sphere, sphere_index = ctx["sphere_s2"]
    cases = 0
    for a in _low_degree_basis(sphere):
        for b in _low_degree_basis(sphere):
            lhs = alt_cup(sphere_index, b, a)
            rhs = alt_cup(sphere_index, a, b).scale((-1) ** (a.degree * b.degree))
            assert lhs == rhs
            cases += 1
    rng = Random(20240811)
    for name, (K, index) in ctx.items():
        for _ in range(200):
            p, q = rng.choice([(0, 0), (0, 1), (1, 1), (1, 2)])
            a = random_alternating(K, p, rng)
            b = random_alternating(K, q, rng)
            if a is None or b is None:
                continue
            assert alt_cup(index, b, a) == \
                alt_cup(index, a, b).scale((-1) ** (p * q)), name
            cases += 1
    report(f"[criterion 4a] PASS - graded commutativity of the projected "
           f"cup product, {cases} cases, zero failures")


def _closed_basis(K, index, n):
    """Alternating cochains spanning the degree-n cocycles of K."""
    simplices = K.simplices_of_dim(n)
    if not K.simplices_of_dim(n + 1):  # every n-cochain is closed
        return [alternating_cochain(tau) for tau in simplices]
    kernel = integer_kernel(alt_coboundary_matrix(index, n).to_dense())
    return [sum((alternating_cochain(tau, v)
                 for tau, v in zip(simplices, vec) if v), Cochain.zero(n))
            for vec in kernel]


def test_criterion_04b_associativity_as_stated(ctx):
    # The projected product is associative exactly on closed alternating
    # inputs (and so in cohomology), not on all alternating cochains: a
    # non-constant degree-0 factor already breaks it, see
    # test_cochain_algebra.test_alt_cup_associativity_counterexample.
    # Each nest's value at a generator depends only on the inputs restricted
    # to the simplex it spans, restriction keeps cochains closed, every
    # cocycle on a face extends to the solid tetrahedron, and the associator
    # is trilinear; so the exhaustive tetrahedron part settles the law for
    # every complex through degree 3.  The seeded part runs it on the corpus,
    # nontrivial torus and Klein bottle classes included.
    def nests(index, a, b, c):
        return (alt_cup(index, alt_cup(index, a, b), c),
                alt_cup(index, a, alt_cup(index, b, c)))

    tet = SimplicialComplex.from_facets(4, [[0, 1, 2, 3]])
    tet_index = enumerate_generators(tet, 3)
    basis = [_closed_basis(tet, tet_index, n) for n in range(4)]
    assert [len(b) for b in basis] == [1, 3, 3, 1]
    exhaustive = 0
    for p, q, r in itertools.product(range(4), repeat=3):
        if p + q + r > 3:
            continue
        for a, b, c in itertools.product(basis[p], basis[q], basis[r]):
            lhs, rhs = nests(tet_index, a, b, c)
            assert lhs == rhs, (sorted(a.values), sorted(b.values),
                                sorted(c.values))
            exhaustive += 1
    assert exhaustive == 130

    degrees = [t for t in itertools.product(range(3), repeat=3) if sum(t) <= 3]
    rng = Random(20240811)
    seeded = 0
    for name, (K, index) in ctx.items():
        closed = [_closed_basis(K, index, n) for n in range(3)]
        for _ in range(40):
            p, q, r = rng.choice(degrees)
            if not all(closed[n] for n in (p, q, r)):
                continue
            inputs = []
            for n in (p, q, r):
                total = Cochain.zero(n)
                for z in rng.sample(closed[n], min(2, len(closed[n]))):
                    total = total + z.scale(Fraction(
                        rng.choice([v for v in range(-9, 10) if v]),
                        rng.randint(1, 9)))
                inputs.append(total)
            for x in inputs:
                assert coboundary(index, x).is_zero(), (name, x.degree)
            lhs, rhs = nests(index, *inputs)
            assert lhs == rhs, (name, p, q, r)
            seeded += 1
    report(f"[criterion 4b] PASS - associativity on closed alternating "
           f"inputs, {exhaustive} closed-basis triples on the solid "
           f"tetrahedron and {seeded} seeded cocycle triples on the corpus, "
           f"zero failures")


def test_criterion_04c_leibniz(ctx):
    sphere, sphere_index = ctx["sphere_s2"]
    cases = 0

    def check(index, a, b):
        lhs = coboundary(index, alt_cup(index, a, b))
        rhs = alt_cup(index, coboundary(index, a), b) + \
            alt_cup(index, a, coboundary(index, b)).scale((-1) ** a.degree)
        assert lhs == rhs

    for a in _low_degree_basis(sphere):
        for b in _low_degree_basis(sphere):
            if a.degree + b.degree + 1 > 3:
                continue
            check(sphere_index, a, b)
            cases += 1
    rng = Random(20240811)
    for name, (K, index) in ctx.items():
        for _ in range(200):
            p, q = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
            a = random_alternating(K, p, rng)
            b = random_alternating(K, q, rng)
            if a is None or b is None:
                continue
            check(index, a, b)
            cases += 1
    report(f"[criterion 4c] PASS - coboundary Leibniz rule over the "
           f"projected cup product, {cases} cases, zero failures")


def test_criterion_05_subcomplex_and_commutation(ctx):
    cases = 0
    for name, (K, index) in ctx.items():
        for n in range(index.max_degree):
            for tau in K.simplices_of_dim(n):
                assert is_alternative(coboundary(index, alternating_cochain(tau)))
                cases += 1
            for g in index.generators(n):
                chi = Cochain.indicator(g)
                assert coboundary(index, alternative_maker(chi)) == \
                    alternative_maker(coboundary(index, chi)), (name, g)
                cases += 1
    # degree-3 cochains need degree-4 generators; covered on the 2-sphere
    sphere = ctx["sphere_s2"][0]
    deep = enumerate_generators(sphere, 4)
    for g in deep.generators(3):
        chi = Cochain.indicator(g)
        assert coboundary(deep, alternative_maker(chi)) == \
            alternative_maker(coboundary(deep, chi))
        cases += 1
    for tau in sphere.simplices_of_dim(3):
        assert is_alternative(coboundary(deep, alternating_cochain(tau)))
        cases += 1
    report(f"[criterion 5] PASS - coboundary preserves alternating cochains "
           f"and commutes with the projector on {cases} basis cochains "
           f"(degrees through 3)")


def test_criterion_06_quotient_boundary_and_torsion(ctx):
    cases = 0
    for name, (K, index) in ctx.items():
        pres = alt_chain_complex(K, 3)
        for n in range(2, 4):
            for t in pres.free_generators[n] + pres.torsion_generators[n]:
                assert boundary(boundary(AltChain.from_generator(t))).is_zero()
                cases += 1
        for n in range(1, 4):
            for t in pres.torsion_generators[n]:
                image = boundary(AltChain.from_generator(t))
                assert not image.free, (name, t)
                cases += 1
                # pairwise cancellation: the faces at the two swapped equal
                # entries cancel; the fixed faces are torsion classes
                j = next(k for k in range(len(t) - 1) if t[k] == t[k + 1])
                images = list(range(len(t)))
                images[j], images[j + 1] = images[j + 1], images[j]
                s = Permutation(images)
                for i in range(len(t)):
                    si = s(i)
                    if si != i:
                        paired = AltChain.from_generator(face(t, i), (-1) ** i) \
                            + AltChain.from_generator(face(t, si), (-1) ** si)
                        assert paired.is_zero(), (name, t, i)
                    else:
                        _, is_torsion, _ = canonicalize(face(t, i))
                        assert is_torsion, (name, t, i)
                    cases += 1
    report(f"[criterion 6] PASS - quotient boundary squares to zero; torsion "
           f"boundaries stay torsion with the pairwise face cancellation, "
           f"{cases} checks")


def test_criterion_07_quotient_homology_golden(ctx):
    golden = {
        "point": ("Z", "0", "0"),
        "sphere_s2": ("Z", "0", "Z"),
        "rp2_6": ("Z", "Z/2", "0"),
        "torus_7": ("Z", "Z^2", "Z"),
        "klein_8": ("Z", "Z + Z/2", "0"),
    }
    start = time.perf_counter()
    for name, (K, index) in ctx.items():
        pres = alt_chain_complex(K, 3)
        computed = tuple(str(g) for g in homology_presented(pres))
        assert computed == golden[name], (name, computed)
        reference = simplicial_homology(K)
        for n in range(3):
            expected = str(reference[n]) if n < len(reference) else "0"
            assert computed[n] == expected, (name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(f"[criterion 7] PASS - quotient homology matches simplicial "
           f"homology on all five complexes (sphere, projective plane, "
           f"torus, Klein bottle, point) in {elapsed:.2f}s")


def test_criterion_08_cohomology_splitting(ctx):
    checked = 0
    for name, (K, index) in ctx.items():
        for n in range(3):
            r = verify_cohomology_splitting(index, n)
            assert r.rank_full == r.rank_alternating, (name, n)
            assert r.kernel_rank == 0, (name, n)
            assert r.commutes_on_basis, (name, n)
            checked += 1
    report(f"[criterion 8] PASS - rational cohomology ranks agree between "
           f"full and alternating complexes with zero projector kernel, "
           f"{checked} degree checks")


def _prism_identity(h, g):
    chain = {g: 1}
    lhs = ordered_boundary(prism(h, chain))
    if len(g) > 1:
        for t, c in prism(h, ordered_boundary(chain)).items():
            lhs[t] = lhs.get(t, 0) + c
    lhs = {t: c for t, c in lhs.items() if c}
    rhs = {}
    for t, c in push_forward(h.end, chain).items():
        rhs[t] = rhs.get(t, 0) + c
    for t, c in push_forward(h.start, chain).items():
        rhs[t] = rhs.get(t, 0) - c
    rhs = {t: c for t, c in rhs.items() if c}
    if lhs != rhs:
        return False
    alt = AltChain.from_generator(g)
    alt_lhs = boundary(prism_alt(h, alt))
    if len(g) > 1:
        alt_lhs = alt_lhs + prism_alt(h, boundary(alt))
    alt_rhs = push_forward_alt(h.end, alt) - push_forward_alt(h.start, alt)
    return alt_lhs == alt_rhs


def test_criterion_09_prism_identity(ctx):
    cases = 0
    # identity homotopies on every corpus complex
    for name, (K, index) in ctx.items():
        ident = SimplicialMap.identity(K)
        h = CombinatorialHomotopy(ident, ident)
        for n in range(0, 3):
            for g in index.generators(n)[::3]:
                assert _prism_identity(h, g), (name, g)
                cases += 1
    # cone contractions of solid simplices
    for d in (2, 3):
        K = SimplicialComplex.from_facets(d + 1, [list(range(d + 1))])
        index = enumerate_generators(K, 3)
        h = CombinatorialHomotopy(SimplicialMap.constant(K, K, 0),
                                  SimplicialMap.identity(K))
        for n in range(0, 3):
            for g in index.generators(n):
                assert _prism_identity(h, g), (d, g)
                cases += 1
    # a nontrivial contiguous pair mapping into the torus
    torus = ctx["torus_7"][0]
    seg = SimplicialComplex.from_facets(2, [[0, 1]])
    seg_index = enumerate_generators(seg, 3)
    p, q, r = torus.simplices_of_dim(2)[0]
    h = CombinatorialHomotopy(SimplicialMap(seg, torus, (p, q)),
                              SimplicialMap(seg, torus, (q, r)))
    for n in range(0, 3):
        for g in seg_index.generators(n):
            assert _prism_identity(h, g), ("segment", g)
            cases += 1
    tri = SimplicialComplex.from_facets(3, [[0, 1, 2]])
    tri_index = enumerate_generators(tri, 3)
    h2 = CombinatorialHomotopy(SimplicialMap.constant(tri, torus, p),
                               SimplicialMap(tri, torus, (p, q, r)))
    for n in range(0, 3):
        for g in tri_index.generators(n):
            assert _prism_identity(h2, g), ("cone-to-facet", g)
            cases += 1
    report(f"[criterion 9] PASS - prism homotopy identity exact on ordered "
           f"chains and on the quotient, {cases} generators across identity "
           f"homotopies, cone contractions, and torus pairs")


def test_criterion_10_mutation_sensitivity(monkeypatch):
    from altchain.corpus import load_corpus_complex
    sphere = load_corpus_complex("sphere_s2")

    real_ifp = permutations.induced_face_perm

    def sign_flipped(s, i):
        out = real_ifp(s, i)
        if len(out) >= 2 and i == 1:
            images = list(out.images)
            images[0], images[1] = images[1], images[0]
            return Permutation(images)
        return out

    monkeypatch.setattr(permutations, "induced_face_perm", sign_flipped)
    broken_report = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    monkeypatch.undo()
    failed = {r.suite_id for r in broken_report.results if not r.passed}
    assert "face-permutation-sign" in failed
    witness = next(r.counterexample for r in broken_report.results
                   if r.suite_id == "face-permutation-sign")
    assert witness["i"] == 1 and "images" in witness
    json.dumps(witness)

    real_canon = alt_chains.canonicalize

    def unsigned(g):
        t, is_torsion, coeff = real_canon(g)
        return t, is_torsion, abs(coeff)

    monkeypatch.setattr(alt_chains, "canonicalize", unsigned)
    broken_report2 = verify.run_all([("sphere_s2", sphere)], seed=0, cases=5)
    monkeypatch.undo()
    failed2 = {r.suite_id for r in broken_report2.results if not r.passed}
    quotient_suites = {"quotient-boundary", "face-class-compatibility",
                       "torsion-boundary-cancellation",
                       "quotient-homology-agreement"}
    assert failed2 & quotient_suites
    for r in broken_report2.results:
        if not r.passed:
            json.dumps(r.counterexample)

    report(f"[criterion 10] PASS - injected sign bugs in the induced face "
           f"permutation and in canonicalization were each caught by "
           f"registered suites with serialized counterexamples "
           f"({sorted(failed)[:2]} / {sorted(failed2 & quotient_suites)[:2]})")
