"""Executable verification registry.

Every structural law of the algebra is registered here as a runnable
suite: exhaustive where the case space is small, seeded-random where it
is not, always with exact arithmetic and a serializable counterexample on
failure.  The registry order is fixed, so reports are deterministic given
the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import alt_chains, permutations
from . import cochain_algebra as ca
from . import homotopy_prism as hp
from . import integer_homology as ih
from .complex_model import (DEFAULT_GENERATOR_BUDGET, SimplicialComplex,
                            enumerate_generators, face)

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ComplexContext:
    name: str
    complex: SimplicialComplex
    index: object
    presentation: object


@dataclass(frozen=True)
class SuiteResult:
    suite_id: str
    statement: str
    complexes: tuple
    cases: int
    passed: bool
    counterexample: dict | None


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    cases_requested: int
    degree_cap: int
    budget: int
    complexes: tuple
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        payload = {
            "format_version": REPORT_FORMAT_VERSION,
            "seed": self.seed,
            "cases": self.cases_requested,
            "degree_cap": self.degree_cap,
            "budget": self.budget,
            "complexes": list(self.complexes),
            "all_passed": self.all_passed,
            "results": [
                {
                    "id": r.suite_id,
                    "statement": r.statement,
                    "complexes": list(r.complexes),
                    "cases": r.cases,
                    "passed": r.passed,
                    "counterexample": r.counterexample,
                }
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"[{mark}] {r.suite_id}: {r.cases} cases "
                         f"on {', '.join(r.complexes) or 'no complexes'}")
            if not r.passed:
                lines.append(f"       {r.statement}")
                lines.append(f"       counterexample: {json.dumps(r.counterexample, sort_keys=True)}")
        verdict = "all suites passed" if self.all_passed else "FAILURES present"
        lines.append(f"{len(self.results)} suites, {verdict} "
                     f"(seed={self.seed}, cases={self.cases_requested}, "
                     f"degree cap={self.degree_cap})")
        return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return repr(x)


def _random_fraction(rng: Random) -> Fraction:
    num = rng.choice([v for v in range(-9, 10) if v])
    return Fraction(num, rng.randint(1, 9))


def _random_alternating(K: SimplicialComplex, n: int, rng: Random):
    simplices = K.simplices_of_dim(n)
    if not simplices:
        return None
    count = rng.randint(1, min(3, len(simplices)))
    total = ca.Cochain.zero(n)
    for tau in rng.sample(simplices, count):
        total = total + ca.alternating_cochain(tau, _random_fraction(rng))
    return total


def _random_cochain(index, n: int, rng: Random):
    gens = index.generators(n)
    if not gens:
        return None
    count = rng.randint(1, min(4, len(gens)))
    vals = {}
    for g in rng.sample(gens, count):
        vals[g] = _random_fraction(rng)
    return ca.Cochain(n, vals)


def _full_simplex(d: int) -> SimplicialComplex:
    return SimplicialComplex.from_facets(d + 1, [list(range(d + 1))],
                                         name=f"full_simplex_{d}")


# ---------------------------------------------------------------------------
# suites


def _suite_face_permutation_sign(ctxs, rng, cases):
    count = 0
    for k in range(1, 6):
        for s in permutations.enumerate_group(k):
            for i in range(k):
                si = permutations.induced_face_perm(s, i)
                count += 1
                if s.sign != (-1) ** (i - s(i)) * si.sign:
                    return count, {
                        "group": f"S_{k}", "images": list(s.images), "i": i,
                        "sign": s.sign, "face_perm_images": list(si.images),
                        "face_perm_sign": si.sign,
                    }
    return count, None


def _suite_boundary_of_reordered(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        top = min(3, ctx.index.max_degree)
        for n in range(1, top + 1):
            # (s, [(induced face permutation, s(i), (-1)^i) for each i])
            faces = [(s, [(permutations.induced_face_perm(s, i), s(i), (-1) ** i)
                          for i in range(n + 1)])
                     for s in permutations.enumerate_group(n + 1)]
            for g in ctx.index.generators(n):
                for s, face_terms in faces:
                    lhs = alt_chains.ordered_boundary({permutations.act(s, g): 1})
                    rhs: dict = {}
                    for si, s_of_i, sgn in face_terms:
                        t = permutations.act(si, face(g, s_of_i))
                        rhs[t] = rhs.get(t, 0) + sgn
                    rhs = {t: c for t, c in rhs.items() if c}
                    count += 1
                    if lhs != rhs:
                        return count, {
                            "complex": ctx.name, "generator": g,
                            "images": list(s.images), "lhs": lhs, "rhs": rhs,
                        }
    return count, None


def _suite_projector_splitting(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        for n in range(ctx.index.max_degree + 1):
            simplex_count = len(ctx.complex.simplices_of_dim(n))
            scaled = ca.alternative_maker_matrix_scaled(ctx.index, n)
            rank = ih.integer_rank(scaled)
            count += 1
            if rank != simplex_count:
                return count, {
                    "complex": ctx.name, "degree": n,
                    "projector_rank": rank, "simplex_count": simplex_count,
                }
            basis = ca.alt_basis(ctx.index, n)
            count += 1
            if basis.dim + basis.complement_dim != ctx.index.count(n):
                return count, {"complex": ctx.name, "degree": n,
                               "reason": "dimension split mismatch"}
            for tau in basis.free_tuples:
                chi = ca.alternating_cochain(tau)
                count += 1
                if ca.alternative_maker(chi) != chi:
                    return count, {"complex": ctx.name, "tuple": tau,
                                   "reason": "projector moved an alternating basis cochain"}
        for _ in range(cases // (ctx.index.max_degree + 1) + 1 if cases else 0):
            n = rng.randint(0, ctx.index.max_degree)
            alpha = _random_cochain(ctx.index, n, rng)
            if alpha is None:
                continue
            once = ca.alternative_maker(alpha)
            alt, ker = ca.split(alpha)
            count += 1
            if (ca.alternative_maker(once) != once
                    or not ca.is_alternative(once)
                    or alt + ker != alpha
                    or not ca.alternative_maker(ker).is_zero()):
                return count, {"complex": ctx.name, "degree": n,
                               "cochain": _jsonable(alpha.values)}
    return count, None


def _cup_degree_pairs(cap):
    return [(p, q) for p in (0, 1) for q in (0, 1) if p + q <= cap]


def _suite_cup_commutativity(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        cap = ctx.index.max_degree
        # exhaustive on the alternating bases in low degrees
        for p, q in _cup_degree_pairs(cap):
            for tau in ctx.complex.simplices_of_dim(p):
                for rho in ctx.complex.simplices_of_dim(q):
                    a = ca.alternating_cochain(tau)
                    b = ca.alternating_cochain(rho)
                    lhs = ca.alt_cup(ctx.index, b, a)
                    rhs = ca.alt_cup(ctx.index, a, b).scale((-1) ** (p * q))
                    count += 1
                    if lhs != rhs:
                        return count, {"complex": ctx.name, "p": p, "q": q,
                                       "alpha": tau, "beta": rho}
        for _ in range(cases):
            p, q = rng.choice([(p, q) for p in (0, 1, 2) for q in (0, 1, 2)
                               if p + q <= cap])
            a = _random_alternating(ctx.complex, p, rng)
            b = _random_alternating(ctx.complex, q, rng)
            if a is None or b is None:
                continue
            count += 1
            if ca.alt_cup(ctx.index, b, a) != \
                    ca.alt_cup(ctx.index, a, b).scale((-1) ** (p * q)):
                return count, {"complex": ctx.name, "p": p, "q": q,
                               "alpha": _jsonable(a.values),
                               "beta": _jsonable(b.values)}
    return count, None


def _suite_cup_associativity(ctxs, rng, cases):
    count = 0
    exhausted = False
    for ctx in ctxs:
        cap = ctx.index.max_degree
        if not exhausted and cap >= 3:
            low = ctx.complex.simplices_of_dim(0) + ctx.complex.simplices_of_dim(1)
            if ctx.complex.simplices_of_dim(1) and len(low) <= 10:
                for tau in low:
                    for rho in low:
                        for pi in low:
                            a, b, c = (ca.alternating_cochain(t) for t in (tau, rho, pi))
                            lhs = ca.alt_cup(ctx.index, ca.alt_cup(ctx.index, a, b), c)
                            rhs = ca.alt_cup(ctx.index, a, ca.alt_cup(ctx.index, b, c))
                            count += 1
                            if lhs != rhs:
                                return count, {"complex": ctx.name,
                                               "alpha": tau, "beta": rho, "gamma": pi}
                exhausted = True
        for _ in range(cases):
            degrees = [(p, q, r) for p in (0, 1) for q in (0, 1) for r in (0, 1)
                       if p + q + r <= cap]
            p, q, r = rng.choice(degrees)
            a = _random_alternating(ctx.complex, p, rng)
            b = _random_alternating(ctx.complex, q, rng)
            c = _random_alternating(ctx.complex, r, rng)
            if a is None or b is None or c is None:
                continue
            count += 1
            lhs = ca.alt_cup(ctx.index, ca.alt_cup(ctx.index, a, b), c)
            rhs = ca.alt_cup(ctx.index, a, ca.alt_cup(ctx.index, b, c))
            if lhs != rhs:
                return count, {"complex": ctx.name, "degrees": [p, q, r],
                               "alpha": _jsonable(a.values),
                               "beta": _jsonable(b.values),
                               "gamma": _jsonable(c.values)}
    return count, None


def _suite_cup_leibniz(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        cap = ctx.index.max_degree
        degrees = [(p, q) for p in (0, 1) for q in (0, 1) if p + q + 1 <= cap]
        for _ in range(cases if degrees else 0):
            p, q = rng.choice(degrees)
            a = _random_alternating(ctx.complex, p, rng)
            b = _random_alternating(ctx.complex, q, rng)
            if a is None or b is None:
                continue
            lhs = ca.coboundary(ctx.index, ca.alt_cup(ctx.index, a, b))
            rhs = ca.alt_cup(ctx.index, ca.coboundary(ctx.index, a), b) + \
                ca.alt_cup(ctx.index, a, ca.coboundary(ctx.index, b)).scale((-1) ** p)
            count += 1
            if lhs != rhs:
                return count, {"complex": ctx.name, "p": p, "q": q,
                               "alpha": _jsonable(a.values),
                               "beta": _jsonable(b.values)}
    return count, None


def _suite_coboundary_alternating(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        for n in range(ctx.index.max_degree):
            for tau in ctx.complex.simplices_of_dim(n):
                count += 1
                if not ca.is_alternative(ca.coboundary(ctx.index, ca.alternating_cochain(tau))):
                    return count, {"complex": ctx.name, "tuple": tau}
        for _ in range(cases // 4 + 1 if cases and ctx.index.max_degree else 0):
            n = rng.randint(0, ctx.index.max_degree - 1)
            alpha = _random_alternating(ctx.complex, n, rng)
            if alpha is None:
                continue
            count += 1
            if not ca.is_alternative(ca.coboundary(ctx.index, alpha)):
                return count, {"complex": ctx.name, "degree": n,
                               "cochain": _jsonable(alpha.values)}
    return count, None


def _suite_projector_coboundary_commute(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        for n in range(ctx.index.max_degree):
            for g in ctx.index.generators(n):
                chi = ca.Cochain.indicator(g)
                count += 1
                if ca.coboundary(ctx.index, ca.alternative_maker(chi)) != \
                        ca.alternative_maker(ca.coboundary(ctx.index, chi)):
                    return count, {"complex": ctx.name, "generator": g}
    return count, None


def _suite_cohomology_splitting(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        for n in range(min(2, ctx.index.max_degree - 1) + 1):
            report = ih.verify_cohomology_splitting(ctx.index, n)
            count += 1
            if not report.induced_isomorphism:
                return count, {
                    "complex": ctx.name, "degree": n,
                    "rank_full": report.rank_full,
                    "rank_alternating": report.rank_alternating,
                    "kernel_rank": report.kernel_rank,
                    "commutes": report.commutes_on_basis,
                }
    return count, None


def _suite_quotient_boundary(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        pres = ctx.presentation
        for n in range(2, pres.max_degree + 1):
            for gens in (pres.free_generators[n], pres.torsion_generators[n]):
                for t in gens:
                    chain = alt_chains.AltChain.from_generator(t)
                    try:
                        dd = alt_chains.boundary(alt_chains.boundary(chain))
                    except ArithmeticError as exc:
                        return count + 1, {"complex": ctx.name, "tuple": t,
                                           "reason": str(exc)}
                    count += 1
                    if not dd.is_zero():
                        return count, {"complex": ctx.name, "tuple": t,
                                       "boundary_squared": _jsonable(dd.free)}
        for n in range(1, pres.max_degree + 1):
            for t in pres.torsion_generators[n]:
                image = alt_chains.boundary(alt_chains.AltChain.from_generator(t))
                count += 1
                if image.free:
                    return count, {"complex": ctx.name, "tuple": t,
                                   "free_part": _jsonable(image.free)}
        # lifted matrices compose to zero modulo the relations 2*e_t on the
        # torsion generators: the product may only be even on torsion rows
        for n in range(1, pres.max_degree):
            if not (pres.generator_count(n) and pres.generator_count(n + 1)):
                continue
            prod = pres.boundary_matrix(n).matmul(pres.boundary_matrix(n + 1))
            free_rows = len(pres.free_generators[n - 1])
            count += 1
            for (r, c), v in prod.entries.items():
                if r < free_rows or v % 2:
                    return count, {"complex": ctx.name, "degree": n,
                                   "row": r, "col": c, "value": v}
    return count, None


def _suite_torsion_cancellation(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        pres = ctx.presentation
        for n in range(1, pres.max_degree + 1):
            for t in pres.torsion_generators[n]:
                j = next(k for k in range(len(t) - 1) if t[k] == t[k + 1])
                images = list(range(len(t)))
                images[j], images[j + 1] = images[j + 1], images[j]
                s = permutations.Permutation(images)
                for i in range(len(t)):
                    si = s(i)
                    lhs = alt_chains.AltChain.from_generator(face(t, i), (-1) ** i)
                    rhs = alt_chains.AltChain.from_generator(face(t, si), (-1) ** si)
                    count += 1
                    if si != i:
                        if not (lhs + rhs).is_zero():
                            return count, {"complex": ctx.name, "tuple": t,
                                           "i": i, "swapped": si}
                    else:
                        _, is_torsion, _ = alt_chains.canonicalize(face(t, i))
                        if not is_torsion:
                            return count, {"complex": ctx.name, "tuple": t,
                                           "i": i, "reason": "fixed face not torsion"}
    return count, None


def _suite_face_class_compat(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        top = min(3, ctx.index.max_degree)
        for n in range(1, top + 1):
            group = permutations.enumerate_group(n)
            for g in ctx.index.generators(n):
                for i in range(n + 1):
                    for s in group:
                        count += 1
                        if not alt_chains.face_class_compat(g, s, i):
                            return count, {"complex": ctx.name, "generator": g,
                                           "i": i, "images": list(s.images)}
    return count, None


def _suite_dual_dimensions(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        for n in range(ctx.index.max_degree + 1):
            count += 1
            alt_dim = ca.alt_basis(ctx.index, n).dim
            free_count = len(ctx.presentation.free_generators[n])
            if alt_dim != free_count:
                return count, {"complex": ctx.name, "degree": n,
                               "alternating_dim": alt_dim,
                               "free_generators": free_count}
    return count, None


def _suite_quotient_homology(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        try:
            computed = ih.homology_presented(ctx.presentation)
        except ValueError as exc:  # an inconsistent presentation
            return count + 1, {"complex": ctx.name, "reason": str(exc)}
        reference = ih.simplicial_homology(ctx.complex)
        for n in range(ctx.presentation.max_degree):
            expected = reference[n] if n < len(reference) else ih.AbelianGroup(0)
            count += 1
            if computed[n] != expected:
                return count, {"complex": ctx.name, "degree": n,
                               "quotient": str(computed[n]),
                               "simplicial": str(expected)}
    return count, None


def _suite_ordered_homology(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        computed = ih.ordered_homology(ctx.index)
        reference = ih.simplicial_homology(ctx.complex)
        for n in range(ctx.index.max_degree):
            expected = reference[n] if n < len(reference) else ih.AbelianGroup(0)
            count += 1
            if computed[n] != expected:
                return count, {"complex": ctx.name, "degree": n,
                               "ordered": str(computed[n]),
                               "simplicial": str(expected)}
    return count, None


def _check_prism_identity(h: hp.CombinatorialHomotopy, index, top_degree):
    """Exact prism identity on ordered chains and on the quotient, for
    every generator up to top_degree.  Returns (cases, counterexample)."""
    count = 0
    for n in range(0, top_degree + 1):
        for g in index.generators(n):
            chain = {g: 1}
            lhs = alt_chains.ordered_boundary(hp.prism(h, chain))
            if n >= 1:
                for t, c in hp.prism(h, alt_chains.ordered_boundary(chain)).items():
                    lhs[t] = lhs.get(t, 0) + c
            lhs = {t: c for t, c in lhs.items() if c}
            rhs: dict = {}
            for t, c in hp.push_forward(h.end, chain).items():
                rhs[t] = rhs.get(t, 0) + c
            for t, c in hp.push_forward(h.start, chain).items():
                rhs[t] = rhs.get(t, 0) - c
            rhs = {t: c for t, c in rhs.items() if c}
            count += 1
            if lhs != rhs:
                return count, {"generator": g, "lhs": lhs, "rhs": rhs}

            alt = alt_chains.AltChain.from_generator(g)
            alt_lhs = alt_chains.boundary(hp.prism_alt(h, alt))
            if n >= 1:
                alt_lhs = alt_lhs + hp.prism_alt(h, alt_chains.boundary(alt))
            alt_rhs = hp.push_forward_alt(h.end, alt) - hp.push_forward_alt(h.start, alt)
            count += 1
            if alt_lhs != alt_rhs:
                return count, {"generator": g, "side": "quotient"}
    return count, None


def _suite_prism_identity(ctxs, rng, cases):
    count = 0
    # cone contractions of full simplices
    for d in (1, 2, 3):
        K = _full_simplex(d)
        idx = enumerate_generators(K, min(3, d + 1))
        h = hp.CombinatorialHomotopy(hp.SimplicialMap.constant(K, K, 0),
                                     hp.SimplicialMap.identity(K))
        done, ce = _check_prism_identity(h, idx, idx.max_degree - 1)
        count += done
        if ce:
            ce["fixture"] = f"cone contraction of the full {d}-simplex"
            return count, ce
    for ctx in ctxs:
        # identity homotopy: the right side vanishes, the prism does not
        h = hp.CombinatorialHomotopy(hp.SimplicialMap.identity(ctx.complex),
                                     hp.SimplicialMap.identity(ctx.complex))
        done, ce = _check_prism_identity(h, ctx.index, min(2, ctx.index.max_degree - 1))
        count += done
        if ce:
            ce["fixture"] = f"identity homotopy on {ctx.name}"
            return count, ce
        # a nontrivial contiguous pair: walk an edge across a facet triangle
        facets2 = ctx.complex.simplices_of_dim(2)
        if facets2:
            p, q, r = facets2[0]
            edge = _full_simplex(1)
            edge_idx = enumerate_generators(edge, min(3, ctx.index.max_degree))
            f = hp.SimplicialMap(edge, ctx.complex, (p, q))
            g = hp.SimplicialMap(edge, ctx.complex, (q, r))
            h = hp.CombinatorialHomotopy(f, g)
            done, ce = _check_prism_identity(h, edge_idx, edge_idx.max_degree - 1)
            count += done
            if ce:
                ce["fixture"] = f"edge walk across triangle {(p, q, r)} of {ctx.name}"
                return count, ce
    return count, None


def _suite_pullback_naturality(ctxs, rng, cases):
    count = 0
    for ctx in ctxs:
        K = ctx.complex
        maps = [hp.SimplicialMap.identity(K), hp.SimplicialMap.constant(K, K, 0)]
        facets2 = K.simplices_of_dim(2)
        if facets2:
            tri = _full_simplex(2)
            maps.append(hp.SimplicialMap(tri, K, facets2[0]))
        for f in maps:
            for _ in range(cases // (4 * len(maps)) + 1 if cases else 0):
                n = rng.randint(0, min(2, ctx.index.max_degree))
                alpha = _random_cochain(ctx.index, n, rng)
                if alpha is None:
                    continue
                count += 1
                if hp.pull_back(f, ca.alternative_maker(alpha)) != \
                        ca.alternative_maker(hp.pull_back(f, alpha)):
                    return count, {"complex": ctx.name,
                                   "assignment": list(f.assignment),
                                   "degree": n,
                                   "cochain": _jsonable(alpha.values)}
                beta = _random_alternating(f.codomain, n, rng)
                if beta is not None:
                    count += 1
                    if not ca.is_alternative(hp.pull_back(f, beta)):
                        return count, {"complex": ctx.name,
                                       "assignment": list(f.assignment),
                                       "degree": n, "reason": "pullback broke alternation"}
    return count, None


REGISTRY = (
    ("face-permutation-sign",
     "Deleting index i from a permutation's domain and its image from the "
     "range changes the parity by exactly (-1)^(i - s(i)); exhaustive "
     "through S_5.",
     _suite_face_permutation_sign),
    ("boundary-of-reordered-generator",
     "The boundary of a reordered generator equals the signed sum of the "
     "induced reorderings of its faces, exhaustively per degree.",
     _suite_boundary_of_reordered),
    ("projector-splitting",
     "The parity-averaging projector is idempotent with alternating image, "
     "fixes alternating cochains, and its rank plus kernel dimension splits "
     "every cochain space with rank equal to the simplex count.",
     _suite_projector_splitting),
    ("projected-cup-commutativity",
     "On alternating inputs the projected cup product commutes up to the "
     "sign (-1)^(pq).",
     _suite_cup_commutativity),
    ("projected-cup-associativity",
     "On alternating inputs the projected cup product is associative.",
     _suite_cup_associativity),
    ("projected-cup-leibniz",
     "The coboundary is a graded derivation of the projected cup product "
     "on alternating inputs.",
     _suite_cup_leibniz),
    ("coboundary-preserves-alternating",
     "The coboundary of an alternating cochain is alternating, so the "
     "alternating cochains form a subcomplex.",
     _suite_coboundary_alternating),
    ("projector-coboundary-commute",
     "The projector commutes with the coboundary on every basis cochain.",
     _suite_projector_coboundary_commute),
    ("cohomology-splitting",
     "Over the rationals the projector induces an isomorphism between full "
     "and alternating cohomology: equal Betti numbers, kernel rank zero.",
     _suite_cohomology_splitting),
    ("quotient-boundary",
     "The sign-quotient boundary squares to zero, boundaries of torsion "
     "classes stay torsion, and the lifted matrices compose to zero modulo "
     "the order-2 relations.",
     _suite_quotient_boundary),
    ("torsion-boundary-cancellation",
     "In the boundary of a torsion class the i-th and swap(i)-th face "
     "terms cancel in pairs and the fixed faces are torsion classes.",
     _suite_torsion_cancellation),
    ("face-class-compatibility",
     "Reordering a face changes its canonical class by exactly the parity, "
     "so restriction to faces descends to the quotient.",
     _suite_face_class_compat),
    ("dual-dimension-match",
     "Per degree, the alternating cochain dimension over the rationals "
     "equals the number of free quotient generators; torsion is invisible "
     "to rational duals.",
     _suite_dual_dimensions),
    ("quotient-homology-agreement",
     "Integer homology of the presented sign-quotient complex is "
     "isomorphic to simplicial homology in every computed degree.",
     _suite_quotient_homology),
    ("ordered-homology-agreement",
     "Integer homology of the full tuple complex is isomorphic to "
     "simplicial homology in every computed degree.",
     _suite_ordered_homology),
    ("prism-homotopy-identity",
     "boundary(prism) + prism(boundary) equals the difference of the two "
     "induced maps, on ordered chains and on the quotient, for cone "
     "contractions, identity homotopies, and a nontrivial contiguous pair.",
     _suite_prism_identity),
    ("pullback-naturality",
     "Pulling back along a simplicial map commutes with the projector and "
     "preserves the alternating property.",
     _suite_pullback_naturality),
)


def run_all(complexes, seed: int = 0, cases: int = 200, degree_cap: int = 3,
            budget: int = DEFAULT_GENERATOR_BUDGET) -> VerificationReport:
    """Run every registered suite over (name, complex) pairs."""
    ctxs = []
    for name, K in complexes:
        index = enumerate_generators(K, degree_cap, budget=budget)
        pres = alt_chains.alt_chain_complex(K, degree_cap)
        ctxs.append(ComplexContext(name=name, complex=K, index=index,
                                   presentation=pres))
    results = []
    for suite_id, statement, fn in REGISTRY:
        rng = Random(f"{seed}:{suite_id}")
        count, counterexample = fn(ctxs, rng, cases)
        results.append(SuiteResult(
            suite_id=suite_id, statement=statement,
            complexes=tuple(c.name for c in ctxs), cases=count,
            passed=counterexample is None,
            counterexample=_jsonable(counterexample) if counterexample else None))
    return VerificationReport(
        seed=seed, cases_requested=cases, degree_cap=degree_cap, budget=budget,
        complexes=tuple(c.name for c in ctxs), results=tuple(results))
