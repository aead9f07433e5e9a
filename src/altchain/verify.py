"""Executable verification registry.

Every structural law of the algebra is registered here as a runnable
suite: exhaustive where the case space is small, seeded-random where it
is not, always with exact arithmetic and a serializable counterexample on
failure.  A law that only compares tuple entries runs on every order
pattern of a tuple and on a seeded sample of generators.  A suite states
only its law: it yields one outcome per case, True when the case holds
or else a counterexample dict, and ``_suite`` does the counting and the
rest.  ``_law(id, statement)`` registers a suite where it is written, so
the registry order is definition order and reports are deterministic
given the seed.
"""

from __future__ import annotations

import functools
import itertools
import json
from math import factorial, lcm
from random import Random

from . import alt_chains, permutations
from . import cochain_algebra as ca
from . import homotopy_prism as hp
from . import integer_homology as ih
from .complex_model import (DEFAULT_GENERATOR_BUDGET, SimplicialComplex,
                            enumerate_generators, face)
from .errors import Record

REPORT_FORMAT_VERSION = 1


class ComplexContext(Record):
    name: str
    complex: SimplicialComplex
    index: object
    presentation: object


class SuiteResult(Record):
    suite_id: str
    statement: str
    complexes: tuple
    cases: int
    passed: bool
    counterexample: dict | None


class VerificationReport(Record):
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
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    from fractions import Fraction  # rare: suites embed ca._value_strings, not values
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


_NUMERATORS = tuple(v for v in range(-9, 10) if v)


def _random_ratio(rng: Random) -> tuple:
    return rng.choice(_NUMERATORS), rng.randint(1, 9)  # (numerator, denominator)


def _random_alternating(K: SimplicialComplex, n: int, rng: Random):
    simplices = K.simplices_of_dim(n)
    if not simplices:
        return None
    count = rng.randint(1, min(3, len(simplices)))
    # one orbit per simplex; the orbits are disjoint, so one dict holds the sum
    terms = [(tau, *_random_ratio(rng)) for tau in rng.sample(simplices, count)]
    den = lcm(*(d for _, _, d in terms))
    orbits = permutations._orbits
    return ca.Cochain._reduced(n, {g: sgn * v * (den // d)
                                   for tau, v, d in terms for g, sgn in orbits[tau].items()}, den)


def _random_cochain(index, n: int, rng: Random):
    gens = index.generators(n)
    if not gens:
        return None
    count = rng.randint(1, min(4, len(gens)))
    # distinct tuples, so one dict holds the sum
    terms = [(g, *_random_ratio(rng)) for g in rng.sample(gens, count)]
    den = lcm(*(d for _, _, d in terms))
    return ca.Cochain._reduced(n, {g: v * (den // d) for g, v, d in terms}, den)


def _full_simplex(d: int) -> SimplicialComplex:
    return SimplicialComplex.from_facets(d + 1, [list(range(d + 1))],
                                         name=f"full_simplex_{d}")


@functools.lru_cache(maxsize=None)
def _order_patterns(length: int) -> tuple:
    """Every weak-order pattern of the given length, in lexicographic
    order: a tuple over 0..m-1 that uses each of them, for some m."""
    return tuple(p for p in itertools.product(range(length), repeat=length)
                 if len(set(p)) == max(p, default=-1) + 1)


def _label_free_cases(ctxs, rng, cases, extra):
    """(where, tuple): every order pattern of length n + extra for
    n = 1..min(3, D), which settles a law that only compares tuple entries,
    then ``cases`` generators per complex of those lengths past 1 (S_1
    moves nothing), against a fault that reads vertex labels."""
    top = min(3, max((ctx.index.max_degree for ctx in ctxs), default=0))
    for n in range(1, top + 1):
        for p in _order_patterns(n + extra):
            yield {"pattern": p}, p
    for ctx in ctxs:
        lengths = range(2, min(3, ctx.index.max_degree) + extra + 1)
        for _ in range(cases if lengths else 0):
            gens = ctx.index.generators(rng.choice(lengths) - 1)
            if gens:
                g = rng.choice(gens)
                yield {"complex": ctx.name, "generator": g}, g


def _suite(cases_of):
    """The registry callable of a suite: (cases run, serializable
    counterexample or None), stopping at the first outcome that is not
    True, so that a stray False or None fails rather than passes."""
    @functools.wraps(cases_of)
    def suite(ctxs, rng, cases):
        count = 0
        for outcome in cases_of(ctxs, rng, cases):
            count += 1
            if outcome is not True:
                return count, _jsonable(outcome if isinstance(outcome, dict)
                                        else {"outcome": outcome})
        return count, None
    return suite


REGISTRY = ()


def _law(suite_id, statement):
    """Register the decorated generator as the suite of one law, after
    every suite defined before it."""
    def register(cases_of):
        global REGISTRY
        suite = _suite(cases_of)
        REGISTRY += ((suite_id, statement, suite),)
        return suite
    return register


def _induced_face(images: tuple, i: int) -> tuple:
    """The reordering ``images`` with position i deleted and the image
    images[i] renumbered away: deleting entry i of g reordered by ``images``
    is face(g, images[i]) reordered by the result."""
    si = images[i]
    return tuple(v - (v > si) for v in images[:i] + images[i + 1:])


# ---------------------------------------------------------------------------
# suites


@_law("face-permutation-sign",
      "Deleting index i from a permutation's domain and its image from the "
      "range changes the parity by exactly (-1)^(i - s(i)); exhaustive "
      "through S_5.")
def _suite_face_permutation_sign(ctxs, rng, cases):
    for k in range(1, 6):
        for images, _, sign in permutations._signed_orders(k):
            for i in range(k):
                face_images = _induced_face(images, i)
                face_sign = permutations.parity(face_images)
                yield sign == (-1) ** (i - images[i]) * face_sign or {
                    "group": f"S_{k}", "images": list(images), "i": i,
                    "sign": sign, "face_perm_images": list(face_images),
                    "face_perm_sign": face_sign,
                }


@_law("boundary-of-reordered-generator",
      "The boundary of a reordered generator equals the signed sum of the "
      "induced reorderings of its faces, on every tuple pattern of length "
      "2 to min(4, D + 1) and a seeded sample of each complex's generators.")
def _suite_boundary_of_reordered(ctxs, rng, cases):
    getters = {images: get for k in range(1, 5)
               for images, get, _ in permutations._signed_orders(k)}
    # per length: (images, getter, [(induced face getter, images[i], (-1)^i)
    # for each i])
    terms = {k: [(images, get, [(getters[_induced_face(images, i)], images[i], (-1) ** i)
                                for i in range(k)])
                 for images, get, _ in permutations._signed_orders(k)]
             for k in range(2, 5)}
    for where, g in _label_free_cases(ctxs, rng, cases, 1):
        g_faces = [face(g, i) for i in range(len(g))]
        for images, get, face_terms in terms[len(g)]:
            lhs = alt_chains.ordered_boundary({get(g): 1})
            rhs: dict = {}
            for face_get, g_face, sgn in face_terms:
                t = face_get(g_faces[g_face])
                rhs[t] = rhs.get(t, 0) + sgn
            rhs = {t: c for t, c in rhs.items() if c}
            yield lhs == rhs or {**where, "images": list(images),
                                 "lhs": lhs, "rhs": rhs}


@_law("projector-splitting",
      "In every degree n <= D the parity-averaging projector fixes each "
      "simplex's alternating cochain and maps the indicator of each generator "
      "g to sign(g)/(n+1)! times that of sorted(g), or to 0 when g repeats an "
      "entry, so its rank is the simplex count; on seeded cochains it is "
      "idempotent with alternating image and splits off its kernel.")
def _suite_projector_splitting(ctxs, rng, cases):
    for ctx in ctxs:
        for n in range(ctx.index.max_degree + 1):
            # the closed form at each reordering g of a simplex, from the two
            # images of its orbit, built once: chi(g) = sign(g) picks one
            expected = {}
            for tau in ctx.complex.simplices_of_dim(n):
                chi = ca.alternating_cochain(tau)
                yield ca.alternative_maker(chi) == chi or {
                    "complex": ctx.name, "tuple": tau,
                    "reason": "projector moved an alternating basis cochain"}
                image = ca.Cochain._reduced(n, chi.num, chi.den * factorial(n + 1))
                signed = {1: image, -1: -image}
                expected.update((g, signed[sgn]) for g, sgn in chi.num.items())
            zero = ca.Cochain.zero(n)  # at every g that repeats an entry
            for g in ctx.index.generators(n):
                yield ca.alternative_maker(ca.Cochain.indicator(g)) == \
                    expected.get(g, zero) or {"complex": ctx.name, "generator": g}
        for _ in range(cases // (ctx.index.max_degree + 1) + 1 if cases else 0):
            n = rng.randint(0, ctx.index.max_degree)
            alpha = _random_cochain(ctx.index, n, rng)
            if alpha is None:
                continue
            once = ca.alternative_maker(alpha)
            alt, ker = ca.split(alpha)
            yield (ca.alternative_maker(once) == once
                   and ca.is_alternative(once)
                   and alt + ker == alpha
                   and ca.alternative_maker(ker).is_zero()) or {
                "complex": ctx.name, "degree": n, "cochain": ca._value_strings(alpha)}


@_law("projected-cup-commutativity",
      "On alternating inputs the projected cup product commutes up to the "
      "sign (-1)^(pq).")
def _suite_cup_commutativity(ctxs, rng, cases):
    for ctx in ctxs:
        cap = ctx.index.max_degree
        # exhaustive on the alternating bases in low degrees, built once
        basis = {p: [(tau, ca.alternating_cochain(tau))
                     for tau in ctx.complex.simplices_of_dim(p)]
                 for p in (0, 1) if p <= cap}
        pairs = [(p, q) for p in basis for q in basis if p + q <= cap]
        product = {(tau, rho): ca.alt_cup(ctx.index, a, b)
                   for p, q in pairs for tau, a in basis[p] for rho, b in basis[q]}
        for p, q in pairs:
            for (tau, _), (rho, _) in itertools.product(basis[p], basis[q]):
                yield product[rho, tau] == product[tau, rho].scale((-1) ** (p * q)) or {
                    "complex": ctx.name, "p": p, "q": q, "alpha": tau, "beta": rho}
        for _ in range(cases):
            p, q = rng.choice([(p, q) for p in (0, 1, 2) for q in (0, 1, 2)
                               if p + q <= cap])
            a = _random_alternating(ctx.complex, p, rng)
            b = _random_alternating(ctx.complex, q, rng)
            if a is None or b is None:
                continue
            yield ca.alt_cup(ctx.index, b, a) == \
                ca.alt_cup(ctx.index, a, b).scale((-1) ** (p * q)) or {
                    "complex": ctx.name, "p": p, "q": q,
                    "alpha": ca._value_strings(a), "beta": ca._value_strings(b)}


@_law("projected-cup-associativity",
      "On alternating inputs the projected cup product is associative.")
def _suite_cup_associativity(ctxs, rng, cases):
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
                            yield lhs == rhs or {"complex": ctx.name, "alpha": tau,
                                                 "beta": rho, "gamma": pi}
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
            lhs = ca.alt_cup(ctx.index, ca.alt_cup(ctx.index, a, b), c)
            rhs = ca.alt_cup(ctx.index, a, ca.alt_cup(ctx.index, b, c))
            yield lhs == rhs or {"complex": ctx.name, "degrees": [p, q, r],
                                 "alpha": ca._value_strings(a), "beta": ca._value_strings(b),
                                 "gamma": ca._value_strings(c)}


@_law("projected-cup-leibniz",
      "The coboundary is a graded derivation of the projected cup product "
      "on alternating inputs.")
def _suite_cup_leibniz(ctxs, rng, cases):
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
            yield lhs == rhs or {"complex": ctx.name, "p": p, "q": q,
                                 "alpha": ca._value_strings(a), "beta": ca._value_strings(b)}


@_law("coboundary-preserves-alternating",
      "The coboundary of an alternating cochain is alternating, so the "
      "alternating cochains form a subcomplex.")
def _suite_coboundary_alternating(ctxs, rng, cases):
    for ctx in ctxs:
        for n in range(ctx.index.max_degree):
            for tau in ctx.complex.simplices_of_dim(n):
                yield ca.is_alternative(ca.coboundary(ctx.index, ca.alternating_cochain(tau))) \
                    or {"complex": ctx.name, "tuple": tau}
        for _ in range(cases // 4 + 1 if cases and ctx.index.max_degree else 0):
            n = rng.randint(0, ctx.index.max_degree - 1)
            alpha = _random_alternating(ctx.complex, n, rng)
            if alpha is None:
                continue
            yield ca.is_alternative(ca.coboundary(ctx.index, alpha)) or {
                "complex": ctx.name, "degree": n, "cochain": ca._value_strings(alpha)}


@_law("projector-coboundary-commute",
      "The projector commutes with the coboundary on every basis cochain.")
def _suite_projector_coboundary_commute(ctxs, rng, cases):
    for ctx in ctxs:
        for n in range(ctx.index.max_degree):
            for g in ctx.index.generators(n):
                chi = ca.Cochain.indicator(g)
                yield ca.coboundary(ctx.index, ca.alternative_maker(chi)) == \
                    ca.alternative_maker(ca.coboundary(ctx.index, chi)) or {
                        "complex": ctx.name, "generator": g}


@_law("cohomology-splitting",
      "Over the rationals the projector induces an isomorphism between full "
      "and alternating cohomology: equal Betti numbers, kernel rank zero.")
def _suite_cohomology_splitting(ctxs, rng, cases):
    # the projector commutes with the coboundary (projector-coboundary-
    # commute), so it induces a map onto the alternating cohomology, whose
    # kernel rank is the difference of the two Betti numbers
    for ctx in ctxs:
        top = min(2, ctx.index.max_degree - 1)
        full = ih.cohomology_rational([ctx.index.generators(k) for k in range(top + 2)])
        alt = ih.cohomology_rational([ctx.complex.simplices_of_dim(k)
                                      for k in range(top + 2)])
        for n in range(top + 1):
            yield full[n] == alt[n] or {
                "complex": ctx.name, "degree": n, "rank_full": full[n],
                "rank_alternating": alt[n], "kernel_rank": full[n] - alt[n]}


@_law("quotient-boundary",
      "The lifted boundaries join no free and torsion generator and compose "
      "to zero modulo the order-2 relations, and on every generator of "
      "degree 1 to D the sign-quotient boundary equals the stored column.")
def _suite_quotient_boundary(ctxs, rng, cases):
    # with the law, agreement gives d d = 0 on the quotient boundary and
    # keeps the boundaries of torsion classes torsion
    for ctx in ctxs:
        pres = ctx.presentation
        # degree n checks d_n and d_{n+1}; at cap 1 there is d_1 alone
        D = pres.max_degree
        for n in range(1, D if D > 1 else D + 1):
            if not (pres.generator_count(n) and (n == D or pres.generator_count(n + 1))):
                continue
            violation = alt_chains.presented_law_violation(pres, n)
            yield not violation or {"complex": ctx.name, **violation[1]}
        for n in range(1, D + 1):
            rows = pres.free_generators[n - 1] + pres.torsion_generators[n - 1]
            free = len(pres.free_generators[n - 1])
            gens = pres.free_generators[n] + pres.torsion_generators[n]
            for t, column in zip(gens, pres.columns[n]):
                try:
                    descended = alt_chains.boundary(alt_chains.AltChain.from_generator(t))
                except ArithmeticError as exc:
                    yield {"complex": ctx.name, "tuple": t, "reason": str(exc)}
                    return
                stored = alt_chains.AltChain(
                    n - 1, {rows[r]: v for r, v in column.items() if r < free},
                    {rows[r]: v for r, v in column.items() if r >= free})
                yield descended == stored or {
                    "complex": ctx.name, "tuple": t,
                    "descended": {"free": descended.free, "torsion": descended.torsion},
                    "stored": {"free": stored.free, "torsion": stored.torsion}}


@_law("torsion-boundary-cancellation",
      "Every face of a torsion generator of degree 2 to D that keeps its "
      "first repeated pair is a torsion class.")
def _suite_torsion_cancellation(ctxs, rng, cases):
    for ctx in ctxs:
        pres = ctx.presentation
        for n in range(2, pres.max_degree + 1):
            for t in pres.torsion_generators[n]:
                j = next(k for k in range(n) if t[k] == t[k + 1])
                for i in range(n + 1):
                    if i not in (j, j + 1):
                        yield alt_chains.canonicalize(face(t, i))[1] or {
                            "complex": ctx.name, "tuple": t, "i": i,
                            "reason": "face keeping the repeat not torsion"}


@_law("face-class-compatibility",
      "Reordering a face changes its canonical class by exactly the parity, "
      "so restriction to faces descends to the quotient, on every tuple "
      "pattern of length 1 to min(3, D) and a seeded sample of each "
      "complex's generators.")
def _suite_face_class_compat(ctxs, rng, cases):
    for where, f in _label_free_cases(ctxs, rng, cases, 0):
        for images, _, _ in permutations._signed_orders(len(f)):
            yield alt_chains.face_class_compat(f, images) or {**where, "images": list(images)}


@_law("dual-dimension-match",
      "Per degree, the alternating cochain dimension over the rationals "
      "equals the number of free quotient generators; torsion is invisible "
      "to rational duals.")
def _suite_dual_dimensions(ctxs, rng, cases):
    for ctx in ctxs:
        for n in range(ctx.index.max_degree + 1):
            alt_dim = len(ctx.complex.simplices_of_dim(n))
            free_count = len(ctx.presentation.free_generators[n])
            yield alt_dim == free_count or {"complex": ctx.name, "degree": n,
                                            "alternating_dim": alt_dim,
                                            "free_generators": free_count}


@_law("quotient-homology-agreement",
      "Integer homology of the presented sign-quotient complex is "
      "isomorphic to simplicial homology in every computed degree.")
def _suite_quotient_homology(ctxs, rng, cases):
    for ctx in ctxs:
        try:
            computed = ih.homology_presented(ctx.presentation)
        except ValueError as exc:  # a boundary of the wrong shape
            yield {"complex": ctx.name, "reason": str(exc)}
            return
        reference = ih.simplicial_homology(ctx.complex)
        for n in range(ctx.presentation.max_degree):
            expected = reference[n] if n < len(reference) else ih.AbelianGroup(0)
            yield computed[n] == expected or {"complex": ctx.name, "degree": n,
                                              "quotient": str(computed[n]),
                                              "simplicial": str(expected)}


def _ordered_columns(index, n: int) -> list:
    # the boundary of the full tuple complex, degree n -> n-1, as face columns
    row_of = index.positions(n - 1)
    return [ih._face_row(g, row_of) for g in index.generators(n)]


@_law("ordered-homology-agreement",
      "Integer homology of the full tuple complex is isomorphic to "
      "simplicial homology in every computed degree.")
def _suite_ordered_homology(ctxs, rng, cases):
    for ctx in ctxs:
        computed = ih.ordered_homology(ctx.index)
        reference = ih.simplicial_homology(ctx.complex)
        # the elimination takes d_n d_{n+1} = 0 for granted; check it here
        d = [None] + [_ordered_columns(ctx.index, n)
                      for n in range(1, ctx.index.max_degree + 1)]
        for n in range(ctx.index.max_degree):
            expected = reference[n] if n < len(reference) else ih.AbelianGroup(0)
            composite = n and ih.product_entries(d[n], d[n + 1])
            if composite:
                r, c, v = composite[0]
                yield {"complex": ctx.name, "degree": n, "row": r, "col": c, "value": v}
            else:
                yield computed[n] == expected or {"complex": ctx.name, "degree": n,
                                                  "ordered": str(computed[n]),
                                                  "simplicial": str(expected)}


def _prism_identity_cases(h: hp.CombinatorialHomotopy, index, top_degree, fixture):
    """Outcomes of the exact prism identity on ordered chains and on the
    quotient, for every generator up to top_degree.  The quotient half is a
    function of h and of its exact input, sign included, so an input that
    passed is not checked again (never one equal only up to sign)."""
    passed = set()
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
            yield lhs == rhs or {"generator": g, "lhs": lhs, "rhs": rhs,
                                 "fixture": fixture}

            alt = alt_chains.AltChain.from_generator(g)
            if (key := (tuple(alt.free.items()), tuple(alt.torsion))) in passed:
                yield True
                continue
            try:
                alt_lhs = alt_chains.boundary(hp.prism_alt(h, alt))
                if n >= 1:
                    alt_lhs = alt_lhs + hp.prism_alt(h, alt_chains.boundary(alt))
                alt_rhs = hp.push_forward_alt(h.end, alt) - hp.push_forward_alt(h.start, alt)
            except ArithmeticError as exc:  # a torsion class mapped off torsion
                yield {"generator": g, "side": "quotient", "fixture": fixture,
                       "reason": str(exc)}
                return
            if alt_lhs == alt_rhs:
                passed.add(key)
            yield alt_lhs == alt_rhs or {"generator": g, "side": "quotient",
                                         "fixture": fixture}


@_law("prism-homotopy-identity",
      "boundary(prism) + prism(boundary) equals the difference of the two "
      "induced maps, on ordered chains and on the quotient, for cone "
      "contractions, identity homotopies, and a nontrivial contiguous pair.")
def _suite_prism_identity(ctxs, rng, cases):
    # cone contractions of full simplices
    for d in (1, 2, 3):
        K = _full_simplex(d)
        idx = enumerate_generators(K, min(3, d + 1))
        h = hp.CombinatorialHomotopy(hp.SimplicialMap.constant(K, K, 0),
                                     hp.SimplicialMap.identity(K))
        yield from _prism_identity_cases(h, idx, idx.max_degree - 1,
                                         f"cone contraction of the full {d}-simplex")
    for ctx in ctxs:
        # identity homotopy: the right side vanishes, the prism does not
        h = hp.CombinatorialHomotopy(hp.SimplicialMap.identity(ctx.complex),
                                     hp.SimplicialMap.identity(ctx.complex))
        yield from _prism_identity_cases(h, ctx.index, min(2, ctx.index.max_degree - 1),
                                         f"identity homotopy on {ctx.name}")
        # a nontrivial contiguous pair: walk an edge across a facet triangle
        facets2 = ctx.complex.simplices_of_dim(2)
        if facets2:
            p, q, r = facets2[0]
            edge = _full_simplex(1)
            edge_idx = enumerate_generators(edge, min(3, ctx.index.max_degree))
            f = hp.SimplicialMap(edge, ctx.complex, (p, q))
            g = hp.SimplicialMap(edge, ctx.complex, (q, r))
            h = hp.CombinatorialHomotopy(f, g)
            yield from _prism_identity_cases(
                h, edge_idx, edge_idx.max_degree - 1,
                f"edge walk across triangle {(p, q, r)} of {ctx.name}")


@_law("pullback-naturality",
      "Pulling back along a simplicial map commutes with the projector and "
      "preserves the alternating property.")
def _suite_pullback_naturality(ctxs, rng, cases):
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
                yield hp.pull_back(f, ca.alternative_maker(alpha)) == \
                    ca.alternative_maker(hp.pull_back(f, alpha)) or {
                        "complex": ctx.name, "assignment": list(f.assignment),
                        "degree": n, "cochain": ca._value_strings(alpha)}
                beta = _random_alternating(f.codomain, n, rng)
                if beta is not None:
                    yield ca.is_alternative(hp.pull_back(f, beta)) or {
                        "complex": ctx.name, "assignment": list(f.assignment),
                        "degree": n, "reason": "pullback broke alternation"}




def run_all(complexes, seed: int = 0, cases: int = 200, degree_cap: int = 3,
            budget: int = DEFAULT_GENERATOR_BUDGET) -> VerificationReport:
    """Run every registered suite over (name, complex) pairs."""
    ctxs = []
    for name, K in complexes:
        index = enumerate_generators(K, degree_cap, budget=budget)
        pres = alt_chains.alt_chain_complex(K, degree_cap, budget=budget)
        ctxs.append(ComplexContext(name=name, complex=K, index=index,
                                   presentation=pres))
    results = []
    for suite_id, statement, fn in REGISTRY:
        rng = Random(f"{seed}:{suite_id}")
        count, counterexample = fn(ctxs, rng, cases)
        results.append(SuiteResult(
            suite_id=suite_id, statement=statement,
            complexes=tuple(c.name for c in ctxs), cases=count,
            passed=counterexample is None, counterexample=counterexample))
    return VerificationReport(
        seed=seed, cases_requested=cases, degree_cap=degree_cap, budget=budget,
        complexes=tuple(c.name for c in ctxs), results=tuple(results))
