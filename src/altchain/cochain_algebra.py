"""Exact rational cochains, the alternating-projection operator, cup products.

A cochain is a finitely supported map from degree-n generators to the
rationals, held as integer numerators over one denominator in lowest
terms.  The projector averages a cochain over all reorderings of each
generator with the parity as weight; its image is exactly the cochains
that flip sign under odd reorderings, and it is the identity there.  The
modified cup product is the projector applied to the ordinary front/back
cup product.  On alternating inputs it is graded commutative; it is
associative exactly only on closed alternating inputs, and so in
cohomology, but not on all alternating inputs.

The projector works one orbit at a time.  Write sign(g) for the parity of
the reordering that sorts a tuple g with distinct entries.  The value of
the projection at g depends only on the orbit of g (its reorderings):

    P(alpha)(g) = sign(g)/(n+1)! * sum over h in orbit(g) of sign(h)*alpha(h)

for distinct entries, and P(alpha)(g) = 0 when g repeats an entry, since
the odd swap of two equal entries fixes g.  So the support is grouped by
its sorted tuple, one signed sum is kept per orbit, and each nonzero sum
is written out over the (n+1)! reorderings of that orbit: O(|supp| +
orbits * (n+1)!) in all.  Each sign is computed once per process and
then read from the two tables of ``permutations``: a tuple's sorted key
and sign (at most 2**16 tuples), and a key's orbit with the sign of each
reordering (at most 2**16 reorderings in all), built with one
``operator.itemgetter`` per reordering.  The coboundary scatters each
supported value onto the cofaces it is a face of: O(|supp| * (n+2) *
coface vertices).  The cup indexes beta by first vertex, so each alpha
tuple meets only the beta tuples that start at its last vertex:
O(|supp beta| + matching pairs).

The operations work on numerators in ``int``: a sum takes the common
denominator through one gcd, the coboundary keeps the denominator, the
cup multiplies the two, the projector multiplies it by (n+1)!.  A private
constructor reduces each result by one gcd, without the checks of
``Cochain(n, values)`` and the reader, which sum over the common
denominator and refuse it once it passes Python's digit limit.  The
reader parses values with ``int()``; ``fractions`` is imported only by the
views that return a ``Fraction`` (``values``, a call, ``repr``) and to
read a value given as neither an ``int`` nor a ``Fraction``.
Equality is equality of the canonical forms, with no tolerances.
"""

from __future__ import annotations

import re
import sys
from math import factorial, gcd, lcm

from . import permutations
# face stays importable from here: perfbench's tracer test checks that
# cochain_algebra.face is restored after a traced replay
from .complex_model import GeneratorIndex, face  # noqa: F401
from .errors import DegreeCapError, FormatError

COCHAIN_FORMAT_VERSION = 1
_COCHAIN_FIELDS = {"format_version", "degree", "values"}
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*|\.[0-9]+)?")  # no zero denominator


class Cochain:
    """Sparse rational cochain of a fixed degree: ``num`` maps generator
    tuples to nonzero ints over the int ``den`` > 0, with gcd(den, *num)
    == 1 (den == 1 when empty); ``values`` reads them as Fractions.
    Absent tuples are zero.  Instances are never mutated once built.
    """

    __slots__ = ("degree", "num", "den")

    def __init__(self, degree: int, values=None):
        # a dict repeats no tuple, so nothing is summed and gcd(den, *num) == 1
        self.degree = degree
        self.num, self.den = _over_common_denominator(
            degree, ((g, *_ratio(v)) for g, v in (values or {}).items()))

    @classmethod
    def _reduced(cls, degree: int, num: dict, den: int) -> "Cochain":
        """Nonzero ints computed here over den > 0, in lowest terms."""
        if den > 1 and (common := gcd(den, *num.values())) > 1:
            num = {g: v // common for g, v in num.items()}
            den //= common
        self = object.__new__(cls)
        self.degree, self.num, self.den = degree, num, den
        return self

    @classmethod
    def zero(cls, degree: int) -> "Cochain":
        return cls._reduced(degree, {}, 1)

    @classmethod
    def indicator(cls, g: tuple) -> "Cochain":
        return cls._reduced(len(g) - 1, {g: 1}, 1)

    @property
    def values(self) -> dict:
        """A new ``{tuple: Fraction}`` map of the nonzero values."""
        from fractions import Fraction
        den = self.den
        return {g: Fraction(v, den) for g, v in self.num.items()}

    def __call__(self, g: tuple):
        """The value at ``g`` as a ``Fraction``."""
        from fractions import Fraction
        return Fraction(self.num.get(g, 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        common = gcd(self.den, other.den)
        fa, fb = other.den // common, self.den // common  # over the lcm
        out = {g: v * fa for g, v in self.num.items()}
        for g, v in other.num.items():
            out[g] = out.get(g, 0) + v * fb
        return Cochain._reduced(self.degree, {g: v for g, v in out.items() if v},
                                self.den * fa)

    def __neg__(self) -> "Cochain":
        return Cochain._reduced(self.degree, {g: -v for g, v in self.num.items()}, self.den)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k) -> "Cochain":
        top, bottom = _ratio(k)
        if not top:
            return Cochain.zero(self.degree)
        return Cochain._reduced(self.degree, {g: top * v for g, v in self.num.items()},
                                self.den * bottom)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        raise TypeError("Cochain is not hashable")

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {v}" for g, v in sorted(self.values.items()))
        return f"Cochain(deg {self.degree}, {{{terms}}})"


def _over_common_denominator(degree: int, terms) -> tuple:
    """(tuple, numerator, denominator > 0) triples as ({tuple: nonzero
    int}, den), summed over the lcm of the denominators, which is refused
    as soon as it passes Python's digit limit, before any numerator is
    built."""
    exact, den = [], 1
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 before 3.11
    for g, top, bottom in terms:
        if len(g) != degree + 1:
            raise ValueError(f"{g} does not have degree {degree}")
        if top:
            exact.append((g, top, bottom))
            if den % bottom:
                den = lcm(den, bottom)
                # 2**(3*limit) < 10**limit
                if limit and den.bit_length() > 3 * limit and den >= 10 ** limit:
                    raise FormatError("the values' common denominator passes "
                                      f"Python's {limit}-digit limit")
    num: dict = {}
    for g, top, bottom in exact:
        num[g] = num.get(g, 0) + top * (den // bottom)
    return {g: v for g, v in num.items() if v}, den


def _ratio(v) -> tuple:
    """``v`` as (numerator, denominator > 0) in lowest terms; a float is
    refused, since it has no exact meaning here (0.1 is not 1/10)."""
    if type(v) is int:
        return v, 1
    if isinstance(v, float):
        raise TypeError(f"cochain values are exact; got the float {v!r}")
    from fractions import Fraction  # a Fraction's caller has loaded it already
    return Fraction(v).as_integer_ratio()


def coboundary(index: GeneratorIndex, alpha: Cochain) -> Cochain:
    """Alternating sum of values on the faces; the dual of the boundary.

    Scattered from the support: the value at f goes, with sign (-1)^i, to
    every g with face(g, i) = f, that is to f[:i] + (v,) + f[i:] for each
    vertex v that spans a simplex together with f.  Each pair (g, i) with
    face(g, i) = f arises exactly once.
    """
    n = alpha.degree
    if n + 1 > index.max_degree:
        raise DegreeCapError(
            f"coboundary of degree {n} needs generators of degree {n + 1}, "
            f"cap is {index.max_degree}")
    coface_vertices = index.complex.coface_vertices
    out: dict = {}
    for f, value in alpha.num.items():
        vertices = coface_vertices.get(frozenset(f), ())
        for i in range(n + 2):
            head, tail = f[:i], f[i:]
            signed = -value if i % 2 else value
            for v in vertices:
                g = head + (v,) + tail
                out[g] = out.get(g, 0) + signed
    return Cochain._reduced(n + 1, {g: v for g, v in out.items() if v}, alpha.den)


def is_alternative(alpha: Cochain) -> bool:
    """Does the cochain flip by the parity under every entry reordering?

    Checked one orbit at a time: no supported tuple repeats an entry, and
    every reordering h of a sorted key holds sign(h) * alpha(key).
    """
    values = alpha.num
    seen = set()
    for h in values:
        key, sign = permutations._signed_classes[h]
        if not sign:
            return False
        if key in seen:
            continue
        seen.add(key)
        base = values.get(key, 0)
        for g, sgn in permutations._orbits[key].items():
            if values.get(g, 0) != base * sgn:
                return False
    return True


def alternative_maker(alpha: Cochain) -> Cochain:
    """Parity-weighted average over all reorderings; projects onto
    alternating cochains and is the identity on them.

    One signed sum per orbit, sign(h) * alpha(h) over the supported h that
    sort to the same key; keys with a repeated entry are skipped, because
    the projection vanishes there.  Each nonzero sum is divided by (n+1)!
    and written to every reordering of its key with that reordering's
    parity: O(|supp| + orbits * (n+1)!).
    """
    n = alpha.degree
    for h in alpha.num:
        if len(set(h)) == len(h):
            break
    else:  # only repeated entries: the projection is 0, and no sign table is read
        return Cochain.zero(n)
    sums, classes, orbits = {}, permutations._signed_classes, permutations._orbits
    for h, v in alpha.num.items():
        key, sign = classes[h]
        if sign:
            sums[key] = sums.get(key, 0) + sign * v
    # reduced once per orbit, then written to each reordering
    image = Cochain._reduced(n, {k: s for k, s in sums.items() if s}, alpha.den * factorial(n + 1))
    image.num = {g: total * sgn for key, total in image.num.items()
                 for g, sgn in orbits[key].items()}
    return image


def split(alpha: Cochain) -> tuple:
    """Decompose as (alternating part, projector kernel part)."""
    alt = alternative_maker(alpha)
    return alt, alpha - alt


def cup(index: GeneratorIndex, alpha: Cochain, beta: Cochain) -> Cochain:
    """Front-face/back-face product: evaluate the first factor on the
    leading entries and the second on the trailing entries."""
    p, q = alpha.degree, beta.degree
    if p + q > index.max_degree:
        raise DegreeCapError(
            f"cup product of degrees {p} and {q} exceeds the cap "
            f"{index.max_degree}")
    tails, out = {}, {}  # beta by first vertex
    for b, vb in beta.num.items():
        tails.setdefault(b[0], []).append((b[1:], vb))
    simplex_set = index.complex.simplex_set
    for a, va in alpha.num.items():
        for tail, vb in tails.get(a[-1], ()):
            t = a + tail
            if frozenset(t) in simplex_set:
                out[t] = va * vb  # front/back split of t is unique
    return Cochain._reduced(p + q, out, alpha.den * beta.den)


def alt_cup(index: GeneratorIndex, alpha: Cochain, beta: Cochain) -> Cochain:
    """The projected cup product."""
    return alternative_maker(cup(index, alpha, beta))


def nonlinear_residual(index: GeneratorIndex, alpha: Cochain) -> Cochain:
    """The degree-(2p+1) cochain  alpha cup_A (coboundary alpha).

    Zero whenever alpha is closed; the left-hand side of the model
    nonlinear cochain equation.
    """
    p = alpha.degree
    if 2 * p + 1 > index.max_degree:
        raise DegreeCapError(
            f"residual of a degree-{p} cochain has degree {2 * p + 1}, "
            f"cap is {index.max_degree}")
    return alt_cup(index, alpha, coboundary(index, alpha))


# ---------------------------------------------------------------------------
# the alternating basis

def alternating_cochain(tau: tuple, value=1) -> Cochain:
    """The alternating cochain supported on the reorderings of a
    strictly increasing tuple, worth ``value`` on the tuple itself."""
    if list(tau) != sorted(set(tau)):
        raise ValueError(f"{tau} is not strictly increasing")
    top, bottom = _ratio(value)
    orbit = permutations._orbits[tau] if top else {}
    return Cochain._reduced(len(tau) - 1, {g: top * sgn for g, sgn in orbit.items()}, bottom)


# ---------------------------------------------------------------------------
# serialization

def _value_strings(alpha: Cochain) -> dict:
    """``{tuple: "num/den"}``, each value in lowest terms."""
    den = alpha.den
    return {g: f"{v // (common := gcd(v, den))}/{den // common}" for g, v in alpha.num.items()}


def cochain_to_json(alpha: Cochain) -> dict:
    """Each value in lowest terms, as the string "num/den"."""
    return {
        "format_version": COCHAIN_FORMAT_VERSION,
        "degree": alpha.degree,
        "values": [[list(g), v] for g, v in sorted(_value_strings(alpha).items())],
    }


def cochain_from_json(data: dict, index: GeneratorIndex | None = None) -> Cochain:
    if not isinstance(data, dict):
        raise FormatError("cochain must be a JSON object")
    unknown = set(data) - _COCHAIN_FIELDS
    if unknown:
        raise FormatError(f"unknown fields in cochain: {sorted(unknown)}")
    version = data.get("format_version", COCHAIN_FORMAT_VERSION)
    if type(version) is not int or version != COCHAIN_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    if "degree" not in data or "values" not in data:
        raise FormatError("cochain needs 'degree' and 'values'")
    degree = data["degree"]
    if type(degree) is not int or degree < 0:
        raise FormatError(f"bad degree {degree!r}")
    if not isinstance(data["values"], list):
        raise FormatError("cochain 'values' must be a list")
    # read lazily: a denominator past the digit limit stops at its entry
    return Cochain._reduced(degree, *_over_common_denominator(
        degree, _cochain_entries(data["values"], degree, index)))


def _cochain_entries(items: list, degree: int, index: GeneratorIndex | None):
    """Each entry of a cochain's 'values' list as (tuple, numerator,
    denominator > 0), the value read with ``int()`` in lowest terms."""
    for item in items:
        # vertices are JSON integers; a value is a JSON integer or an exact
        # "num/den", integer or decimal-point string (no floats, no booleans)
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], list)
                and all(type(v) is int for v in item[0])
                and (type(value := item[1]) is int
                     or isinstance(value, str) and _RATIONAL.fullmatch(value))):
            raise FormatError(f"bad cochain entry {item!r}")
        try:  # int() refuses a string past its digit limit
            if type(value) is int:
                top, bottom = value, 1
            elif "/" in value:
                top, bottom = map(int, value.split("/"))
            else:  # the digits after the point as a second int, as Fraction reads them
                whole, _, digits = value.partition(".")
                bottom = 10 ** len(digits)
                top = int(whole) * bottom + (-1 if whole[0] == "-" else 1) * int(digits or 0)
        except ValueError as exc:
            raise FormatError(f"bad cochain entry {item!r}") from exc
        g = tuple(item[0])
        if len(g) != degree + 1:
            raise FormatError(f"tuple {g} does not have degree {degree}")
        if index is not None and not index.is_generator(g):
            raise FormatError(f"{g} is not a generator of the complex")
        common = gcd(top, bottom)
        yield g, top // common, bottom // common
