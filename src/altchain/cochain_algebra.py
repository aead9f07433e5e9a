"""Exact rational cochains, the alternating-projection operator, cup products.

A cochain is a finitely supported map from degree-n generators to
Fractions.  The projector averages a cochain over all reorderings of each
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
is written out over the (n+1)! reorderings of that orbit, read from one
signed table per size: O(|supp| + orbits * (n+1)!) in all.  The table
holds one ``operator.itemgetter`` per reordering, so a reordered tuple is
read in one C call, and a signed sum adds or subtracts each value (an odd
reordering negates) instead of multiplying it by its sign.  The
coboundary scatters each supported value onto the cofaces it is a face
of, so its cost is O(|supp| * (n+2) * coface vertices); like the sum of
two cochains, it stores the first value to reach a tuple as it is rather
than adding it to zero, and drops the sums that cancel.  Results computed
here are built without the constructor's per-entry checks.

All arithmetic is exact; equality of cochains is equality of their
canonical sparse forms, with no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import itemgetter

from . import permutations
# face stays importable from here: perfbench's tracer test checks that
# cochain_algebra.face is restored after a traced replay
from .complex_model import GeneratorIndex, face  # noqa: F401
from .errors import DegreeCapError, FormatError

COCHAIN_FORMAT_VERSION = 1
_COCHAIN_FIELDS = {"format_version", "degree", "values"}
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


class Cochain:
    """Sparse rational cochain of a fixed degree.

    ``values`` maps generator tuples to nonzero Fractions; anything absent
    evaluates to zero.  Instances are value-like: arithmetic returns new
    cochains and the internal map is never mutated after construction.
    """

    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values=None):
        self.degree = degree
        clean = {}
        for g, v in (values or {}).items():
            if len(g) != degree + 1:
                raise ValueError(f"{g} does not have degree {degree}")
            if type(v) is not Fraction:
                v = _exact(v)
            if v:
                clean[g] = v
        self.values = clean

    @classmethod
    def _trusted(cls, degree: int, values: dict) -> "Cochain":
        """Values computed here, nonzero Fractions on tuples of the degree."""
        self = object.__new__(cls)
        self.degree, self.values = degree, values
        return self

    @classmethod
    def zero(cls, degree: int) -> "Cochain":
        return cls(degree)

    @classmethod
    def indicator(cls, g: tuple) -> "Cochain":
        return cls(len(g) - 1, {g: Fraction(1)})

    def __call__(self, g: tuple) -> Fraction:
        return self.values.get(g, Fraction(0))

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.values)
        for g, v in other.values.items():
            prior = out.get(g)
            out[g] = v if prior is None else prior + v
        return Cochain._trusted(self.degree, {g: v for g, v in out.items() if v})

    def __neg__(self) -> "Cochain":
        return Cochain._trusted(self.degree, {g: -v for g, v in self.values.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k) -> "Cochain":
        k = _exact(k)
        return Cochain(self.degree, {g: k * v for g, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)

    def __hash__(self):
        raise TypeError("Cochain is not hashable")

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {v}" for g, v in sorted(self.values.items()))
        return f"Cochain(deg {self.degree}, {{{terms}}})"


def _exact(v) -> Fraction:
    """``v`` as a Fraction; a float is refused, since it has no exact
    meaning here (0.1 is not 1/10)."""
    if isinstance(v, float):
        raise TypeError(f"cochain values are exact; got the float {v!r}")
    return Fraction(v)


@lru_cache(maxsize=None)
def _signed_orders(k: int) -> tuple:
    """Every ordering of k positions as (getter, parity), in lexicographic
    order of the orders; the getter reads a tuple in that order."""
    if k <= 1:
        return ((tuple, 1),)
    return tuple((itemgetter(*order), permutations.parity(order))
                 for order in itertools.permutations(range(k)))


def _orbit(key: tuple) -> dict:
    """Each reordering of the strictly increasing tuple ``key``, mapped to
    the parity of the reordering that sorts it back."""
    return {get(key): sgn for get, sgn in _signed_orders(len(key))}


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
    for f, value in alpha.values.items():
        vertices = coface_vertices.get(frozenset(f), ())
        for i in range(n + 2):
            head, tail = f[:i], f[i:]
            signed = -value if i % 2 else value
            for v in vertices:
                g = head + (v,) + tail
                prior = out.get(g)
                out[g] = signed if prior is None else prior + signed
    return Cochain._trusted(n + 1, {g: v for g, v in out.items() if v})


def is_alternative(alpha: Cochain) -> bool:
    """Does the cochain flip by the parity under every entry reordering?

    Checked one orbit at a time: no supported tuple repeats an entry, and
    every reordering h of a sorted key holds sign(h) * alpha(key).
    """
    values = alpha.values
    seen = set()
    for h in values:
        key = tuple(sorted(h))
        if key in seen:
            continue
        seen.add(key)
        if len(set(key)) != len(key):
            return False
        base = values.get(key, 0)
        signed = {1: base, -1: -base}
        for g, sgn in _orbit(key).items():
            if values.get(g, 0) != signed[sgn]:
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
    groups: dict = {}
    for h, v in alpha.values.items():
        if len(set(h)) == len(h):
            groups.setdefault(tuple(sorted(h)), []).append((h, v))
    fact = factorial(n + 1)
    out = {}
    for key, members in groups.items():
        orbit = _orbit(key)
        (h, total), *rest = members
        if orbit[h] < 0:
            total = -total
        for h, v in rest:
            total = total - v if orbit[h] < 0 else total + v
        if total:
            value = total / fact
            signed = {1: value, -1: -value}
            for g, sgn in orbit.items():
                out[g] = signed[sgn]
    return Cochain._trusted(n, out)


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
    out = {}
    for a, va in alpha.values.items():
        for b, vb in beta.values.items():
            if a[-1] != b[0]:
                continue
            t = a + b[1:]
            if index.is_generator(t):
                out[t] = va * vb  # front/back split of t is unique
    return Cochain._trusted(p + q, out)


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
    value = _exact(value)
    signed = {1: value, -1: -value}
    orbit = _orbit(tau) if value else {}
    return Cochain._trusted(len(tau) - 1, {g: signed[sgn] for g, sgn in orbit.items()})


# ---------------------------------------------------------------------------
# matrices

def alternative_maker_matrix_scaled(index: GeneratorIndex, n: int) -> dict:
    """The projector matrix on the degree-n basis times (n+1)!, which is
    integer (every entry is 0 or +-1); it has the projector's rank.  The
    matrix is symmetric, so its nonzero rows ``{row: {col: nonzero}}``
    are the images of the basis cochains: row j that of the j-th one."""
    fact = factorial(n + 1)
    rows: dict = {}
    for j, g in enumerate(index.generators(n)):
        image = alternative_maker(Cochain.indicator(g)).values
        if image:
            rows[j] = {index.position(h): int(v * fact) for h, v in image.items()}
    return rows


# ---------------------------------------------------------------------------
# serialization

def cochain_to_json(alpha: Cochain) -> dict:
    return {
        "format_version": COCHAIN_FORMAT_VERSION,
        "degree": alpha.degree,
        "values": [[list(g), f"{v.numerator}/{v.denominator}"]
                   for g, v in sorted(alpha.values.items())],
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
    vals = {}
    for item in data["values"]:
        # vertices are JSON integers; a value is a JSON integer or an exact
        # "num/den", integer or decimal-point string (no floats, no booleans)
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[0], list)
                and all(type(v) is int for v in item[0])
                and (type(item[1]) is int
                     or isinstance(item[1], str) and _RATIONAL.fullmatch(item[1]))):
            raise FormatError(f"bad cochain entry {item!r}")
        try:
            v = Fraction(item[1])
        except (ZeroDivisionError, ValueError) as exc:  # also past int()'s digit limit
            raise FormatError(f"bad cochain entry {item!r}") from exc
        g = tuple(item[0])
        if len(g) != degree + 1:
            raise FormatError(f"tuple {g} does not have degree {degree}")
        if index is not None and not index.is_generator(g):
            raise FormatError(f"{g} is not a generator of the complex")
        vals[g] = vals.get(g, Fraction(0)) + v
    return Cochain(degree, vals)
