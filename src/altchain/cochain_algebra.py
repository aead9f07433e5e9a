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
signed table per size: O(|supp| + orbits * (n+1)!) in all.  The
coboundary scatters each supported value onto the cofaces it is a face
of, so its cost is O(|supp| * (n+2) * coface vertices).

All arithmetic is exact; equality of cochains is equality of their
canonical sparse forms, with no tolerances anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .complex_model import GeneratorIndex, face
from .errors import DegreeCapError, FormatError
from .integer_homology import IntegerMatrix

COCHAIN_FORMAT_VERSION = 1
_COCHAIN_FIELDS = {"format_version", "degree", "values"}


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
            fv = v if type(v) is Fraction else Fraction(v)
            if fv:
                clean[g] = fv
        self.values = clean

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
            out[g] = out.get(g, Fraction(0)) + v
        return Cochain(self.degree, out)

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, {g: -v for g, v in self.values.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def scale(self, k) -> "Cochain":
        k = Fraction(k)
        return Cochain(self.degree, {g: k * v for g, v in self.values.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.degree == other.degree
                and self.values == other.values)

    def __hash__(self):
        raise TypeError("Cochain is not hashable")

    def __repr__(self) -> str:
        terms = ", ".join(f"{g}: {v}" for g, v in sorted(self.values.items()))
        return f"Cochain(deg {self.degree}, {{{terms}}})"


@lru_cache(maxsize=None)
def _signed_orders(k: int) -> tuple:
    """Every ordering of k positions as (order, parity), in lexicographic
    order of the orders."""
    out = []
    for order in itertools.permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k)
                         if order[a] > order[b])
        out.append((order, -1 if inversions % 2 else 1))
    return tuple(out)


def _orbit(key: tuple) -> dict:
    """Each reordering of the strictly increasing tuple ``key``, mapped to
    the parity of the reordering that sorts it back."""
    return {tuple(key[j] for j in order): sgn
            for order, sgn in _signed_orders(len(key))}


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
                out[g] = out.get(g, 0) + signed
    return Cochain(n + 1, out)


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
        for g, sgn in _orbit(key).items():
            if values.get(g, 0) != sgn * base:
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
    scale = Fraction(1, factorial(n + 1))
    out = {}
    for key, members in groups.items():
        orbit = _orbit(key)
        total = sum(orbit[h] * v for h, v in members)
        if total:
            value = total * scale
            signed = {1: value, -1: -value}
            for g, sgn in orbit.items():
                out[g] = signed[sgn]
    return Cochain(n, out)


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
    return Cochain(p + q, out)


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

@dataclass(frozen=True)
class AltBasis:
    """Basis data for the alternating cochains of one degree.

    The alternating cochains are spanned by one basis element per
    strictly increasing tuple (per n-simplex); the projector kernel is a
    complement, so its dimension is the generator count minus the number
    of simplices.
    """

    degree: int
    free_tuples: tuple
    complement_dim: int

    @property
    def dim(self) -> int:
        return len(self.free_tuples)


def alt_basis(index: GeneratorIndex, n: int) -> AltBasis:
    simplices = index.complex.simplices_of_dim(n)
    return AltBasis(degree=n, free_tuples=tuple(simplices),
                    complement_dim=index.count(n) - len(simplices))


def alternating_cochain(tau: tuple, value=1) -> Cochain:
    """The alternating cochain supported on the reorderings of a
    strictly increasing tuple, worth ``value`` on the tuple itself."""
    if list(tau) != sorted(set(tau)):
        raise ValueError(f"{tau} is not strictly increasing")
    value = Fraction(value)
    signed = {1: value, -1: -value}
    return Cochain(len(tau) - 1,
                   {g: signed[sgn] for g, sgn in _orbit(tau).items()})


# ---------------------------------------------------------------------------
# matrices

def coboundary_matrix(index: GeneratorIndex, n: int) -> IntegerMatrix:
    """Matrix of the coboundary from degree n to degree n+1 on the
    generator bases (integer entries)."""
    if n + 1 > index.max_degree:
        raise DegreeCapError(f"need generators of degree {n + 1}")
    entries: dict = {}
    for i, g in enumerate(index.generators(n + 1)):
        for k in range(n + 2):
            j = index.position(face(g, k))
            key = (i, j)
            v = entries.get(key, 0) + (-1) ** k
            if v:
                entries[key] = v
            else:
                entries.pop(key, None)
    return IntegerMatrix(index.count(n + 1), index.count(n), entries)


def alt_coboundary_matrix(index: GeneratorIndex, n: int) -> IntegerMatrix:
    """Coboundary on the alternating bases (strictly increasing tuples)."""
    if n + 1 > index.max_degree:
        raise DegreeCapError(f"need generators of degree {n + 1}")
    cols = {t: j for j, t in enumerate(index.complex.simplices_of_dim(n))}
    rows = index.complex.simplices_of_dim(n + 1)
    entries: dict = {}
    for i, rho in enumerate(rows):
        for k in range(n + 2):
            f = rho[:k] + rho[k + 1:]
            entries[(i, cols[f])] = (-1) ** k
    return IntegerMatrix(len(rows), len(cols), entries)


def alternative_maker_matrix(index: GeneratorIndex, n: int) -> list:
    """Dense Fraction matrix of the projector on the degree-n basis."""
    m = index.count(n)
    out = [[Fraction(0)] * m for _ in range(m)]
    for j, g in enumerate(index.generators(n)):
        image = alternative_maker(Cochain.indicator(g))
        for h, v in image.values.items():
            out[index.position(h)][j] = v
    return out


def alternative_maker_matrix_scaled(index: GeneratorIndex, n: int) -> IntegerMatrix:
    """The projector matrix times (n+1)!, which is integer; same rank.

    Sparse, so rank checks stay cheap even where the dense Fraction matrix
    would not fit comfortably.
    """
    fact = factorial(n + 1)
    entries: dict = {}
    for j, g in enumerate(index.generators(n)):
        image = alternative_maker(Cochain.indicator(g))
        for h, v in image.values.items():
            iv = v * fact
            entries[(index.position(h), j)] = int(iv)
    m = index.count(n)
    return IntegerMatrix(m, m, entries)


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
    if data.get("format_version", COCHAIN_FORMAT_VERSION) != COCHAIN_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    if "degree" not in data or "values" not in data:
        raise FormatError("cochain needs 'degree' and 'values'")
    degree = data["degree"]
    if not isinstance(degree, int) or degree < 0:
        raise FormatError(f"bad degree {degree!r}")
    vals = {}
    for item in data["values"]:
        try:
            key, s = item
            g = tuple(int(v) for v in key)
            v = Fraction(s)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad cochain entry {item!r}") from exc
        if len(g) != degree + 1:
            raise FormatError(f"tuple {g} does not have degree {degree}")
        if index is not None and not index.is_generator(g):
            raise FormatError(f"{g} is not a generator of the complex")
        vals[g] = vals.get(g, Fraction(0)) + v
    return Cochain(degree, vals)
