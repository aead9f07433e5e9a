"""The chain quotient that identifies a reordered generator with its sign.

Under the relations  reorder(s, g) = sign(s) * g  every degree-n chain
group splits into a free part, one Z summand per strictly increasing
tuple, and a torsion part, one Z/2 summand per sorted tuple containing a
repeat (a repeated tuple is fixed by the odd swap of its equal entries,
so twice its class is zero).  The relation subgroup is never materialized:
:func:`canonicalize` rewrites any generator into its canonical class and
everything else works with those classes.

Sorted tuples form a subcomplex of the tuple complex: every face of a
sorted tuple is sorted, hence already canonical.  So the lifted boundary
of the presentation (:func:`alt_chain_complex`) is the ordered boundary
on sorted tuples, with the torsion rows read mod 2.

A chain map on ordered chains that commutes with reordering descends to
the quotient (:func:`descend`): apply it to the canonical representatives
and project the image.  The image of a torsion generator must then
project to torsion only, since the class has order 2.  The boundary here,
and the induced map and the prism of :mod:`altchain.homotopy_prism`, are
descended this way from their ordered forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import permutations
from .complex_model import SimplicialComplex, check_generator_budget, face
from .errors import FormatError
from .integer_homology import (IntegerMatrix, face_matrix, free_torsion_crossing,
                               matrix_from_json, matrix_to_json)

PRESENTATION_FORMAT_VERSION = 2


def sorting_sign(t: tuple) -> int:
    """Parity of the permutation that sorts ``t`` (entries must be distinct)."""
    inv = 0
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            if t[a] > t[b]:
                inv += 1
    return -1 if inv % 2 else 1


def canonicalize(g: tuple) -> tuple:
    """Rewrite a generator as (sorted tuple, is_torsion, sign).

    Distinct entries give a free class (integer coefficients) and the sign
    of the sorting permutation; a repeated entry gives a torsion class
    (mod-2 coefficients) and sign 1.
    """
    srt = tuple(sorted(g))
    for a in range(len(srt) - 1):
        if srt[a] == srt[a + 1]:
            return srt, True, 1
    return srt, False, sorting_sign(g)


class AltChain:
    """A chain in the quotient: sparse free part over Z, torsion part over Z/2.

    The two parts are kept in separate maps so integer and mod-2 arithmetic
    never mix silently.  Instances behave as values; arithmetic returns new
    chains.
    """

    __slots__ = ("degree", "free", "torsion")

    def __init__(self, degree: int, free=None, torsion=None):
        self.degree = degree
        self.free = {t: c for t, c in (free or {}).items() if c}
        self.torsion = {t: c % 2 for t, c in (torsion or {}).items() if c % 2}

    @classmethod
    def zero(cls, degree: int) -> "AltChain":
        return cls(degree)

    @classmethod
    def from_ordered(cls, degree: int, coefficients) -> "AltChain":
        """Project an ordered chain {tuple: int} into the quotient."""
        free: dict = {}
        torsion: dict = {}
        for g, c in coefficients.items():
            t, is_torsion, sign = canonicalize(g)
            if is_torsion:
                torsion[t] = torsion.get(t, 0) + c
            else:
                free[t] = free.get(t, 0) + sign * c
        return cls(degree, free, torsion)

    @classmethod
    def from_generator(cls, g: tuple, coefficient: int = 1) -> "AltChain":
        return cls.from_ordered(len(g) - 1, {g: coefficient})

    def __add__(self, other: "AltChain") -> "AltChain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        free = dict(self.free)
        for t, c in other.free.items():
            free[t] = free.get(t, 0) + c
        torsion = dict(self.torsion)
        for t, c in other.torsion.items():
            torsion[t] = torsion.get(t, 0) + c
        return AltChain(self.degree, free, torsion)

    def __neg__(self) -> "AltChain":
        return AltChain(self.degree, {t: -c for t, c in self.free.items()},
                        dict(self.torsion))

    def __sub__(self, other: "AltChain") -> "AltChain":
        return self + (-other)

    def scale(self, k: int) -> "AltChain":
        return AltChain(self.degree, {t: k * c for t, c in self.free.items()},
                        {t: k * c for t, c in self.torsion.items()})

    def is_zero(self) -> bool:
        return not self.free and not self.torsion

    def __eq__(self, other) -> bool:
        return (isinstance(other, AltChain) and self.degree == other.degree
                and self.free == other.free and self.torsion == other.torsion)

    def __hash__(self):
        raise TypeError("AltChain is not hashable")

    def __repr__(self) -> str:
        parts = [f"{c}*{t}" for t, c in sorted(self.free.items())]
        parts += [f"{t} (mod 2)" for t in sorted(self.torsion)]
        return f"AltChain(deg {self.degree}: " + (" + ".join(parts) or "0") + ")"


def ordered_boundary(coefficients: dict) -> dict:
    """Boundary of an ordered chain {tuple: int}: alternating sum of faces."""
    out: dict = {}
    for g, c in coefficients.items():
        for i in range(len(g)):
            f = face(g, i)
            out[f] = out.get(f, 0) + ((-1) ** i) * c
    return {t: c for t, c in out.items() if c}


def descend(ordered_map, chain: AltChain, degree: int) -> AltChain:
    """Apply a chain map on ordered chains to a chain of the quotient.

    ``ordered_map`` takes an ordered chain {tuple: int} to an ordered chain
    of degree ``degree`` and commutes with reordering, so it is applied to
    the canonical representatives and the result projected.  A torsion
    class has order 2, so the image of each torsion generator must project
    to torsion only; a free term there raises ArithmeticError.
    """
    image = AltChain.from_ordered(degree, ordered_map(chain.free))
    torsion = dict(image.torsion)
    for t, c in chain.torsion.items():
        piece = AltChain.from_ordered(degree, ordered_map({t: c}))
        if piece.free:
            raise ArithmeticError(
                f"image of torsion class {t} has free terms {piece.free}; "
                "its class would not have order 2")
        for u, w in piece.torsion.items():
            torsion[u] = torsion.get(u, 0) + w
    return AltChain(degree, image.free, torsion)


def boundary(chain: AltChain) -> AltChain:
    """Boundary in the quotient: the ordered boundary, descended."""
    if chain.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    return descend(ordered_boundary, chain, chain.degree - 1)


def face_class_compat(g: tuple, s: "permutations.Permutation", i: int) -> bool:
    """Does reordering a face keep its class, up to the permutation's sign?

    Checks [act(s, face(g, i))] == sign(s) * [face(g, i)] as canonical
    classes, the condition that makes restriction to faces well defined on
    the quotient.
    """
    f = face(g, i)
    lhs = AltChain.from_generator(permutations.act(s, f))
    rhs = AltChain.from_generator(f, s.sign)
    return lhs == rhs


@dataclass(frozen=True)
class AltComplexPresentation:
    """Finite presentation of the quotient complex up to a degree cap.

    Per degree: the free generators (strictly increasing tuples), the
    torsion generators (sorted tuples with a repeat) and the lifted
    boundary matrix on the combined generator list (free block first),
    one sparse :class:`IntegerMatrix` per degree; degree 0 maps to the
    zero group, 0 x g_0.  The relations are 2*e_t for each torsion
    generator t, so the torsion lists determine them and they are not
    stored.
    """

    complex: SimplicialComplex
    max_degree: int
    free_generators: tuple
    torsion_generators: tuple
    matrices: tuple = field(repr=False)

    def generator_count(self, n: int) -> int:
        return len(self.free_generators[n]) + len(self.torsion_generators[n])

    def boundary_matrix(self, n: int) -> IntegerMatrix:
        """The lifted boundary C_n -> C_{n-1}."""
        return self.matrices[n]

    @property
    def boundaries(self) -> tuple:
        """The lifted boundaries as dense nested lists, ``[]`` at degree 0.

        Read-only and rebuilt on every read; only the benchmark harness
        under ``perfbench/`` reads presentations this way.
        """
        return tuple(M.to_dense() for M in self.matrices)


def alt_chain_complex(K: SimplicialComplex, max_degree: int,
                      budget: int = 200_000) -> AltComplexPresentation:
    """Build the presented quotient complex for degrees 0..max_degree.

    A d-simplex gives C(n, d) sorted degree-n tuples that use all its
    vertices (the free generator when d = n), so the generator count is
    checked against ``budget`` before any list is built.  The sorted
    tuples of degree n extend those of degree n-1 by each coface vertex
    not below their last entry, in lexicographic order; the strictly
    increasing ones are the free generators, the rest the torsion ones.
    Every face of a sorted tuple is a sorted tuple, so the lifted boundary
    is the ordered face sum (:func:`face_matrix`) with each torsion row
    entry read mod 2.  The two faces that drop one copy of a repeated
    entry cancel there, so no entry joins a free and a torsion generator.
    """
    f = K.f_vector()
    check_generator_budget(
        (sum(how_many * comb(n, d) for d, how_many in enumerate(f))
         for n in range(max_degree + 1)), budget)
    free_gens = []
    torsion_gens = []
    matrices = []
    level = K.simplices_of_dim(0)
    for n in range(max_degree + 1):
        if n:
            level = [g + (v,) for g in level
                     for v in K.coface_vertices[frozenset(g)] if v >= g[-1]]
        free = tuple(t for t in level if len(set(t)) == n + 1)
        columns = free + tuple(t for t in level if len(set(t)) <= n)
        if n:
            M = face_matrix(columns, row_of)
            free_rows = len(free_gens[-1])
            M = IntegerMatrix(M.rows, M.cols, {
                (r, c): v if r < free_rows else 1
                for (r, c), v in M.entries.items() if r < free_rows or v % 2})
        else:
            M = IntegerMatrix(0, len(columns), {})
        row_of = {t: i for i, t in enumerate(columns)}
        free_gens.append(free)
        torsion_gens.append(columns[len(free):])
        matrices.append(M)
    return AltComplexPresentation(
        complex=K, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        matrices=tuple(matrices))


def presentation_to_json(pres: AltComplexPresentation) -> dict:
    """Serialize the generator lists and the lifted boundary matrices.

    Matrices are written as dimensions with row-major entries as decimal
    strings, the shared exact-matrix interchange format.  The relations,
    2*e_t on each torsion generator t, follow from the torsion lists and
    are not written.
    """
    return {
        "format_version": PRESENTATION_FORMAT_VERSION,
        "max_degree": pres.max_degree,
        "degrees": [{"degree": n,
                     "free": [list(t) for t in pres.free_generators[n]],
                     "torsion": [list(t) for t in pres.torsion_generators[n]]}
                    for n in range(pres.max_degree + 1)],
        "boundaries": {str(n): matrix_to_json(pres.boundary_matrix(n))
                       for n in range(1, pres.max_degree + 1)},
    }


_PRESENTATION_FIELDS = {"format_version", "max_degree", "degrees", "boundaries"}
_DEGREE_FIELDS = {"degree", "free", "torsion"}


def _generators(items, n: int, torsion: bool) -> tuple:
    """Degree-n generators from JSON: lists of n+1 integers, strictly
    increasing when free, sorted with a repeated entry when torsion."""
    if not isinstance(items, list):
        raise FormatError(f"degree {n} generators are not a list")
    for g in items:
        if not (isinstance(g, list) and len(g) == n + 1
                and all(type(v) is int for v in g)):
            raise FormatError(f"degree {n} generator {g!r} is not a list of "
                              f"{n + 1} integers")
        pairs = list(zip(g, g[1:]))
        if any(a > b for a, b in pairs) or torsion != any(a == b for a, b in pairs):
            kind = "sorted with a repeat" if torsion else "strictly increasing"
            raise FormatError(f"degree {n} generator {g} is not {kind}")
    return tuple(tuple(g) for g in items)


def presentation_from_json(data: dict) -> AltComplexPresentation:
    """Rebuild a presentation from its serialized form (complex not kept).

    Degree n lists its free generators (strictly increasing) and torsion
    generators (sorted with a repeat), n+1 integers each.  Boundary n must
    be g_{n-1} x g_n with no entry joining a free and a torsion generator.
    Format version 2 is what :func:`presentation_to_json` writes.  Version
    1 also carries ``relations``, which must be 2*e_t on the torsion
    generators; they are checked and dropped.
    """
    if not isinstance(data, dict):
        raise FormatError("presentation must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version not in (1, PRESENTATION_FORMAT_VERSION):
        raise FormatError(f"unsupported format_version {version!r}")
    fields = _PRESENTATION_FIELDS | ({"relations"} if version == 1 else set())
    unknown = sorted(set(data) - fields)
    if unknown:
        raise FormatError(f"unknown presentation fields {unknown}")
    try:
        max_degree = data["max_degree"]
        if type(max_degree) is not int:
            raise FormatError(f"max_degree {max_degree!r} is not an integer")
        degrees = data["degrees"]
        if max_degree < 0 or not isinstance(degrees, list) or len(degrees) != max_degree + 1:
            raise FormatError("degree list does not match max_degree")
        for n, d in enumerate(degrees):
            if not (isinstance(d, dict) and set(d) == _DEGREE_FIELDS
                    and type(d["degree"]) is int and d["degree"] == n):
                raise FormatError(f"degree object {n} needs exactly the keys "
                                  f"degree (= {n}), free and torsion")
        free_gens = [_generators(d["free"], n, False) for n, d in enumerate(degrees)]
        torsion_gens = [_generators(d["torsion"], n, True) for n, d in enumerate(degrees)]
        free = [len(f) for f in free_gens]
        counts = [len(f) + len(t) for f, t in zip(free_gens, torsion_gens)]
        if version == 1:
            for n in range(max_degree + 1):
                rel = matrix_from_json(data["relations"][str(n)])
                t = len(torsion_gens[n])
                if (rel.rows, rel.cols) != (counts[n], t) or \
                        rel.entries != {(free[n] + j, j): 2 for j in range(t)}:
                    raise FormatError(f"relations {n} are not 2*e_t on the "
                                      "torsion generators")
        matrices = [IntegerMatrix(0, counts[0], {})]
        for n in range(1, max_degree + 1):
            M = matrix_from_json(data["boundaries"][str(n)])
            if (M.rows, M.cols) != (counts[n - 1], counts[n]):
                raise FormatError(f"boundary {n} is {M.rows}x{M.cols}, "
                                  f"expected {counts[n - 1]}x{counts[n]}")
            if free_torsion_crossing(M.entries, free[n - 1], free[n]) is not None:
                raise FormatError(f"boundary {n} joins a free and a torsion generator")
            matrices.append(M)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed presentation: {exc}") from exc
    return AltComplexPresentation(
        complex=None, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        matrices=tuple(matrices))
