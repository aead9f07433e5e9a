"""The chain quotient that identifies a reordered generator with its sign.

Under the relations  reorder(s, g) = sign(s) * g  every degree-n chain
group splits into a free part, one Z summand per strictly increasing
tuple, and a torsion part, one Z/2 summand per sorted tuple containing a
repeat (a repeated tuple is fixed by the odd swap of its equal entries,
so twice its class is zero).  The relation subgroup is never materialized:
:func:`canonicalize` rewrites any generator into its canonical class and
everything else works with those classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import permutations
from .complex_model import SimplicialComplex, face
from .errors import BudgetExceededError, FormatError

PRESENTATION_FORMAT_VERSION = 1


def sorting_sign(t: tuple) -> int:
    """Parity of the permutation that sorts ``t`` (entries must be distinct)."""
    inv = 0
    for a in range(len(t)):
        for b in range(a + 1, len(t)):
            if t[a] > t[b]:
                inv += 1
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class AltChainClass:
    """Canonical coset of a generator: a sorted tuple plus its coefficient ring.

    Free classes (strictly increasing tuple) carry integer coefficients;
    torsion classes (some repeated entry) carry mod-2 coefficients.
    """

    canonical_tuple: tuple
    is_torsion: bool

    @property
    def degree(self) -> int:
        return len(self.canonical_tuple) - 1


def canonicalize(g: tuple) -> tuple:
    """Rewrite a generator as (class, coefficient).

    Distinct entries: (sorted tuple, sign of the sorting permutation).
    Repeated entries: (sorted tuple, 1) with the class marked torsion.
    """
    srt = tuple(sorted(g))
    for a in range(len(srt) - 1):
        if srt[a] == srt[a + 1]:
            return AltChainClass(srt, True), 1
    return AltChainClass(srt, False), sorting_sign(g)


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
        out = cls(degree)
        for g, c in coefficients.items():
            out._add_generator(g, c)
        out._prune()
        return out

    @classmethod
    def from_generator(cls, g: tuple, coefficient: int = 1) -> "AltChain":
        return cls.from_ordered(len(g) - 1, {g: coefficient})

    def _add_generator(self, g: tuple, c: int) -> None:
        cls, coeff = canonicalize(g)
        t = cls.canonical_tuple
        if cls.is_torsion:
            self.torsion[t] = self.torsion.get(t, 0) + c
        else:
            self.free[t] = self.free.get(t, 0) + coeff * c

    def _prune(self) -> None:
        self.free = {t: c for t, c in self.free.items() if c}
        self.torsion = {t: c % 2 for t, c in self.torsion.items() if c % 2}

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


def boundary(chain: AltChain) -> AltChain:
    """Boundary in the quotient, computed on canonical representatives.

    The boundary of a torsion class must stay torsion: its free-part face
    terms cancel in the (i, s(i)) pairs coming from the odd symmetry.  A
    nonzero free remainder would contradict the class having order 2, so
    it raises instead of being returned.
    """
    if chain.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    out = AltChain(chain.degree - 1)
    for t, c in chain.free.items():
        for i in range(len(t)):
            out._add_generator(face(t, i), ((-1) ** i) * c)
    pending_free: dict = {}
    for t, c in chain.torsion.items():
        for i in range(len(t)):
            f = face(t, i)
            cls, coeff = canonicalize(f)
            if cls.is_torsion:
                out.torsion[cls.canonical_tuple] = (
                    out.torsion.get(cls.canonical_tuple, 0) + c)
            else:
                key = cls.canonical_tuple
                pending_free[key] = pending_free.get(key, 0) + ((-1) ** i) * coeff * c
    bad = {t: c for t, c in pending_free.items() if c}
    if bad:
        raise ArithmeticError(
            f"boundary of a torsion class produced free terms {bad}; "
            "its class would not have order 2")
    out._prune()
    return out


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
    torsion generators (sorted tuples with a repeat), the lifted boundary
    matrix on the combined generator list (free block first), and the
    relation columns 2*e_t for each torsion generator t.
    """

    complex: SimplicialComplex
    max_degree: int
    free_generators: tuple
    torsion_generators: tuple
    boundaries: tuple = field(repr=False)

    def generator_count(self, n: int) -> int:
        return len(self.free_generators[n]) + len(self.torsion_generators[n])

    def boundary_matrix(self, n: int) -> list:
        """Dense integer matrix of the lifted boundary C_n -> C_{n-1}."""
        return [row[:] for row in self.boundaries[n]]

    def relation_matrix(self, n: int) -> list:
        """Columns generating the relation subgroup: 2x each torsion generator."""
        rows = self.generator_count(n)
        t = len(self.torsion_generators[n])
        f = len(self.free_generators[n])
        mat = [[0] * t for _ in range(rows)]
        for j in range(t):
            mat[f + j][j] = 2
        return mat


def _sorted_tuples_with_repeats(K: SimplicialComplex, n: int) -> list:
    out = []
    for s in K.simplex_set:
        members = sorted(s)
        # support smaller than the tuple length forces a repeated entry;
        # support of size exactly n+1 gives the strictly increasing free
        # generator instead
        if len(members) > n:
            continue
        full = frozenset(members)
        for t in itertools.combinations_with_replacement(members, n + 1):
            if frozenset(t) == full:
                out.append(t)
    out.sort()
    return out


def alt_chain_complex(K: SimplicialComplex, max_degree: int,
                      budget: int = 200_000) -> AltComplexPresentation:
    """Build the presented quotient complex for degrees 0..max_degree."""
    free_gens = []
    torsion_gens = []
    for n in range(max_degree + 1):
        free_gens.append(tuple(K.simplices_of_dim(n)))
        torsion_gens.append(tuple(_sorted_tuples_with_repeats(K, n)))
    total = sum(len(f) + len(t) for f, t in zip(free_gens, torsion_gens))
    if total > budget:
        raise BudgetExceededError(total, budget)

    boundaries = [[]]  # degree 0 has no boundary matrix
    for n in range(1, max_degree + 1):
        col_gens = list(free_gens[n]) + list(torsion_gens[n])
        row_pos = {t: i for i, t in enumerate(free_gens[n - 1])}
        offset = len(free_gens[n - 1])
        for i, t in enumerate(torsion_gens[n - 1]):
            row_pos[t] = offset + i
        rows = len(row_pos)
        mat = [[0] * len(col_gens) for _ in range(rows)]
        for j, g in enumerate(col_gens):
            image = boundary(AltChain.from_generator(g))
            for t, c in image.free.items():
                mat[row_pos[t]][j] += c
            for t, c in image.torsion.items():
                mat[row_pos[t]][j] += c
        boundaries.append(mat)
    return AltComplexPresentation(
        complex=K, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        boundaries=tuple(boundaries))


def presentation_to_json(pres: AltComplexPresentation) -> dict:
    """Serialize generator lists plus boundary and relation matrices.

    Matrices are written as dimensions with row-major entries as decimal
    strings, the shared exact-matrix interchange format.
    """
    from .integer_homology import IntegerMatrix, matrix_to_json

    degrees = []
    for n in range(pres.max_degree + 1):
        degrees.append({
            "degree": n,
            "free": [list(t) for t in pres.free_generators[n]],
            "torsion": [list(t) for t in pres.torsion_generators[n]],
        })
    boundaries = {}
    relations = {}
    for n in range(pres.max_degree + 1):
        if n >= 1:
            dense = pres.boundary_matrix(n)
            entries = {(r, c): v for r, row in enumerate(dense)
                       for c, v in enumerate(row) if v}
            boundaries[str(n)] = matrix_to_json(IntegerMatrix(
                pres.generator_count(n - 1), pres.generator_count(n), entries))
        rel = pres.relation_matrix(n)
        t = len(pres.torsion_generators[n])
        rel_entries = {(r, c): v for r, row in enumerate(rel)
                       for c, v in enumerate(row) if v}
        relations[str(n)] = matrix_to_json(IntegerMatrix(
            pres.generator_count(n), t, rel_entries))
    return {
        "format_version": PRESENTATION_FORMAT_VERSION,
        "max_degree": pres.max_degree,
        "degrees": degrees,
        "boundaries": boundaries,
        "relations": relations,
    }


_PRESENTATION_FIELDS = {"format_version", "max_degree", "degrees", "boundaries",
                        "relations"}


def presentation_from_json(data: dict) -> AltComplexPresentation:
    """Rebuild a presentation from its serialized form (complex not kept).

    Boundary n must be g_{n-1} x g_n with no entry joining a free and a
    torsion generator, and relations n must be 2*e_t on the torsion
    generators, as :func:`presentation_to_json` writes them.
    """
    from .integer_homology import free_torsion_crossing, matrix_from_json

    if not isinstance(data, dict):
        raise FormatError("presentation must be a JSON object")
    unknown = sorted(set(data) - _PRESENTATION_FIELDS)
    if unknown:
        raise FormatError(f"unknown presentation fields {unknown}")
    if data.get("format_version") != PRESENTATION_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    try:
        max_degree = data["max_degree"]
        if type(max_degree) is not int:
            raise FormatError(f"max_degree {max_degree!r} is not an integer")
        degrees = data["degrees"]
        free_gens = [tuple(tuple(t) for t in d["free"]) for d in degrees]
        torsion_gens = [tuple(tuple(t) for t in d["torsion"]) for d in degrees]
        if max_degree < 0 or len(free_gens) != max_degree + 1:
            raise FormatError("degree list does not match max_degree")
        free = [len(f) for f in free_gens]
        counts = [len(f) + len(t) for f, t in zip(free_gens, torsion_gens)]
        boundaries = [[]]
        for n in range(max_degree + 1):
            rel = matrix_from_json(data["relations"][str(n)])
            t = len(torsion_gens[n])
            if (rel.rows, rel.cols) != (counts[n], t) or \
                    rel.entries != {(free[n] + j, j): 2 for j in range(t)}:
                raise FormatError(f"relations {n} are not 2*e_t on the torsion generators")
            if n == 0:
                continue
            M = matrix_from_json(data["boundaries"][str(n)])
            if (M.rows, M.cols) != (counts[n - 1], counts[n]):
                raise FormatError(f"boundary {n} is {M.rows}x{M.cols}, "
                                  f"expected {counts[n - 1]}x{counts[n]}")
            if free_torsion_crossing(M.entries, free[n - 1], free[n]) is not None:
                raise FormatError(f"boundary {n} joins a free and a torsion generator")
            boundaries.append(M.to_dense())
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed presentation: {exc}") from exc
    return AltComplexPresentation(
        complex=None, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        boundaries=tuple(boundaries))
