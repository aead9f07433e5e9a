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
on sorted tuples, kept as one face column per generator, with the
torsion rows read mod 2.

A chain map on ordered chains that commutes with reordering descends to
the quotient (:func:`descend`): apply it to the canonical representatives
and project the image.  The image of a torsion generator must then
project to torsion only, since the class has order 2.  The boundary here,
and the induced map and the prism of :mod:`altchain.homotopy_prism`, are
descended this way from their ordered forms.
"""

from __future__ import annotations

import re
from math import comb

from . import permutations
from .complex_model import (DEFAULT_GENERATOR_BUDGET, SimplicialComplex,
                            check_generator_budget)
from .errors import FormatError, Record
from .integer_homology import _face_row, product_entries

PRESENTATION_FORMAT_VERSION = 2
_MATRIX_FORMAT_VERSION = 2
_DECIMAL = re.compile(r"-?[0-9]+")


def canonicalize(g: tuple) -> tuple:
    """Rewrite a generator as (sorted tuple, is_torsion, sign).

    Distinct entries give a free class (integer coefficients) and the sign
    of the sorting permutation; a repeated entry gives a torsion class
    (mod-2 coefficients) and sign 1.  Read from the per-process table
    ``permutations._signed_classes`` of at most 2**16 tuples.
    """
    key, sign = permutations._signed_classes[g]
    return key, not sign, sign or 1


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
    def _unchecked(cls, degree: int, free: dict, torsion: dict) -> "AltChain":
        self = object.__new__(cls)  # nonzero free entries, torsion entries 1
        self.degree, self.free, self.torsion = degree, free, torsion
        return self

    @classmethod
    def from_ordered(cls, degree: int, coefficients) -> "AltChain":
        """Project an ordered chain {tuple: int} into the quotient."""
        free: dict = {}
        torsion: dict = {}
        for g, c in coefficients.items():
            t, is_torsion, sign = canonicalize(g)
            if not is_torsion:
                free[t] = free.get(t, 0) + sign * c
            elif c % 2 and not torsion.pop(t, 0):  # a sum mod 2
                torsion[t] = 1
        return cls._unchecked(degree, {t: c for t, c in free.items() if c}, torsion)

    @classmethod
    def from_generator(cls, g: tuple) -> "AltChain":
        return cls.from_ordered(len(g) - 1, {g: 1})

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
        return AltChain._unchecked(self.degree, {t: -c for t, c in self.free.items()},
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
        if len(g) < 2:
            raise ValueError("degree 0 generators have no faces")
        signed = (c, -c)
        for i in range(len(g)):
            f = g[:i] + g[i + 1:]
            out[f] = out.get(f, 0) + signed[i & 1]
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
    for t, c in chain.torsion.items():
        piece = AltChain.from_ordered(degree, ordered_map({t: c}))
        if piece.free:
            raise ArithmeticError(
                f"image of torsion class {t} has free terms {piece.free}; "
                "its class would not have order 2")
        for u in piece.torsion:  # into the new image, mod 2
            if not image.torsion.pop(u, 0):
                image.torsion[u] = 1
    return image


def boundary(chain: AltChain) -> AltChain:
    """Boundary in the quotient: the ordered boundary, descended."""
    if chain.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    return descend(ordered_boundary, chain, chain.degree - 1)


def face_class_compat(f: tuple, images: tuple) -> bool:
    """Does reordering a face keep its class, up to the reordering's sign?

    With h = tuple(f[j] for j in images), checks [h] == sign(images) * [f]
    on the canonical forms: the same sorted tuple and torsion flag, and
    sign(h) = sign(images) * sign(f) for a free class; this makes
    restriction to faces well defined on the quotient.
    """
    t, torsion, sign = canonicalize(tuple([f[j] for j in images]))
    u, f_torsion, f_sign = canonicalize(f)
    return t == u and torsion == f_torsion and (
        torsion or sign == permutations._signed_classes[images][1] * f_sign)


class AltComplexPresentation(Record):
    """Finite presentation of the quotient complex up to a degree cap.

    Per degree n: the free generators (strictly increasing tuples), the
    torsion generators (sorted tuples with a repeat) and the lifted
    boundary d_n as its face columns, one ``{row: nonzero}`` per
    generator of the combined list (free block first), the rows numbered
    the same way one degree down; degree 0 maps to the zero group, so its
    columns are empty.  The relations are 2*e_t for each torsion
    generator t, so the torsion lists determine them and they are not
    stored.
    """

    complex: SimplicialComplex
    max_degree: int
    free_generators: tuple
    torsion_generators: tuple
    columns: tuple
    _unshown = ("columns",)

    def generator_count(self, n: int) -> int:
        return len(self.free_generators[n]) + len(self.torsion_generators[n])

    @property
    def boundaries(self) -> tuple:
        """The lifted boundaries as dense nested lists, ``[]`` at degree 0.

        Read-only and rebuilt on every read; only demo 03 and the
        benchmark harness under ``perfbench/`` read presentations this way.
        """
        dense = [[]]
        for n in range(1, self.max_degree + 1):
            rows = [[0] * self.generator_count(n) for _ in range(self.generator_count(n - 1))]
            for c, column in enumerate(self.columns[n]):
                for r, v in column.items():
                    rows[r][c] = v
            dense.append(rows)
        return tuple(dense)


def alt_chain_complex(K: SimplicialComplex, max_degree: int,
                      budget: int = DEFAULT_GENERATOR_BUDGET) -> AltComplexPresentation:
    """Build the presented quotient complex for degrees 0..max_degree.

    A d-simplex gives C(n, d) sorted degree-n tuples that use all its
    vertices (the free generator when d = n), so the generator count is
    checked against ``budget`` before any list is built.  The sorted
    tuples of degree n extend those of degree n-1 by each coface vertex
    not below their last entry, in lexicographic order; the strictly
    increasing ones are the free generators, the rest the torsion ones.
    Every face of a sorted tuple is a sorted tuple, so the face column of
    a generator is its ordered face sum as it comes from the face loop,
    with each torsion entry read mod 2, as 1.  The two faces that drop one
    copy of a repeated entry cancel there, so no entry joins a free and a
    torsion generator.
    """
    f = K.f_vector()
    check_generator_budget(
        (sum(how_many * comb(n, d) for d, how_many in enumerate(f))
         for n in range(max_degree + 1)), budget)
    free_gens = []
    torsion_gens = []
    columns = []
    level = K.simplices_of_dim(0)
    for n in range(max_degree + 1):
        if n:
            level = [g + (v,) for g in level
                     for v in K.coface_vertices[frozenset(g)] if v >= g[-1]]
        free = tuple(t for t in level if len(set(t)) == n + 1)
        torsion = tuple(t for t in level if len(set(t)) <= n)
        if n:
            columns.append([_face_row(t, row_of) for t in free]
                           + [dict.fromkeys(_face_row(t, row_of), 1) for t in torsion])
        else:
            columns.append([{} for _ in free])
        row_of = {t: i for i, t in enumerate(free + torsion)}
        free_gens.append(free)
        torsion_gens.append(torsion)
    return AltComplexPresentation(
        complex=K, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        columns=tuple(columns))


def presented_law_violation(pres: AltComplexPresentation, n: int):
    """``None``, or ``(reason, entry)`` for the first entry that breaks the
    law of a presented complex at degree n, 1 <= n <= max_degree: no entry
    of the lifted boundary d_n, nor of d_{n+1} when n < max_degree, joins
    a free and a torsion generator, and d_n d_{n+1} is zero on the free
    rows and even on the torsion rows (zero modulo the relations 2*e_t).
    ``entry`` is ``{"degree", "row", "col", "value"}``: an entry of
    d_degree, or of the composite at degree n.
    """
    free = [len(f) for f in pres.free_generators]
    for m in range(n, min(n + 1, pres.max_degree) + 1):
        for c, column in enumerate(pres.columns[m]):
            for r, v in column.items():
                if (r < free[m - 1]) != (c < free[m]):
                    return (f"boundary {m} joins a free and a torsion generator",
                            {"degree": m, "row": r, "col": c, "value": v})
    if n < pres.max_degree:
        for r, c, v in product_entries(pres.columns[n], pres.columns[n + 1]):
            if r < free[n - 1] or v % 2:
                return (f"boundaries {n} and {n + 1} do not compose to zero "
                        "modulo 2*e_t", {"degree": n, "row": r, "col": c, "value": v})
    return None


def presentation_to_json(pres: AltComplexPresentation) -> dict:
    """Serialize the generator lists and the lifted boundaries.

    Each boundary is written in matrix format 2: its dimensions and its
    nonzero entries as ``[row, col, "value"]`` triples in row-major order.
    The relations, 2*e_t on each torsion generator t, follow from the
    torsion lists and are not written.
    """
    return {
        "format_version": PRESENTATION_FORMAT_VERSION,
        "max_degree": pres.max_degree,
        "degrees": [{"degree": n,
                     "free": [list(t) for t in pres.free_generators[n]],
                     "torsion": [list(t) for t in pres.torsion_generators[n]]}
                    for n in range(pres.max_degree + 1)],
        "boundaries": {str(n): {
            "format_version": _MATRIX_FORMAT_VERSION,
            "rows": pres.generator_count(n - 1),
            "cols": pres.generator_count(n),
            "entries": [[r, c, str(v)] for r, c, v in sorted(
                (r, c, v) for c, column in enumerate(pres.columns[n])
                for r, v in column.items())],
        } for n in range(1, pres.max_degree + 1)},
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


def _columns_from_json(data, n: int, shape: tuple) -> list:
    """Boundary n read from matrix format 2, which must be a
    ``shape[0] x shape[1]`` matrix with its nonzero entries as
    ``[row, col, "value"]`` triples, no cell twice; as face columns."""
    if not isinstance(data, dict):
        raise FormatError(f"boundary {n} must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != _MATRIX_FORMAT_VERSION:
        raise FormatError(f"unsupported matrix format_version {version!r}")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise FormatError(f"matrix object missing '{key}'")
    rows, cols = data["rows"], data["cols"]
    for dim in (rows, cols):
        if type(dim) is not int or dim < 0:
            raise FormatError(f"matrix dimension {dim!r} is not a nonnegative integer")
    if (rows, cols) != shape:
        raise FormatError(f"boundary {n} is {rows}x{cols}, expected {shape[0]}x{shape[1]}")
    triples = data["entries"]
    if not isinstance(triples, list):
        raise FormatError("matrix entries are not a list")
    columns = [{} for _ in range(cols)]
    for t in triples:
        if not (isinstance(t, list) and len(t) == 3
                and type(t[0]) is int and 0 <= t[0] < rows
                and type(t[1]) is int and 0 <= t[1] < cols):
            raise FormatError(f"bad matrix triple {t!r}")
        r, c, s = t
        if not (type(s) is int or isinstance(s, str) and _DECIMAL.fullmatch(s)):
            raise FormatError(f"bad matrix entry {s!r}")
        v = int(s)
        if r in columns[c] or not v:
            raise FormatError(f"matrix triple {t!r} is zero or repeats a cell")
        columns[c][r] = v
    return columns


def presentation_from_json(data: dict) -> AltComplexPresentation:
    """Rebuild a presentation from what :func:`presentation_to_json` writes
    (format version 2; the complex is not kept).

    Degree n lists its free generators (strictly increasing) and torsion
    generators (sorted with a repeat), n+1 integers each.  Boundary n must
    be a g_{n-1} x g_n matrix in format 2, and the boundaries must obey the
    law of a presented complex (:func:`presented_law_violation`), which
    the homology computation takes for granted.
    """
    if not isinstance(data, dict):
        raise FormatError("presentation must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != PRESENTATION_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    unknown = sorted(set(data) - _PRESENTATION_FIELDS)
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
        counts = [len(f) + len(t) for f, t in zip(free_gens, torsion_gens)]
        columns = [[{} for _ in range(counts[0])]]
        for n in range(1, max_degree + 1):
            columns.append(_columns_from_json(data["boundaries"][str(n)], n,
                                              (counts[n - 1], counts[n])))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed presentation: {exc}") from exc
    pres = AltComplexPresentation(
        complex=None, max_degree=max_degree,
        free_generators=tuple(free_gens), torsion_generators=tuple(torsion_gens),
        columns=tuple(columns))
    for n in range(1, max_degree + 1):
        violation = presented_law_violation(pres, n)
        if violation:
            raise FormatError("%s: %s" % violation)
    return pres
