"""Exact integer and rational linear algebra for homology computation.

Everything here is arbitrary-precision.  Integer diagonalization has two
phases, after Dumas, Saunders & Villard (J. Symb. Comput. 2001): sparse
elimination removes every pivot it can take on a +-1 entry, which needs
no division, and the leftover core, if any, goes to a dense Smith normal
form by classical row/column reduction with minimal-absolute-value
pivoting.  On top of that sit the homology of free chain complexes and of
complexes whose torsion generators have order 2.  The latter reads the
lifted boundary as a free block, handled as a free chain complex, and a
torsion block, whose rank mod 2 adds the Z/2 summands.

Matrix conventions: a boundary matrix for degree n has one column per
degree-n generator and one row per degree-(n-1) generator; composition
"later degree after earlier" is the matrix product of the two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Sequence

from .complex_model import GeneratorIndex, SimplicialComplex
from .errors import FormatError

MATRIX_FORMAT_VERSION = 1
_DECIMAL = re.compile(r"-?[0-9]+")


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse exact integer matrix: only nonzero entries are stored."""

    rows: int
    cols: int
    entries: dict = field(repr=False)  # (row, col) -> nonzero int

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "IntegerMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = int(v)
        return cls(rows, cols, entries)

    def to_dense(self) -> list:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             {(c, r): v for (r, c), v in self.entries.items()})

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                acc[key] = acc.get(key, 0) + v * w
        return IntegerMatrix(self.rows, other.cols,
                             {k: v for k, v in acc.items() if v})

    def is_zero(self) -> bool:
        return not self.entries


def matrix_to_json(M: IntegerMatrix) -> dict:
    """Serialize as dimensions plus row-major entries as decimal strings."""
    flat = ["0"] * (M.rows * M.cols)
    for (r, c), v in M.entries.items():
        flat[r * M.cols + c] = str(v)
    return {
        "format_version": MATRIX_FORMAT_VERSION,
        "rows": M.rows,
        "cols": M.cols,
        "entries": flat,
    }


def matrix_from_json(data: dict) -> IntegerMatrix:
    if not isinstance(data, dict):
        raise FormatError("matrix must be a JSON object")
    version = data.get("format_version")
    if type(version) is not int or version != MATRIX_FORMAT_VERSION:
        raise FormatError(f"unsupported matrix format_version {version!r}")
    for key in ("rows", "cols", "entries"):
        if key not in data:
            raise FormatError(f"matrix object missing '{key}'")
    rows, cols = data["rows"], data["cols"]
    for dim in (rows, cols):
        if type(dim) is not int or dim < 0:
            raise FormatError(f"matrix dimension {dim!r} is not a nonnegative integer")
    flat = data["entries"]
    if not isinstance(flat, list) or len(flat) != rows * cols:
        raise FormatError("matrix entry count does not match dimensions")
    entries = {}
    for k, s in enumerate(flat):
        if type(s) is int:
            v = s
        elif isinstance(s, str) and _DECIMAL.fullmatch(s):
            v = int(s)
        else:
            raise FormatError(f"bad matrix entry {s!r}")
        if v:
            entries[(k // cols, k % cols)] = v
    return IntegerMatrix(rows, cols, entries)


# ---------------------------------------------------------------------------
# Smith normal form (dense)

def _nearest_quotient(a: int, d: int) -> int:
    # quotient minimizing |a - q*d|; keeps reduction residues at half the
    # pivot and avoids the coefficient blowup of plain floor division
    q = a // d
    r = a - q * d
    if 2 * abs(r) > abs(d):
        q += 1  # the floor remainder shares d's sign, so +1 always shrinks
    return q


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple:
    """Invariant factors d_1 | d_2 | ... (all positive) of a dense integer
    matrix, by elementary row/column operations.

    Pivots are chosen with minimal absolute value and reduced with
    round-to-nearest quotients, so each clearing pass at least halves the
    pivot; the divisibility chain is enforced during the sweep and the
    diagonal comes out canonical.
    """
    D = [list(map(int, row)) for row in rows]
    m = len(D)
    n = len(D[0]) if m else 0

    def swap_rows(a, b):
        D[a], D[b] = D[b], D[a]

    def swap_cols(a, b):
        if a == b:
            return
        for row in D:
            row[a], row[b] = row[b], row[a]

    def row_add(dst, src, k):
        # D[dst] += k * D[src]
        Dd, Ds = D[dst], D[src]
        for j in range(n):
            if Ds[j]:
                Dd[j] += k * Ds[j]

    def col_add(dst, src, k):
        # D[:,dst] += k * D[:,src]
        for row in D:
            if row[src]:
                row[dst] += k * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = None
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            # one reduction pass: every residue ends at most half the pivot
            for i in range(t + 1, m):
                if D[i][t]:
                    q = _nearest_quotient(D[i][t], D[t][t])
                    if q:
                        row_add(i, t, -q)
            for j in range(t + 1, n):
                if D[t][j]:
                    q = _nearest_quotient(D[t][j], D[t][t])
                    if q:
                        col_add(j, t, -q)
            residue = None
            for i in range(t + 1, m):
                if D[i][t] and (residue is None or abs(D[i][t]) < residue[0]):
                    residue = (abs(D[i][t]), "row", i)
            for j in range(t + 1, n):
                if D[t][j] and (residue is None or abs(D[t][j]) < residue[0]):
                    residue = (abs(D[t][j]), "col", j)
            if residue is None:
                break
            if residue[1] == "row":
                swap_rows(t, residue[2])
            else:
                swap_cols(t, residue[2])

        # make the pivot divide the rest of the submatrix before moving on
        d = D[t][t]
        offender = None
        for i in range(t + 1, m):
            row = D[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        if d < 0:
            D[t] = [-v for v in D[t]]
        t += 1

    return tuple(D[i][i] for i in range(t))


# ---------------------------------------------------------------------------
# sparse diagonalization (unit pivots, then the dense core)

def sparse_diagonalize(M: IntegerMatrix) -> list:
    """Diagonal entries of a diagonalization of M: the unit pivots of the
    sparse phase in pivot order, then the invariant factors of the core.

    Elementary integer row and column operations only, so the multiset of
    entries determines the invariant factors (``canonical_invariant_factors``).
    The sparse phase pivots only on +-1 entries, so clearing a column is
    exact (q = a * pivot), and with the column cleared the pivot row's other
    entries could be swept by column operations that touch nothing else;
    the pivot row and column are simply dropped.  Each entry left over is a
    minor of M, since the pivot block has determinant +-1.

    Pivot rule: the live column with the fewest entries, ties to the lowest
    index; in it, the +-1 row with the fewest entries, ties to the lowest
    index.  Columns sit in a lazy min-heap keyed by (entry count, index): a
    step re-pushes the columns of the pivot row, the only ones whose entries
    it changes, and a popped key that no longer matches its column's count
    is skipped.  A popped column with no +-1 entry is parked: it returns to
    the heap only when a later step changes one of its entries.  When the
    heap is empty, the rows left form the core, which goes to
    ``smith_normal_form``; boundary and coboundary matrices of tuple
    complexes usually leave none.
    """
    rows: dict = {}
    cols: dict = {}
    for (r, c), v in M.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, set()).add(r)
    heap = [(len(rs), c) for c, rs in cols.items()]
    heapify(heap)
    diag = []
    while heap:
        count, pc = heappop(heap)
        if pc not in cols or len(cols[pc]) != count:
            continue
        units = [r for r in cols[pc] if rows[r][pc] in (1, -1)]
        if not units:
            continue
        pr = min(units, key=lambda r: (len(rows[r]), r))
        prow = rows.pop(pr)
        pv = prow.pop(pc)
        for r in cols.pop(pc):
            if r == pr:
                continue
            rrow = rows[r]
            q = rrow.pop(pc) * pv
            for c, v in prow.items():
                nv = rrow.get(c, 0) - q * v
                if nv:
                    rrow[c] = nv
                    cols[c].add(r)
                else:
                    del rrow[c]
                    cols[c].discard(r)
            if not rrow:
                del rows[r]
        for c in prow:
            cols[c].discard(pr)
            if cols[c]:
                heappush(heap, (len(cols[c]), c))
            else:
                del cols[c]
        diag.append(pv)
    if rows:
        core_cols = sorted(cols)
        core = [[rows[r].get(c, 0) for c in core_cols] for r in sorted(rows)]
        diag.extend(smith_normal_form(core))
    return diag


def canonical_invariant_factors(diagonal) -> tuple:
    """Divisibility chain determined by any unimodular diagonalization.

    Units divide everything, so only the entries above 1 go through the
    gcd/lcm fix-up; the units lead the chain.
    """
    ds = sorted(abs(d) for d in diagonal if d)
    units = ds.count(1)
    ds = ds[units:]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    changed = True
        if changed:
            ds.sort()
    return (1,) * units + tuple(ds)


def integer_rank(M: IntegerMatrix) -> int:
    """Rank over Q (equivalently over Z) of an exact integer matrix."""
    return len(sparse_diagonalize(M))


# ---------------------------------------------------------------------------
# abelian groups and homology

@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in canonical form."""

    free_rank: int
    torsion: tuple = ()

    @classmethod
    def canonical(cls, free_rank: int, torsion) -> "AbelianGroup":
        chain = canonical_invariant_factors(torsion)
        return cls(free_rank, tuple(d for d in chain if d > 1))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def homology_free(dims: Sequence[int], boundaries: Sequence[IntegerMatrix]) -> list:
    """Homology of a free chain complex given as boundary matrices.

    ``dims[n]`` is the rank of the degree-n chain group for n = 0..D and
    ``boundaries[n]`` (for n = 1..D) maps degree n to degree n-1.  Groups
    are returned for degrees 0..D-1; the top degree would need the absent
    degree-(D+1) matrix.
    """
    D = len(dims) - 1
    for n in range(1, D + 1):
        M = boundaries[n]
        if M.rows != dims[n - 1] or M.cols != dims[n]:
            raise ValueError(f"boundary matrix {n} has wrong shape")
    for n in range(1, D):
        if not boundaries[n].matmul(boundaries[n + 1]).is_zero():
            raise ValueError(f"boundary composition at degree {n + 1} is not zero")

    diags = {n: sparse_diagonalize(boundaries[n]) for n in range(1, D + 1)}
    groups = []
    for n in range(D):
        rank_n = len(diags[n]) if n >= 1 else 0
        nullity = dims[n] - rank_n
        rank_next = len(diags[n + 1])
        torsion = canonical_invariant_factors(diags[n + 1])
        groups.append(AbelianGroup.canonical(nullity - rank_next, torsion))
    return groups


def free_torsion_crossing(entries, free_rows: int, free_cols: int):
    """First key (r, c) of ``entries`` joining a free and a torsion generator
    (free generators first in both degrees), or ``None`` if block-diagonal."""
    return next(((r, c) for r, c in entries if (r < free_rows) != (c < free_cols)), None)


def homology_presented(pres) -> list:
    """Homology of a complex whose torsion generators have order 2.

    ``pres`` provides ``max_degree``, ``generator_count(n)``,
    ``torsion_generators`` (one sequence per degree) and
    ``boundary_matrix(n)``, an :class:`IntegerMatrix` (degree n -> n-1,
    free generators first).
    The free block is a free chain complex; the torsion block is read mod 2
    and adds t_n - r_n - r_{n+1} summands Z/2 in degree n (t_n torsion
    generators, r_n the F2 rank of the degree-n block).  Raises
    ``ValueError`` on a wrong shape, on an entry joining a free and a
    torsion generator, or when a block does not square to zero (mod 2 for
    the torsion block).
    """
    D = pres.max_degree
    gens = [pres.generator_count(n) for n in range(D + 1)]
    tors = [len(pres.torsion_generators[n]) for n in range(D + 1)]
    free = [g - t for g, t in zip(gens, tors)]
    free_blocks: list = [None]
    tors_blocks: list = [None]
    for n in range(1, D + 1):
        M = pres.boundary_matrix(n)
        if (M.rows, M.cols) != (gens[n - 1], gens[n]):
            raise ValueError(f"boundary matrix {n} has wrong shape")
        f_rows, f_cols = free[n - 1], free[n]
        entries = M.entries
        crossing = free_torsion_crossing(entries, f_rows, f_cols)
        if crossing is not None:
            raise ValueError(
                f"degree {n}: boundary entry {crossing} joins a free and a "
                "torsion generator; the presented complex is inconsistent")
        free_blocks.append(IntegerMatrix(f_rows, f_cols, {
            (r, c): v for (r, c), v in entries.items() if r < f_rows}))
        tors_blocks.append(IntegerMatrix(tors[n - 1], tors[n], {
            (r - f_rows, c - f_cols): 1 for (r, c), v in entries.items()
            if r >= f_rows and v % 2}))
    for n in range(1, D):
        if any(v % 2 for v in tors_blocks[n].matmul(tors_blocks[n + 1]).entries.values()):
            raise ValueError(f"degree {n + 1}: torsion boundary does not square "
                             "to zero mod 2; the presented complex is inconsistent")
    # unimodular integer operations stay invertible mod 2, so the odd
    # diagonal entries count the F2 rank
    ranks = [0] + [sum(d % 2 for d in sparse_diagonalize(M)) for M in tors_blocks[1:]]
    groups = []
    for n, g in enumerate(homology_free(free, free_blocks)):
        extra = tors[n] - ranks[n] - ranks[n + 1]
        groups.append(AbelianGroup.canonical(g.free_rank, g.torsion + (2,) * extra))
    return groups


def cohomology_rational(dims: Sequence[int], deltas: Sequence[IntegerMatrix]) -> list:
    """Betti numbers of a cochain complex given by coboundary matrices.

    ``deltas[n]`` maps degree n to degree n+1, for n = 0..D-1.  Ranks are
    returned for degrees 0..D-1.  The callers build the deltas from a
    complex, so delta delta = 0 is not checked again here.
    """
    D = len(dims) - 1
    for n in range(D):
        M = deltas[n]
        if M.rows != dims[n + 1] or M.cols != dims[n]:
            raise ValueError(f"coboundary matrix {n} has wrong shape")
    ranks = {n: integer_rank(deltas[n]) for n in range(D)}
    out = []
    for n in range(D):
        z = dims[n] - ranks[n]
        b = ranks[n - 1] if n >= 1 else 0
        out.append(z - b)
    return out


# ---------------------------------------------------------------------------
# matrices of the standard complexes

def face_matrix(columns: Sequence[tuple], row_of: dict) -> IntegerMatrix:
    """Ordered boundary of each column tuple g, sum_i (-1)^i (g without
    entry i), as a len(row_of) x len(columns) matrix; ``row_of`` gives the
    row of every face."""
    entries: dict = {}
    for j, g in enumerate(columns):
        sign = 1
        for i in range(len(g)):
            key = (row_of[g[:i] + g[i + 1:]], j)
            v = entries.get(key, 0) + sign
            if v:
                entries[key] = v
            else:
                entries.pop(key, None)
            sign = -sign
    return IntegerMatrix(len(row_of), len(columns), entries)


def ordered_boundary_matrix(index: GeneratorIndex, n: int) -> IntegerMatrix:
    """Boundary matrix of the full tuple complex, degree n -> n-1."""
    if n < 1:
        raise ValueError("boundary matrices start at degree 1")
    return face_matrix(index.generators(n), index.positions(n - 1))


def simplicial_boundary_matrix(K: SimplicialComplex, n: int) -> IntegerMatrix:
    """Classical simplicial boundary matrix on sorted simplices."""
    if n < 1:
        raise ValueError("boundary matrices start at degree 1")
    rows = {s: i for i, s in enumerate(K.simplices_of_dim(n - 1))}
    cols = K.simplices_of_dim(n)
    entries = {}
    for j, s in enumerate(cols):
        for i in range(len(s)):
            entries[(rows[s[:i] + s[i + 1:]], j)] = (-1) ** i
    return IntegerMatrix(len(rows), len(cols), entries)


def simplicial_homology(K: SimplicialComplex) -> list:
    """Simplicial homology of the complex in all degrees 0..dim."""
    top = K.dimension()
    dims = [len(K.simplices_of_dim(n)) for n in range(top + 2)]
    boundaries: list = [None]
    for n in range(1, top + 2):
        if dims[n] == 0:
            boundaries.append(IntegerMatrix(dims[n - 1], 0, {}))
        else:
            boundaries.append(simplicial_boundary_matrix(K, n))
    return homology_free(dims, boundaries)


def ordered_homology(index: GeneratorIndex) -> list:
    """Homology of the full tuple complex for degrees 0..max_degree-1."""
    D = index.max_degree
    dims = [index.count(n) for n in range(D + 1)]
    boundaries: list = [None]
    for n in range(1, D + 1):
        boundaries.append(ordered_boundary_matrix(index, n))
    return homology_free(dims, boundaries)


# ---------------------------------------------------------------------------
# cohomology splitting report

@dataclass(frozen=True)
class SplittingReport:
    """Rank bookkeeping for the projector acting on degree-n cohomology."""

    degree: int
    rank_full: int
    rank_alternating: int
    commutes_on_basis: bool
    kernel_rank: int

    @property
    def induced_isomorphism(self) -> bool:
        return self.kernel_rank == 0 and self.commutes_on_basis


def verify_cohomology_splitting(index: GeneratorIndex, n: int) -> SplittingReport:
    """Check that the projector splits degree-n rational cohomology.

    The projector commutes with the coboundary (verified exactly on every
    basis cochain of degrees n-1 and n), hence maps cocycles to cocycles
    and coboundaries to coboundaries; the induced map on cohomology is
    onto the alternating part, so its kernel rank is the difference of the
    two Betti numbers.
    """
    from . import cochain_algebra as ca

    if n + 1 > index.max_degree:
        raise ValueError(f"need generators of degree {n + 1}")

    commutes = True
    degrees = [n] if n == 0 else [n - 1, n]
    for deg in degrees:
        for g in index.generators(deg):
            alpha = ca.Cochain(deg, {g: Fraction(1)})
            if ca.coboundary(index, ca.alternative_maker(alpha)) != \
                    ca.alternative_maker(ca.coboundary(index, alpha)):
                commutes = False
                break
        if not commutes:
            break

    dims = [index.count(k) for k in range(n + 2)]
    deltas = [ca.coboundary_matrix(index, k) for k in range(n + 1)]
    full = cohomology_rational(dims, deltas)[n]

    alt_dims = [len(index.complex.simplices_of_dim(k)) for k in range(n + 2)]
    alt_deltas = [ca.alt_coboundary_matrix(index, k) for k in range(n + 1)]
    alt = cohomology_rational(alt_dims, alt_deltas)[n]

    return SplittingReport(degree=n, rank_full=full, rank_alternating=alt,
                           commutes_on_basis=commutes, kernel_rank=full - alt)
