"""Finite simplicial complexes and their ordered-tuple generator sets.

A degree-n generator is a plain tuple of n+1 vertex indices, repeats
allowed, whose set of distinct entries spans a simplex of the complex.
These tuples are closed under the face maps (delete one entry) and under
the symmetric group action (reorder entries), which is exactly what the
chain and cochain algebra downstream needs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetExceededError, DegreeCapError, FormatError

DEFAULT_DEGREE_CAP = 4
DEFAULT_GENERATOR_BUDGET = 1_000_000

COMPLEX_FORMAT_VERSION = 1
_COMPLEX_FIELDS = {"format_version", "name", "provenance", "vertices", "facets"}


@dataclass(frozen=True)
class SimplicialComplex:
    """A finite abstract simplicial complex on vertices 0..vertex_count-1.

    ``simplex_set`` is the downward closure of the facets: every nonempty
    subset of a facet, as a frozenset of vertex indices.
    """

    vertex_count: int
    facets: frozenset
    simplex_set: frozenset
    name: str = ""
    vertex_names: tuple = ()

    @classmethod
    def from_facets(cls, vertex_count: int, facets, name: str = "",
                    vertex_names=()) -> "SimplicialComplex":
        if vertex_count < 0:
            raise FormatError("vertex count must be nonnegative")
        clean = set()
        for f in facets:
            fs = frozenset(f)
            if not fs:
                raise FormatError("empty facet")
            for v in fs:
                if not isinstance(v, int) or not 0 <= v < vertex_count:
                    raise FormatError(f"vertex index {v!r} out of range 0..{vertex_count - 1}")
            clean.add(fs)
        closure = set()
        for f in clean:
            members = sorted(f)
            for k in range(1, len(members) + 1):
                closure.update(frozenset(c) for c in itertools.combinations(members, k))
        return cls(vertex_count=vertex_count, facets=frozenset(clean),
                   simplex_set=frozenset(closure), name=name,
                   vertex_names=tuple(vertex_names))

    def dimension(self) -> int:
        if not self.simplex_set:
            return -1
        return max(len(s) for s in self.simplex_set) - 1

    def simplices_of_dim(self, n: int) -> list:
        """Sorted vertex tuples of the n-simplices, in lexicographic order."""
        out = [tuple(sorted(s)) for s in self.simplex_set if len(s) == n + 1]
        out.sort()
        return out

    def has_simplex(self, vertices) -> bool:
        return frozenset(vertices) in self.simplex_set

    @cached_property
    def coface_vertices(self) -> dict:
        """For each simplex, the sorted vertices v for which the simplex
        plus v is again a simplex; its own vertices are among them."""
        table = {s: set(s) for s in self.simplex_set}
        for s in self.simplex_set:
            if len(s) > 1:
                for v in s:
                    table[s - {v}].add(v)
        return {s: tuple(sorted(vs)) for s, vs in table.items()}

    def f_vector(self) -> tuple:
        counts = {}
        for s in self.simplex_set:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return tuple(counts.get(n, 0) for n in range(self.dimension() + 1))


def load_complex(description) -> SimplicialComplex:
    """Parse a complex description (JSON text or an already-decoded dict).

    Schema: ``{"format_version": 1, "vertices": <count or name list>,
    "facets": [[v, ...], ...]}`` with optional ``name`` and ``provenance``
    strings.  Unknown fields are rejected.  When ``vertices`` is a name
    list, facet entries are names and indices are assigned by position in
    that list.
    """
    if isinstance(description, (str, bytes)):
        try:
            data = json.loads(description)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    else:
        data = description
    if not isinstance(data, dict):
        raise FormatError("complex description must be a JSON object")
    unknown = set(data) - _COMPLEX_FIELDS
    if unknown:
        raise FormatError(f"unknown fields in complex description: {sorted(unknown)}")
    if data.get("format_version", COMPLEX_FORMAT_VERSION) != COMPLEX_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {data.get('format_version')!r}")
    if "vertices" not in data or "facets" not in data:
        raise FormatError("complex description needs 'vertices' and 'facets'")

    vertices = data["vertices"]
    facets = data["facets"]
    if not isinstance(facets, list):
        raise FormatError("'facets' must be a list of vertex lists")

    names: tuple = ()
    if isinstance(vertices, int):
        count = vertices
        index_of = None
    elif isinstance(vertices, list):
        if len(set(vertices)) != len(vertices):
            raise FormatError("duplicate vertex names")
        names = tuple(str(v) for v in vertices)
        index_of = {v: i for i, v in enumerate(vertices)}
        count = len(vertices)
    else:
        raise FormatError("'vertices' must be a count or a list of names")

    indexed_facets = []
    for f in facets:
        if not isinstance(f, list) or not f:
            raise FormatError(f"facet must be a nonempty list, got {f!r}")
        if index_of is None:
            row = []
            for v in f:
                if not isinstance(v, int):
                    raise FormatError(f"facet entry {v!r} is not an integer index")
                row.append(v)
        else:
            try:
                row = [index_of[v] for v in f]
            except KeyError as exc:
                raise FormatError(f"unknown vertex name {exc.args[0]!r}") from exc
        indexed_facets.append(row)

    return SimplicialComplex.from_facets(count, indexed_facets,
                                         name=str(data.get("name", "")),
                                         vertex_names=names)


def face(g: tuple, i: int) -> tuple:
    """Delete entry i of the tuple; the i-th face of a degree >= 1 generator."""
    n = len(g) - 1
    if n < 1:
        raise ValueError("degree 0 generators have no faces")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range 0..{n}")
    return g[:i] + g[i + 1:]


def _surjection_count(length: int, support_size: int) -> int:
    # inclusion-exclusion: tuples of the given length using every one of
    # support_size symbols at least once
    total = 0
    binom = 1
    for j in range(support_size + 1):
        total += (-1) ** j * binom * (support_size - j) ** length
        binom = binom * (support_size - j) // (j + 1)
    return total


@dataclass(frozen=True)
class GeneratorIndex:
    """Per-degree dense indexing of all tuple generators up to a degree cap.

    Enumeration order is lexicographic on the vertex sequences, so indices
    are stable across runs.  The generator sets are closed under face maps
    and under entry permutation by construction (both preserve support).
    """

    complex: SimplicialComplex
    max_degree: int
    _by_degree: tuple = field(repr=False)
    _positions: tuple = field(repr=False)

    def count(self, n: int) -> int:
        self._check_degree(n)
        return len(self._by_degree[n])

    def generators(self, n: int) -> tuple:
        self._check_degree(n)
        return self._by_degree[n]

    def position(self, g: tuple) -> int:
        n = len(g) - 1
        self._check_degree(n)
        try:
            return self._positions[n][g]
        except KeyError:
            raise KeyError(f"{g} is not a generator of this complex") from None

    def is_generator(self, g: tuple) -> bool:
        n = len(g) - 1
        if not 0 <= n <= self.max_degree:
            return False
        return g in self._positions[n]

    def _check_degree(self, n: int) -> None:
        if not 0 <= n <= self.max_degree:
            raise DegreeCapError(
                f"degree {n} outside enumerated range 0..{self.max_degree}")


def enumerate_generators(K: SimplicialComplex, max_degree: int = DEFAULT_DEGREE_CAP,
                         budget: int = DEFAULT_GENERATOR_BUDGET) -> GeneratorIndex:
    """Enumerate every vertex tuple of length <= max_degree+1 spanning a simplex.

    The total count is predicted by inclusion-exclusion before anything is
    materialized; if it exceeds ``budget`` a :class:`BudgetExceededError`
    reporting the required count is raised.
    """
    if max_degree < 0:
        raise ValueError("degree cap must be nonnegative")
    sizes = {}
    for s in K.simplex_set:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    required = 0
    for n in range(max_degree + 1):
        for size, how_many in sizes.items():
            if size <= n + 1:
                required += how_many * _surjection_count(n + 1, size)
    if required > budget:
        raise BudgetExceededError(required, budget)

    by_degree = []
    positions = []
    for n in range(max_degree + 1):
        tuples = []
        for s in K.simplex_set:
            members = sorted(s)
            if len(members) > n + 1:
                continue
            full = frozenset(members)
            for t in itertools.product(members, repeat=n + 1):
                if frozenset(t) == full:
                    tuples.append(t)
        tuples.sort()
        by_degree.append(tuple(tuples))
        positions.append({g: i for i, g in enumerate(tuples)})
    return GeneratorIndex(complex=K, max_degree=max_degree,
                          _by_degree=tuple(by_degree), _positions=tuple(positions))
