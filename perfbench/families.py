"""Seeded complex families with known homology, built without altchain.

Every complex is a list of facets (vertex tuples) on vertices 0..n-1.  The
constructions (barycentric subdivision, boundary of a simplex, cone,
suspension, relabelling) and the reference answers (f-vector, Euler
characteristic, integer homology) are computed here from first principles,
so a bug in a generator shows up as a failed self-check instead of posing
as a regression of the program under test.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from random import Random

# Base complexes: the bundled vertex-minimal triangulations.  Their facets
# are read from the package data; their f-vectors and homology are fixed
# here.  A group is (free rank, (torsion orders...)).
BASE = {
    "point": {"f": (1,), "homology": [(1, ())]},
    "sphere_s2": {"f": (4, 6, 4), "homology": [(1, ()), (0, ()), (1, ())]},
    "rp2_6": {"f": (6, 15, 10), "homology": [(1, ()), (0, (2,)), (0, ())]},
    "torus_7": {"f": (7, 21, 14), "homology": [(1, ()), (2, ()), (1, ())]},
    "klein_8": {"f": (8, 24, 16), "homology": [(1, ()), (1, (2,)), (0, ())]},
}
SURFACES = ("sphere_s2", "rp2_6", "torus_7", "klein_8")


class GeneratorCheckError(AssertionError):
    """A generated complex does not match its family's reference data."""


@dataclass(frozen=True)
class Complex:
    """Facets plus the reference data every check compares against."""

    name: str
    vertex_count: int
    facets: tuple
    f_vector: tuple      # predicted from the family rule
    homology: tuple      # (free rank, torsion) per degree 0..dim

    def group(self, n: int) -> tuple:
        return self.homology[n] if n < len(self.homology) else (0, ())

    def betti(self, n: int) -> int:
        return self.group(n)[0]

    @property
    def dimension(self) -> int:
        return len(self.f_vector) - 1


def simplices(facets) -> set:
    """Downward closure of the facets as sorted vertex tuples."""
    out = set()
    for f in facets:
        members = sorted(set(f))
        for k in range(1, len(members) + 1):
            out.update(itertools.combinations(members, k))
    return out


def f_vector_of(facets) -> tuple:
    counts: dict = {}
    for s in simplices(facets):
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return tuple(counts.get(k, 0) for k in range(max(counts) + 1))


def euler(f: tuple) -> int:
    return sum((-1) ** k * v for k, v in enumerate(f))


def euler_of_homology(homology) -> int:
    return sum((-1) ** k * free for k, (free, _) in enumerate(homology))


def check(K: Complex) -> Complex:
    """Compare the facets against the family's f-vector and Euler number."""
    measured = f_vector_of(K.facets)
    if measured != K.f_vector:
        raise GeneratorCheckError(
            f"{K.name}: f-vector {measured} != predicted {K.f_vector}")
    if euler(measured) != euler_of_homology(K.homology):
        raise GeneratorCheckError(
            f"{K.name}: Euler characteristic {euler(measured)} does not match "
            f"its homology {K.homology}")
    used = {v for f in K.facets for v in f}
    if used != set(range(K.vertex_count)):
        raise GeneratorCheckError(f"{K.name}: vertices are not 0..{K.vertex_count - 1}")
    return K


def _trim(homology) -> tuple:
    out = list(homology)
    while len(out) > 1 and out[-1] == (0, ()):
        out.pop()
    return tuple(out)


def base(name: str, data_dir: Path) -> Complex:
    data = json.loads((data_dir / f"{name}.json").read_text())
    facets = tuple(tuple(f) for f in data["facets"])
    return check(Complex(name, data["vertices"], facets, BASE[name]["f"],
                         tuple(BASE[name]["homology"])))


def boundary_of_simplex(d: int) -> Complex:
    """The boundary of the d-simplex, a (d-1)-sphere."""
    facets = tuple(itertools.combinations(range(d + 1), d))
    f = tuple(comb(d + 1, k + 1) for k in range(d))
    homology = [(1, ())] + [(0, ())] * (d - 2) + [(1, ())]
    return check(Complex(f"bd_simplex_{d}", d + 1, facets, f, tuple(homology)))


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def subdivision(K: Complex) -> Complex:
    """Barycentric subdivision: one vertex per simplex of K, one facet per
    maximal chain of faces.  Homology is unchanged."""
    simp = sorted(simplices(K.facets), key=lambda s: (len(s), s))
    vertex = {s: i for i, s in enumerate(simp)}
    facets = set()
    for top in {tuple(sorted(set(f))) for f in K.facets}:
        for order in itertools.permutations(top):
            facets.add(tuple(sorted(vertex[tuple(sorted(order[:k]))]
                                    for k in range(1, len(order) + 1))))
    # a k-simplex of sd(K) is a chain of k+1 faces ending in a j-simplex of
    # K: ordered set partitions of its j+1 vertices into k+1 blocks
    f = tuple(sum(fj * factorial(k + 1) * _stirling2(j + 1, k + 1)
                  for j, fj in enumerate(K.f_vector))
              for k in range(len(K.f_vector)))
    return check(Complex(f"sd_{K.name}", len(simp), tuple(sorted(facets)), f,
                         K.homology))


def cone(K: Complex) -> Complex:
    """Join with one apex vertex: contractible."""
    apex = K.vertex_count
    facets = tuple(tuple(f) + (apex,) for f in K.facets)
    f = tuple(K.f_vector[k] + (K.f_vector[k - 1] if k else 1)
              for k in range(len(K.f_vector))) + (K.f_vector[-1],)
    return check(Complex(f"cone_{K.name}", apex + 1, facets, f, ((1, ()),)))


def suspension(K: Complex) -> Complex:
    """Join with two apex vertices: reduced homology moves up one degree."""
    north, south = K.vertex_count, K.vertex_count + 1
    facets = tuple(tuple(f) + (apex,) for f in K.facets for apex in (north, south))
    f = tuple(K.f_vector[k] + (2 * K.f_vector[k - 1] if k else 2)
              for k in range(len(K.f_vector))) + (2 * K.f_vector[-1],)
    # H~_{n+1}(SK) = H~_n(K); the reduced H_0 loses the one Z of a connected K
    reduced = [(K.homology[0][0] - 1, K.homology[0][1])] + list(K.homology[1:])
    homology = _trim([(1, ())] + reduced)
    return check(Complex(f"susp_{K.name}", north + 2, facets, f, homology))


def relabel(K: Complex, rng: Random) -> Complex:
    """Random vertex relabelling, facet order and in-facet order."""
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    facets = []
    for f in K.facets:
        row = [perm[v] for v in f]
        rng.shuffle(row)
        facets.append(tuple(row))
    rng.shuffle(facets)
    return check(Complex(K.name, K.vertex_count, tuple(facets), K.f_vector,
                         K.homology))


def complex_json(K: Complex) -> str:
    return json.dumps({"format_version": 1, "name": K.name,
                       "vertices": K.vertex_count,
                       "facets": [list(f) for f in K.facets]}) + "\n"


# ---------------------------------------------------------------------------
# cochains

def random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))


def sorting_sign(t: tuple) -> int:
    inversions = sum(1 for a, b in itertools.combinations(t, 2) if a > b)
    return -1 if inversions % 2 else 1


def random_alternating(K: Complex, degree: int, count: int, rng: Random) -> dict:
    """An alternating cochain on ``count`` random degree-simplices: every
    reordering of a simplex carries the sorting sign times its value."""
    pool = sorted(s for s in simplices(K.facets) if len(s) == degree + 1)
    values: dict = {}
    for tau in rng.sample(pool, min(count, len(pool))):
        v = random_fraction(rng)
        for g in itertools.permutations(tau):
            values[g] = sorting_sign(g) * v
    return values


def random_plain(K: Complex, degree: int, count: int, rng: Random) -> dict:
    """A cochain on ``count`` random tuples (repeats allowed) spanning simplices."""
    values: dict = {}
    pool = sorted(s for s in simplices(K.facets) if len(s) <= degree + 1)
    while len(values) < count:
        s = rng.choice(pool)
        g = tuple(rng.choice(s) for _ in range(degree + 1))
        if set(g) == set(s):
            values[g] = random_fraction(rng)
    return values


def cochain_json(degree: int, values: dict) -> str:
    return json.dumps({"format_version": 1, "degree": degree,
                       "values": [[list(g), f"{v.numerator}/{v.denominator}"]
                                  for g, v in sorted(values.items())]}) + "\n"


def cochain_values(data: dict) -> dict:
    """Decode a cochain JSON object into {tuple: Fraction}."""
    return {tuple(g): Fraction(v) for g, v in data["values"]}


def torsion_generator_count(f: tuple, n: int) -> int:
    """Sorted (n+1)-tuples with a repeat whose support is a simplex: a
    support of k < n+1 vertices admits comb(n, k-1) such multisets."""
    return sum(f[k - 1] * comb(n, k - 1) for k in range(1, min(n, len(f)) + 1))
