"""Symmetric group machinery used throughout the chain/cochain algebra.

Permutations act on vertex tuples from the right: ``act(s, g)[j] = g[s(j)]``.
With composition ``(s2 * s1)(j) = s2(s1(j))`` this makes the action satisfy
``act(s2 * s1, g) == act(s1, act(s2, g))``, the convention under which
pulling a permutation through a face map produces the induced face
permutation computed by :func:`induced_face_perm`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

GROUP_SIZE_CAP = 8


def _inversion_sign(images) -> int:
    inv = 0
    k = len(images)
    for a in range(k):
        for b in range(a + 1, k):
            if images[a] > images[b]:
                inv += 1
    return -1 if inv % 2 else 1


class Permutation:
    """A bijection on {0, ..., k-1} with its parity precomputed.

    Immutable; safe to share and to use as a dict key.
    """

    __slots__ = ("images", "sign")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "sign", _inversion_sign(images))

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(range(k))

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j]

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: (self.compose(other))(j) = self(other(j))."""
        if len(self) != len(other):
            raise ValueError("size mismatch in composition")
        return Permutation(self.images[other.images[j]] for j in range(len(self)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def sign(s: Permutation) -> int:
    """Parity of ``s``: (-1) to the number of inversions."""
    return s.sign


def act(s: Permutation, g: tuple) -> tuple:
    """Right action on a vertex tuple: entry j of the result is g[s(j)]."""
    if len(s) != len(g):
        raise ValueError(f"permutation size {len(s)} does not match tuple length {len(g)}")
    images = s.images
    return tuple(g[images[j]] for j in range(len(g)))


def induced_face_perm(s: Permutation, i: int) -> Permutation:
    """Restriction of ``s`` after deleting ``i`` from its domain and s(i) from its range.

    Both deleted points are renumbered away, so the result acts on one fewer
    point.  Satisfies sign(s) == (-1)**(i - s(i)) * sign(induced_face_perm(s, i)).
    """
    n = len(s) - 1
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for S_{n + 1}")
    si = s(i)
    out = []
    for j in range(n):
        v = s(j) if j < i else s(j + 1)
        out.append(v if v < si else v - 1)
    return Permutation(out)


@lru_cache(maxsize=None)
def _group_cached(k: int) -> tuple:
    return tuple(Permutation(p) for p in itertools.permutations(range(k)))


def enumerate_group(k: int, cap: int = GROUP_SIZE_CAP) -> tuple:
    """All k! permutations of {0,...,k-1} in lexicographic order of images."""
    if k < 0:
        raise ValueError("group size must be nonnegative")
    if k > cap:
        raise ValueError(f"S_{k} exceeds the enumeration cap of S_{cap}")
    return _group_cached(k)
