import itertools

import pytest
from hypothesis import given, strategies as st

from altchain.permutations import (Permutation, act, enumerate_group,
                                   induced_face_perm, sign)


def brute_sign(images):
    # independent parity: count inversions directly
    inv = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
              if images[a] > images[b])
    return -1 if inv % 2 else 1


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.permutations(list(range(k))))


def test_sign_examples():
    assert sign(Permutation.identity(3)) == 1
    assert sign(Permutation((1, 0))) == -1
    # 3-cycle 0->1->2->0 sends position 0 to value 1: images (1, 2, 0)
    assert sign(Permutation((1, 2, 0))) == 1


@given(perm_strategy)
def test_sign_matches_inversion_count(images):
    assert Permutation(images).sign == brute_sign(images)


@given(perm_strategy, perm_strategy)
def test_sign_multiplicative(im1, im2):
    if len(im1) != len(im2):
        return
    s, t = Permutation(im1), Permutation(im2)
    assert (s * t).sign == s.sign * t.sign


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_act_examples():
    s = Permutation((1, 2, 0))
    assert act(s, ("a", "b", "c")) == ("b", "c", "a")
    assert act(Permutation.identity(2), (5, 7)) == (5, 7)
    assert act(Permutation((1, 0)), (3, 3)) == (3, 3)


def test_act_size_mismatch():
    with pytest.raises(ValueError):
        act(Permutation.identity(2), (1, 2, 3))


def test_action_composition_convention():
    # act(s2 * s1, g) == act(s1, act(s2, g)): the right-action round trip
    # that the rest of the algebra depends on
    g = (10, 20, 30, 40)
    for im1 in itertools.permutations(range(4)):
        for im2 in itertools.permutations(range(4)):
            s1, s2 = Permutation(im1), Permutation(im2)
            assert act(s2 * s1, g) == act(s1, act(s2, g))


def test_composition_is_function_composition():
    s = Permutation((2, 0, 1))
    t = Permutation((1, 2, 0))
    assert all((s * t)(j) == s(t(j)) for j in range(3))
    assert s * t == Permutation.identity(3)


def test_induced_face_perm_examples():
    assert induced_face_perm(Permutation.identity(3), 1) == Permutation.identity(2)
    assert induced_face_perm(Permutation((1, 2, 0)), 1) == Permutation((1, 0))
    assert induced_face_perm(Permutation((1, 0)), 0) == Permutation.identity(1)


def test_induced_face_perm_range_check():
    with pytest.raises(ValueError):
        induced_face_perm(Permutation.identity(3), 3)


def test_sign_identity_exhaustive():
    # parity bookkeeping under deletion, for every group element through S_5
    for k in range(1, 6):
        for s in enumerate_group(k):
            for i in range(k):
                assert s.sign == (-1) ** (i - s(i)) * induced_face_perm(s, i).sign


def test_enumerate_group_sizes_and_signs():
    assert [s.images for s in enumerate_group(1)] == [()] or \
        [s.images for s in enumerate_group(1)] == [(0,)]
    assert [s.sign for s in enumerate_group(2)] == [1, -1]
    g4 = enumerate_group(4)
    assert len(g4) == 24
    assert sum(1 for s in g4 if s.sign == 1) == 12
    assert sum(s.sign for s in g4) == 0


def test_enumerate_group_deterministic_and_capped():
    assert [s.images for s in enumerate_group(3)] == \
        [s.images for s in enumerate_group(3)]
    assert enumerate_group(3)[0] == Permutation.identity(3)
    with pytest.raises(ValueError):
        enumerate_group(9)


def test_group_laws_exhaustive_small():
    for k in (2, 3, 4):
        group = enumerate_group(k)
        for a in group:
            for b in group:
                assert (a * b).sign == a.sign * b.sign
                for c in group:
                    assert (a * b) * c == a * (b * c)


def test_face_action_compatibility_through_degree_four(sphere):
    # deleting entry i after reordering equals reordering the deleted-face
    # tuple by the induced permutation; exhaustive through degree 4
    from altchain import enumerate_generators, face

    index = enumerate_generators(sphere, 4)
    for n in range(1, 5):
        group = enumerate_group(n + 1)
        step = 1 if n < 4 else 7
        for g in index.generators(n)[::step]:
            for s in group:
                reordered = act(s, g)
                for i in range(n + 1):
                    assert face(reordered, i) == \
                        act(induced_face_perm(s, i), face(g, s(i)))
