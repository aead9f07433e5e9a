import inspect
import itertools

import pytest
from hypothesis import given, strategies as st

from altchain import alt_chains, cochain_algebra, permutations
from altchain.permutations import (Permutation, act, enumerate_group,
                                   induced_face_perm, parity)


def identity(k):
    return Permutation(range(k))


def compose(s, t):
    """Function composition: compose(s, t)(j) == s(t(j))."""
    return Permutation(s(t(j)) for j in range(len(t)))


def brute_sign(images):
    # independent parity: count inversions directly
    inv = sum(1 for a in range(len(images)) for b in range(a + 1, len(images))
              if images[a] > images[b])
    return -1 if inv % 2 else 1


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.permutations(list(range(k))))


def test_sign_examples():
    assert identity(3).sign == 1
    assert Permutation((1, 0)).sign == -1
    # 3-cycle 0->1->2->0 sends position 0 to value 1: images (1, 2, 0)
    assert Permutation((1, 2, 0)).sign == 1


@given(perm_strategy)
def test_sign_matches_inversion_count(images):
    assert Permutation(images).sign == brute_sign(images)


def bubble_sort_sign(seq):
    # parity oracle: bubble sort and count the swaps
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


@given(st.lists(st.integers(), max_size=7, unique=True))
def test_parity_matches_bubble_sort(entries):
    # any distinct entries, not only a permutation of 0..k-1
    assert parity(tuple(entries)) == bubble_sort_sign(entries)


@given(perm_strategy, perm_strategy)
def test_sign_multiplicative(im1, im2):
    if len(im1) != len(im2):
        return
    s, t = Permutation(im1), Permutation(im2)
    assert compose(s, t).sign == s.sign * t.sign


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_act_examples():
    s = Permutation((1, 2, 0))
    assert act(s, ("a", "b", "c")) == ("b", "c", "a")
    assert act(identity(2), (5, 7)) == (5, 7)
    assert act(Permutation((1, 0)), (3, 3)) == (3, 3)


def test_act_size_mismatch():
    with pytest.raises(ValueError):
        act(identity(2), (1, 2, 3))
    for k, g in ((0, (5,)), (1, ()), (1, (5, 6)), (3, (5, 6))):
        with pytest.raises(ValueError):
            act(identity(k), g)


def test_act_on_sizes_zero_and_one():
    # the smallest groups still return tuples, whatever sequence they read
    assert act(identity(0), ()) == ()
    assert act(identity(1), (7,)) == (7,)
    assert act(identity(1), [7]) == (7,)
    assert act(Permutation((1, 0)), [7, 8]) == (8, 7)


def test_equal_images_make_equal_permutations():
    # built from a tuple, a list, a generator and a product: equality, hash
    # and repr read the images only
    for images in ((), (0,), (2, 0, 1)):
        k = len(images)
        same = (Permutation(images), Permutation(list(images)),
                Permutation(j for j in images),
                compose(Permutation(images), identity(k)))
        assert len(set(same)) == 1
        assert all(s == same[0] and hash(s) == hash(same[0]) for s in same)
        assert {repr(s) for s in same} == {f"Permutation({list(images)})"}
    assert Permutation((2, 0, 1)) != Permutation((0, 2, 1))
    assert Permutation(()) != Permutation((0,))


def test_action_composition_convention():
    # for t(j) = s2(s1(j)), act(t, g) == act(s1, act(s2, g)): the
    # right-action round trip that the rest of the algebra depends on
    g = (10, 20, 30, 40)
    for im1 in itertools.permutations(range(4)):
        for im2 in itertools.permutations(range(4)):
            s1, s2 = Permutation(im1), Permutation(im2)
            assert act(compose(s2, s1), g) == act(s1, act(s2, g))


def test_composition_is_function_composition():
    # acting by t on the images of s composes them: act(t, s.images)[j]
    # is s(t(j))
    s = Permutation((2, 0, 1))
    t = Permutation((1, 2, 0))
    assert Permutation(act(t, s.images)) == compose(s, t) == identity(3)
    for a in enumerate_group(3):
        for b in enumerate_group(3):
            assert act(b, a.images) == tuple(a(b(j)) for j in range(3))


def test_induced_face_perm_examples():
    assert induced_face_perm(identity(3), 1) == identity(2)
    assert induced_face_perm(Permutation((1, 2, 0)), 1) == Permutation((1, 0))
    assert induced_face_perm(Permutation((1, 0)), 0) == identity(1)


def test_induced_face_perm_range_check():
    with pytest.raises(ValueError):
        induced_face_perm(identity(3), 3)


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
    assert enumerate_group(3)[0] == identity(3)
    with pytest.raises(ValueError):
        enumerate_group(9)


def test_group_laws_exhaustive_small():
    for k in (2, 3, 4):
        group = enumerate_group(k)
        for a in group:
            for b in group:
                assert compose(a, b).sign == a.sign * b.sign
                for c in group:
                    assert compose(compose(a, b), c) == compose(a, compose(b, c))


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


def test_sign_tables_agree_with_parity_on_every_short_tuple():
    # every tuple over {0, 1, 2, 3} of length 1 to 5, repeats included, read
    # twice so that the second read comes from the table
    for _ in range(2):
        for k in range(1, 6):
            for g in itertools.product(range(4), repeat=k):
                key = tuple(sorted(g))
                if len(set(g)) < k:  # torsion: sign 0
                    assert permutations._signed_classes[g] == (key, 0)
                    assert alt_chains.canonicalize(g) == (key, True, 1)
                    continue
                assert permutations._signed_classes[g] == (key, parity(g))
                assert alt_chains.canonicalize(g) == (key, False, parity(g))
                orbit = permutations._orbits[key]
                assert orbit == {h: parity(h) for h in itertools.permutations(key)}


def test_sign_tables_are_bounded_in_entries():
    for table in (permutations._signed_classes, permutations._orbits):
        assert 0 < table.bound <= 1 << 16 and table.held <= table.bound
        assert table.held == sum(map(table.size, table.values()))
    # a value that would pass the bound empties the table first, and a value
    # larger than the bound is returned but not kept
    table = permutations._Table(lambda k: list(range(k)), 5, len)
    assert (table[3], table[2]) == ([0, 1, 2], [0, 1])
    assert table.held == 5 and list(table) == [3, 2]
    assert table[1] == [0] and table.held == 1 and list(table) == [1]
    assert table[6] == list(range(6)) and table.held == 0 and not table


def test_sign_readers_stay_plain_functions():
    # the tracer wraps functions only, and the mutants patch these names
    for fn in (alt_chains.canonicalize, cochain_algebra.alternative_maker,
               cochain_algebra.is_alternative, cochain_algebra.alternating_cochain):
        assert inspect.isfunction(fn), fn
