"""Point realization of flag tuples: every deleted-pair orientation
target must be hit exactly, and the output must span hereditarily."""

import functools
import gc
import hashlib
import itertools
import json
import math

import pytest

from eulerflags import flags
from eulerflags.cocycles import coc, coco
from eulerflags.flags import (bracket, bracket_selections, make_flag,
                              realize_points)
from eulerflags.linalg import (InputError, PropertyViolation,
                               hereditarily_spanning, ori)
from eulerflags.randgen import RationalSampler
from eulerflags.surfaces import genus_surface_bundle, rational_flat_rep


def _check_targets(Fs, xs, n):
    k = len(Fs)
    for i in range(k):
        for j in range(i + 1, k):
            keep = [t for t in range(k) if t not in (i, j)]
            assert ori([xs[t] for t in keep]) \
                == ori(bracket([Fs[t] for t in keep]).basis)


def test_standard_flag_copies():
    std = make_flag(((1, 0), (0, 1)))
    Fs = (std,) * 4
    xs = realize_points(Fs)
    assert hereditarily_spanning(xs)
    _check_targets(Fs, xs, 2)


@pytest.mark.parametrize("n,trials", [(2, 30), (4, 5), (6, 3)])
def test_random_flags(n, trials):
    s = RationalSampler(101 + n)
    for _ in range(trials):
        Fs = s.flags(n, n + 2)
        xs = realize_points(Fs)
        assert hereditarily_spanning(xs)
        _check_targets(Fs, xs, n)


@pytest.mark.parametrize("n,trials", [(4, 20), (6, 10)])
def test_outputs_are_small_primitive_integers(n, trials):
    # dyadic steps and gcd-divided points keep every coordinate within
    # 16 n bits
    s = RationalSampler(300 + n)
    for _ in range(trials):
        xs = realize_points(s.flags(n, n + 2))
        for x in xs:
            assert all(type(c) is int for c in x)
            assert math.gcd(*x) == 1
            assert max(abs(c).bit_length() for c in x) <= 16 * n


def test_spanning_flagstaff_targets():
    # with hereditarily spanning staffs the targets are staff orientations
    s = RationalSampler(3)
    n = 2
    for _ in range(10):
        Fs = s.spanning_flagstaff_flags(n, n + 2)
        xs = realize_points(Fs)
        for i in range(n + 2):
            for j in range(i + 1, n + 2):
                keep = [t for t in range(n + 2) if t not in (i, j)]
                staffs = [Fs[t].basis[0] for t in keep]
                assert ori([xs[t] for t in keep]) == ori(staffs)


def test_arity_check():
    std = make_flag(((1, 0), (0, 1)))
    with pytest.raises(InputError):
        realize_points((std, std, std))  # needs n+2 flags


# sha256 of the exact outputs (decimal strings of the primitive integer
# coordinates) on seeded tuples, recorded when realize_points moved to
# integer functionals and dyadic steps: the construction must not change a
# single coordinate.
REALIZE_PINS = {
    (2, 100): [
        "52f4f0704973595647fc2348e0b58c75e9a7361cc3cfb98abbc40c6c9fc7e9c0",
        "591688f1632463b3dca25d4e706988d122df4dbac8aa945d7a9932334ddb853b",
        "c4bc2e90e9df6e325721e963d48ab25630d18c6a380967a059ef6cb44d09fc0c",
        "5ccefe03cbbe9e59901cbfb6daffe7a28a019337f3d8080f85eb0e8fe6ca9e4a",
        "65c2ce9cb42651a924e3ec9250dccb53da6ca8908c975a1179140a254c9eda28",
        "3fccf463d74a0136fcd5786ac0adff5df634842bbd8facbe3b65def099557896",
        "64eb1e30f2788500d01a1841fb2103b9a40639dfa2a1837b78a44424978a953d",
        "0e582435d4aaf21ca980e5cf8851ea5f42c8be6938295d3e82e08e67f144255a",
        "7f7df67ae144c05707c37a67600dcc4dcccbc48f5d1e911523e04d09f10e0818",
        "b07c788d370295cac6714ef1242b65e90700576bc797c7d9f961ec1366ed7146",
    ],
    (4, 3): [
        "0c67e2ce241ac8089ea4939b37e9e1495ee41c08853d71779268b4907f94eb75",
        "0650f3331911b2acb3cb1ad0b5ddd0f7a0f6fb514bad39e593968bc4d8870d74",
        "1a8b0c0d8ad8b61bc572959fe05b3631fe43350d5a0d092b7f7f8641282f6238",
    ],
}


# the same digests on {-1, 0, 1} pool flags (RationalSampler(800 + n)),
# whose shared lines put bracket selection levels above 0 (the highest
# level over the deleted pairs is asserted per tuple); recorded before the
# bracket walks were shared across realize_points' stages.
POOL_PINS = {
    4: [
        ("002e227765e58afde8b6bd0649ce1c607a5985df4cc6b8089f3c9ab2984fe8dc", 3),
        ("1f0981454e6be069a54b9909c329167132e3cf97cb92215afa3de6c30aa1bc92", 1),
        ("1cea9acb4924f7b20ffb0b338244e8547cda7be0a7b2e1fc026aca7868de7402", 3),
        ("b30b5261937a3b0dda87be8e4b51461fa64e43495923d2e3f108f42312cf652e", 1),
        ("7f41645f23de7719bbefe37a9af729133290cf9bb3c11dd9e4abaa1e49020478", 1),
        ("08934e9173fb1e45e9e4f0edf7b3c7a4ccb61ef4883cb67d0a19e447c8f97b5e", 1),
        ("62e9ee47d671c40a12c92c4e96ffed19d1c5ba5c02031eb07bcdc6484406dbb5", 3),
        ("6e9771a836646550fb3fd3a86fa8d5561fd099a29b568fd97294926d6a8f5c1b", 2),
        ("cd33053e9cd8581feee0a7a38f93d83e2e24a656930f7bca266c5d9307f8253f", 1),
        ("9f869d99dc88c85df1408938dab2c2466b71383abd79a62d04e80c605baefe9a", 2),
    ],
    6: [
        ("f757feebe8d9d27e347ede82a447a8acfa96e1873496b18c6906b36b8e7e0e34", 3),
        ("98bb1bfac8beab4b19803e80856295c51f1d8c53cedd98e8ef19070588171e38", 2),
        ("97e02a6082f4be5b9ff26eac018778e88566122ad1b7ca99c24a6b3a4c10d163", 1),
        ("6fb3a530e4adcf9ad566933bf331d8493aa78c52a494a2a2e220bd99621fb577", 2),
    ],
}


def _digest(xs):
    doc = json.dumps([[str(x) for x in p] for p in xs])
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("n,m", sorted(REALIZE_PINS))
def test_outputs_pinned(n, m):
    s = RationalSampler(700 + n, m=m)
    for want in REALIZE_PINS[(n, m)]:
        assert _digest(realize_points(s.flags(n, n + 2))) == want


@pytest.mark.parametrize("n", sorted(POOL_PINS))
def test_pool_outputs_pinned(n):
    s = RationalSampler(800 + n)
    for want, top in POOL_PINS[n]:
        Fs = s.pool_flags(n, n + 2)
        assert max(max(bracket_selections([Fs[t] for t in range(n + 2)
                                           if t not in (i, j)])[1])
                   for i, j in itertools.combinations(range(n + 2), 2)) == top
        assert _digest(realize_points(Fs)) == want


def test_dependent_constraint_basis_is_an_invariant_violation(monkeypatch):
    # a bracket that failed to be independent is the library's fault, not
    # the caller's: realize_points reports it as a PropertyViolation.  At
    # n = 4 a constraint brackets up to three flags; selecting the same
    # level of equal flags makes its rows dependent.
    monkeypatch.setattr(flags._BracketWalk, "levels",
                        lambda self, idx: (0,) * len(tuple(idx)))
    std = make_flag(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(PropertyViolation, match="not a hyperplane"):
        realize_points((std,) * 6)


def _walked_prefixes(n):
    """The nonempty proper prefixes of the flag-index tuples realize_points
    brackets: each stage's constraint flags (those below k minus a pair)
    and the postcondition's n-tuples (all minus a pair)."""
    idxs = {tuple(a for a in range(k) if a not in pair)
            for k in range(n + 2)
            for pair in itertools.combinations([a for a in range(n + 2) if a != k], 2)}
    idxs |= {tuple(a for a in range(n + 2) if a not in pair)
             for pair in itertools.combinations(range(n + 2), 2)}
    return {t[:length] for t in idxs for length in range(1, len(t))}


@pytest.mark.parametrize("n", [2, 4, 6])
def test_walk_extends_each_prefix_once(n, monkeypatch):
    # one span extension per walked proper prefix, shared by every stage and
    # the postcondition, none after a walk's last flag: 3, 19 and 55 where
    # one walk per bracket made 18, 150 and 588
    calls = []
    extended = flags._IntSpan.extended

    def counted(self, iv):
        calls.append(iv)
        return extended(self, iv)

    monkeypatch.setattr(flags._IntSpan, "extended", counted)
    s = RationalSampler(900 + n)
    for Fs in (s.flags(n, n + 2), s.pool_flags(n, n + 2)):
        calls.clear()
        realize_points(Fs)
        assert len(calls) == len(_walked_prefixes(n)) == {2: 3, 4: 19, 6: 55}[n]


def test_walks_leave_no_reference_cycles():
    # a call's walk memo is freed by reference counting when the call
    # returns; a memo in a cycle would wait for the cyclic collector.  The
    # naive coc walk and the surface bundle's word memo are checked too
    s = RationalSampler(910)
    tuples = [s.pool_flags(4, 6) for _ in range(3)]
    naive = functools.partial(coc, mode="naive")
    calls = [(f, arg) for Fs in tuples
             for f, arg in ((realize_points, Fs), (coco, Fs[:5]), (coc, Fs[:5]))]
    calls += [(naive, s.pool_flags(2, 3)), (naive, tuples[0][:5]),
              (genus_surface_bundle, rational_flat_rep())]
    gc.collect()
    gc.disable()
    try:
        for f, arg in calls:
            f(arg)
            assert gc.collect() == 0, f
    finally:
        gc.enable()
