"""Point realization of flag tuples: every deleted-pair orientation
target must be hit exactly, and the output must span hereditarily."""

import hashlib
import json
import math

import pytest

from eulerflags import flags
from eulerflags.flags import bracket, make_flag, realize_points
from eulerflags.linalg import (InputError, PropertyViolation,
                               hereditarily_spanning, ori)
from eulerflags.randgen import RationalSampler


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


@pytest.mark.parametrize("n,m", sorted(REALIZE_PINS))
def test_outputs_pinned(n, m):
    s = RationalSampler(700 + n, m=m)
    for want in REALIZE_PINS[(n, m)]:
        xs = realize_points(s.flags(n, n + 2))
        doc = json.dumps([[str(x) for x in p] for p in xs])
        assert hashlib.sha256(doc.encode()).hexdigest() == want


def test_dependent_constraint_basis_is_an_invariant_violation(monkeypatch):
    # a bracket that failed to be independent is the library's fault, not
    # the caller's: realize_points reports it as a PropertyViolation.  At
    # n = 4 a constraint brackets up to three flags; selecting the same
    # level of equal flags makes its rows dependent.
    monkeypatch.setattr(flags, "_selections",
                        lambda Fs: (None, (0,) * len(Fs)))
    std = make_flag(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(PropertyViolation, match="not a hyperplane"):
        realize_points((std,) * 6)
