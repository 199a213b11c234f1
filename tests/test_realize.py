"""Point realization of flag tuples: every deleted-pair orientation
target must be hit exactly, and the output must span hereditarily."""

import hashlib
import json
from types import SimpleNamespace

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


@pytest.mark.parametrize("n,trials", [(2, 30), (4, 5)])
def test_random_flags(n, trials):
    s = RationalSampler(101 + n)
    for _ in range(trials):
        Fs = s.flags(n, n + 2)
        xs = realize_points(Fs)
        assert hereditarily_spanning(xs)
        _check_targets(Fs, xs, n)


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


# sha256 of the exact outputs ("p/q" strings) on seeded tuples, recorded
# before realize_points took its constraint targets from the cofactor
# functionals: the construction must not change a single coordinate.
REALIZE_PINS = {
    (2, 100): [
        "c8666523fa6e1c6b9a0ef634c2785cffb6edb6aea37024434012da5b32eff3eb",
        "84cfd2551ccbd7947623e888bdbcbd4626f9eb500440fa0cf1329657b24758b9",
        "a1334d9196d00059d827bbc2f0fdf0b6b18ca52b671a0b200fae0e99b561eefb",
        "d0dd652040b9f0b294bda6631fe543460ffa6203169b7f46e97fd1f980d95dbb",
        "6b09137ee200e61d458393f1ef1f77c39b17c5b56ffe4761991f5d5e64807652",
        "5632d4c173c7b089f4d320da27d63308582078a798a3fcc5d7c7e4e2b14e699a",
        "94d65b36757b2b8793db39e4f7659869aba619beab29fe3c38847b1096d56a72",
        "e4167634b51760b7c2040a8164494e2c1d7a9393f94f0e81bbc51261a70f4bd8",
        "7db5c68dedf27767fa0baca418c459840446191c683bb11dd94d1ffd9218d855",
        "87e011cd7beaf699e7506bb70c422477d0ab3fd5ec2ed32ffc71ad46efd81b06",
    ],
    (4, 3): [
        "aba02ae9d0790abe60abb08ae577da43c411560c290a507aa69bd5dd0f1afdee",
        "8a79903093b7fefd5e4edb90dea67d643d1b16de1a878199fe639285a3b73535",
        "7b53d443e948f3d8ee5b620b38c542e31a64195889fef27e8e24ed4bca79f6b2",
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
    # the caller's: realize_points reports it as a PropertyViolation
    monkeypatch.setattr(flags, "bracket", lambda Fs: SimpleNamespace(
        basis=tuple((0, 0) for _ in Fs)))
    std = make_flag(((1, 0), (0, 1)))
    with pytest.raises(PropertyViolation, match="not a hyperplane"):
        realize_points((std,) * 4)
