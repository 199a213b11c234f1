"""Oriented flags, flips, unoriented equality, brackets, flagstaffs."""

from fractions import Fraction

import pytest

from eulerflags import flags
from eulerflags.flags import (bracket, bracket_selections,
                              flag_equal_unoriented, flagstaff, flip,
                              make_flag)
from eulerflags.linalg import InputError, PropertyViolation, mat_vec, ori
from eulerflags.randgen import RationalSampler

F = Fraction
E1, E2 = (1, 0), (0, 1)


def test_make_flag():
    std = make_flag((E1, E2))
    assert std.basis == ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(InputError):
        make_flag((E1, (2, 0)))
    assert flagstaff(make_flag((E2, E1))) == (0, 1)


def test_flip():
    std = make_flag((E1, E2))
    assert flip(std, 1).basis == ((F(-1), F(0)), (F(0), F(1)))
    assert flip(flip(std, 2), 2).basis == std.basis
    with pytest.raises(InputError):
        flip(std, 3)
    with pytest.raises(InputError):
        flip(std, 0)


def test_flip_orbit_size():
    std = make_flag((E1, E2))
    orbit = set()
    for p in range(4):
        G = std
        if p & 1:
            G = flip(G, 1)
        if p & 2:
            G = flip(G, 2)
        orbit.add(G.basis)
    assert len(orbit) == 4  # 2^n distinct oriented flags over one flag


def test_flag_equal_unoriented():
    std = make_flag((E1, E2))
    assert flag_equal_unoriented(std, make_flag(((2, 0), (1, 1))))
    assert not flag_equal_unoriented(std, make_flag((E2, E1)))
    assert flag_equal_unoriented(std, flip(std, 1))


def test_flagstaff():
    assert flagstaff(make_flag((E1, E2))) == (1, 0)
    assert flagstaff(flip(make_flag((E1, E2)), 1)) == (1, 0)
    assert flagstaff(make_flag(((1, 1), E1))) == (1, 1)


def test_bracket_pinned():
    Fa, Fb = make_flag((E2, E1)), make_flag((E1, E2))
    W = bracket((Fa, Fb))
    assert W.basis == ((F(0), F(1)), (F(1), F(0)))
    assert ori(W.basis) == -1

    std = make_flag((E1, E2))
    assert bracket((std, std)).basis == std.basis


def test_bracket_arity():
    std = make_flag((E1, E2))
    with pytest.raises(InputError):
        bracket((std, std, std))  # k > n
    assert bracket((std,)).dim == 1


@pytest.mark.parametrize("n", [2, 4])
def test_bracket_equivariance(n):
    s = RationalSampler(31 + n)
    for _ in range(25):
        Fs = s.flags(n, n)
        g = s.gl_matrix(n)
        left = bracket(tuple(Fl.apply(g) for Fl in Fs)).basis
        right = tuple(mat_vec(g, v) for v in bracket(Fs).basis)
        assert left == right


@pytest.mark.parametrize("n", [2, 4])
def test_bracket_spans_ignore_flips(n):
    # level selections depend only on underlying flags
    s = RationalSampler(47 + n)
    for _ in range(25):
        Fs = s.flags(n, n)
        _, sel = bracket_selections(Fs)
        Gs = tuple(flip(Fl, s.rng.randint(1, n)) for Fl in Fs)
        _, sel2 = bracket_selections(Gs)
        assert sel == sel2
        assert bracket(Fs).dim == n


STD4 = make_flag(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))


def test_span_that_cannot_extend_is_an_invariant_violation(monkeypatch):
    # a walk extends a span of dimension < n by a flag that spans R^n, so
    # some level is always off it; a span that holds every level is the
    # library's fault, as in the naive walk
    monkeypatch.setattr(flags._IntSpan, "contains_int", lambda self, iv: True)
    with pytest.raises(PropertyViolation, match="cannot extend a full space"):
        bracket((STD4, STD4))


def test_extension_by_a_member_is_an_invariant_violation(monkeypatch):
    # the walk extends a span only by a vector it found off the span; with
    # membership answered wrongly, the same level of equal flags is
    # selected twice and the second extension finds it inside
    monkeypatch.setattr(flags._IntSpan, "contains_int", lambda self, iv: False)
    with pytest.raises(PropertyViolation, match="already in span"):
        bracket((STD4, STD4, STD4))
