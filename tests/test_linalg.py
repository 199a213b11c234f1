"""Exact kernels: ori, sig, spanning tests, projective form, frame moves."""

import doctest
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eulerflags import cocycles, linalg
from eulerflags.linalg import (InputError, OddDimensionError, _clear, det, e0,
                               frame_transform, hereditarily_spanning,
                               int_vec, mat_vec, ori, primitive_int_vec,
                               projective_normalize, require_even, sig,
                               standard_basis)
from eulerflags.randgen import RationalSampler

F = Fraction


def test_ori_pinned_values():
    assert ori(((1, 0), (0, 1))) == 1
    assert ori(((0, 1), (1, 0))) == -1
    assert ori(((1, 2), (2, 4))) == 0


def test_sig_pinned_values():
    assert sig(((1, 0), (0, 1))) == 1
    assert sig(((-1, 0), (0, 1))) == -1
    assert sig(((0, 1), (1, 0))) == -1
    with pytest.raises(InputError):
        sig(((1, 2), (2, 4)))


def test_ori_dimension_mismatch():
    with pytest.raises(InputError):
        ori(((1, 0, 0), (0, 1, 0)))


def test_sig_rejects_non_square():
    with pytest.raises(InputError):
        sig(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(InputError):
        sig(((1, 0), (0, 1), (1, 1)))


def test_float_and_string_entries():
    # floats are refused as vec refuses them; strings parse as vec parses them
    for fn in (ori, lambda m: int_vec(m[0]), sig):
        with pytest.raises(InputError, match="float"):
            fn(((1.0, 0), (0, 1)))
    assert ori((("1/2", "0"), (" 0", "-3"))) == -1
    assert sig((("2", "1"), ("1", "1"))) == 1
    assert int_vec(("1/2", "-1/3", "0")) == (3, -2, 0)
    with pytest.raises(InputError):
        det(((1, 0), (0.5, 1)))


def _clear_oracle(xs):
    """The Fraction definition: L the positive lcm of the denominators,
    entries int(x * L)."""
    fs = [Fraction(x) for x in xs]
    den = math.lcm(*[x.denominator for x in fs])
    return den, tuple(int(x * den) for x in fs)


def test_clear_matches_fraction_definition():
    rng = random.Random(20260)
    kinds = set()
    for trial in range(400):
        bits = (8, 64, 200)[trial % 3]
        xs = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.choice(("zero", "int", "fraction", "str"))
            kinds.add(kind)
            num = rng.randint(-2 ** bits, 2 ** bits)
            den = rng.randint(1, 2 ** bits)
            if kind == "zero":
                xs.append(rng.choice((0, Fraction(0), "0")))
            elif kind == "int":
                xs.append(num)
            elif kind == "fraction":
                xs.append(Fraction(num, den))
            else:
                xs.append(f"{num}/{den}")
        want = _clear_oracle(xs)
        got = _clear(xs)
        assert got == want and got[0] > 0
        assert all(type(x) is int for x in got[1])
        assert int_vec(xs) == want[1]
        g = math.gcd(*want[1]) or 1
        assert primitive_int_vec(xs) == tuple(x // g for x in want[1])
    assert kinds == {"zero", "int", "fraction", "str"}
    assert _clear(()) == (1, ())
    assert _clear((Fraction(-3, 4), 0, -2)) == (4, (-3, 0, -8))
    # all-int input comes back as is; bool and numpy entries clear to ints
    ints = (5, -7, 0, 2 ** 200)
    assert _clear(ints) == (1, ints) and _clear(list(ints)) == (1, ints)
    for xs, want in (((True, False, -2), (1, (1, 0, -2))),
                     ((True, np.int64(3), -2), (1, (1, 3, -2))),
                     ((True, Fraction(1, 2), np.int64(-3)), (2, (2, 1, -6))),
                     ((np.uint8(7), np.int32(-5)), (1, (7, -5)))):
        got = _clear(xs)
        assert got == want and all(type(x) is int for x in got[1])
    with pytest.raises(InputError):
        _clear((Fraction(1, 2), 0.25))


def test_numpy_integers_become_python_ints():
    # kept as numpy scalars, entries this size would overflow int64
    big = np.int64(2 ** 40)
    assert det(((big, 1), (1, big))) == Fraction(2 ** 80 - 1)
    assert all(type(x.numerator) is int for x in linalg.vec((big, np.int8(-3))))
    assert all(type(x.numerator) is int for r in linalg.mat(((big,), (1,)))
               for x in r)
    rng = random.Random(19)
    for n in (2, 4):
        for _ in range(10):
            pts = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(n)]
                   for _ in range(n + 1)]
            want = cocycles.pcoc(pts)
            assert cocycles.pcoc([[np.int64(x) for x in p] for p in pts]) == want
    assert cocycles.pcoc(((np.int64(1), 0), (0, np.int64(1)), (1, 1))) \
        == cocycles.pcoc(((1, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("n", [2, 4])
def test_ori_alternating_and_equivariant(n):
    s = RationalSampler(11 + n)
    for _ in range(50):
        vs = [s.nonzero_vector(n) for _ in range(n)]
        i, j = s.rng.sample(range(n), 2)
        ws = list(vs)
        ws[i], ws[j] = ws[j], ws[i]
        assert ori(ws) == -ori(vs)
        g = s.gl_matrix(n)
        assert ori([mat_vec(g, v) for v in vs]) == sig(g) * ori(vs)
        lam = F(0)
        while lam == 0:
            lam = s.fraction()
        scaled = list(vs)
        scaled[i] = tuple(lam * x for x in vs[i])
        assert ori(scaled) == (1 if lam > 0 else -1) * ori(vs)


def test_det_exact_on_integer_input():
    d = det([[-5, 9, -7], [-1, -6, 6], [5, 6, 3]])
    assert d == Fraction(399) and isinstance(d, Fraction)
    d = det(((2, 1), (1, 3)))
    assert d == 5 and isinstance(d, Fraction)


def test_linalg_doctests():
    res = doctest.testmod(linalg)
    assert res.failed == 0 and res.attempted >= 8


def test_hereditarily_spanning_pinned():
    assert hereditarily_spanning(((1, 1), (1, 0), (0, 1)))
    assert not hereditarily_spanning(((1, 0), (0, 1), (1, 0)))
    assert hereditarily_spanning(((1, 1), (1, 2), (1, 3), (1, 4)))
    with pytest.raises(InputError):
        hereditarily_spanning(((1, 0),))  # k < n
    # n is the vectors' own dimension, which they must share
    with pytest.raises(InputError):
        hereditarily_spanning(((1, 0), (0, 1, 0)))
    with pytest.raises(InputError):
        hereditarily_spanning(((1, 0, 0), (0, 1), (1, 1)))
    # n is not an argument, so it cannot disagree with the vectors
    with pytest.raises(TypeError):
        hereditarily_spanning(((1, 0), (0, 1), (1, 1)), 3)
    with pytest.raises(TypeError):
        hereditarily_spanning(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2)


def test_projective_normalize_pinned():
    assert projective_normalize((F(-2), F(4))) == (1, -2)
    assert projective_normalize((F(0), F(-3))) == (0, 1)
    assert projective_normalize((F(2, 3), F(4, 3))) == (1, 2)
    with pytest.raises(InputError):
        projective_normalize((F(0), F(0)))


def test_projective_normalize_scale_invariant():
    s = RationalSampler(5)
    for _ in range(50):
        v = s.nonzero_vector(4)
        lam = F(0)
        while lam == 0:
            lam = s.fraction()
        assert projective_normalize(tuple(lam * x for x in v)) \
            == projective_normalize(v)


def test_frame_transform_pinned():
    n = 2
    e = standard_basis(n)
    idm = frame_transform((e0(n),) + e)
    assert idm == ((F(1), F(0)), (F(0), F(1)))
    g = frame_transform(((F(1), F(1)), (F(-1), F(1)), (F(0), F(1))))
    assert g == ((F(1), F(0)), (F(1, 2), F(1, 2)))
    perm = frame_transform((e0(n), e[1], e[0]))
    assert perm == ((F(0), F(1)), (F(1), F(0)))


@pytest.mark.parametrize("n", [2, 4])
def test_frame_transform_maps_to_frame(n):
    s = RationalSampler(n)
    targets = (e0(n),) + standard_basis(n)
    for _ in range(25):
        xs = s.spanning_tuple(n, n + 1)
        g = frame_transform(xs)
        for x, t in zip(xs, targets):
            assert projective_normalize(mat_vec(g, x)) \
                == projective_normalize(t)


def test_frame_transform_rejects_non_spanning():
    with pytest.raises(InputError):
        frame_transform(((1, 0), (0, 1), (1, 0)))
    with pytest.raises(InputError):
        # x_0 = x_1 + x_2 + x_3: zero coefficient on x_4
        e = standard_basis(4)
        frame_transform(((1, 1, 1, 0),) + e)


def test_require_even():
    assert require_even(4) == 4
    with pytest.raises(OddDimensionError):
        require_even(3)
    with pytest.raises(InputError):
        require_even(0)
