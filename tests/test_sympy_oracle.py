"""sympy as a second exact oracle for the Bareiss kernel, the signed
minors built on it, and _IntSpan.

Seeded rational matrices of size 1..5, with planted singular ones (repeated
or combined rows, zero rows) and entries of 200+ bits, are checked against
sympy's det, inv, LUsolve and rank.
"""

import math
import random
from fractions import Fraction

import pytest

from eulerflags.flags import (_cofactor_functional, flag_equal_unoriented,
                              make_flag)
from eulerflags.linalg import (InputError, _clear, _minors, det,
                               det_sign_int, e0, frame_transform, identity,
                               int_vec, mat_inv, mat_vec)

sympy = pytest.importorskip("sympy")


def _to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _sym(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                          for x in r] for r in rows])


def _entry(rng, big):
    if big:
        num = rng.getrandbits(rng.randint(200, 240)) * rng.choice((1, -1))
        return Fraction(num, rng.getrandbits(rng.randint(1, 220)) or 1)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _matrix(rng, k, big):
    rows = [[_entry(rng, big) for _ in range(k)] for _ in range(k)]
    plant = rng.random()
    if plant < 0.15:
        rows[rng.randrange(k)] = [Fraction(0)] * k
    elif plant < 0.35 and k >= 2:
        i, j = rng.sample(range(k), 2)
        rows[i] = list(rows[j])
    elif plant < 0.5 and k >= 3:
        i, j, l = rng.sample(range(k), 3)
        a, b = _entry(rng, False), _entry(rng, big)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    return tuple(tuple(r) for r in rows)


def test_det_inverse_against_sympy():
    rng = random.Random(20260501)
    seen = {"singular": 0, "nonsingular": 0, "big": 0}
    for t in range(520):
        k = 1 + t % 5
        big = t % 7 == 3
        m = _matrix(rng, k, big)
        sm = _sym(m)
        d = _to_fraction(sm.det())
        assert det(m) == d, m
        sign = (d > 0) - (d < 0)
        assert det_sign_int([int_vec(r) for r in m]) == sign
        seen["big"] += big
        if d == 0:
            seen["singular"] += 1
            with pytest.raises(InputError):
                mat_inv(m)
        else:
            seen["nonsingular"] += 1
            inv = sm.inv()
            assert mat_inv(m) == tuple(tuple(_to_fraction(inv[i, j])
                                             for j in range(k))
                                       for i in range(k)), m
    assert min(seen.values()) >= 70, seen


def test_minors_against_sympy():
    # k + 1 integer rows of length k: c_i = (-1)^i det(rows minus row i),
    # and sum_i c_i rows_i = 0
    rng = random.Random(20261018)
    zero = 0
    for t in range(300):
        k = 1 + t % 5
        big = t % 7 == 3
        rows = [int_vec(r) for r in _matrix(rng, k, big)]
        if rng.random() < 0.3:  # the extra row repeats or combines the others
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            i, j = rng.randrange(k), rng.randrange(k)
            rows.append(tuple(a * x + b * y for x, y in zip(rows[i], rows[j])))
        else:
            rows.append(tuple(rng.randint(-9, 9) for _ in range(k)))
        rng.shuffle(rows)
        got = _minors(rows)
        want = [(-1) ** i * int(sympy.Matrix(rows[:i] + rows[i + 1:]).det())
                for i in range(k + 1)]
        assert got == want, rows
        assert all(sum(c * r[a] for c, r in zip(got, rows)) == 0
                   for a in range(k))
        zero += got.count(0)
    assert zero >= 50, zero


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cofactor_functional_against_sympy(n):
    # for n - 1 rational basis rows cleared to integers with row lcms L_r,
    # the integer functional m satisfies m.x = (prod L_r) det(basis..., x)
    rng = random.Random(31 + n)
    dependent = 0
    for t in range(40):
        basis = [tuple(_entry(rng, t % 5 == 2) for _ in range(n))
                 for _ in range(n - 1)]
        if t % 4 == 1 and n > 2:    # a dependent basis: m vanishes
            basis[0] = basis[-1]
        lcms, rows = zip(*map(_clear, basis))
        m = _cofactor_functional(list(rows))
        assert all(type(c) is int for c in m)
        dependent += not any(m)
        for _ in range(3):
            x = tuple(_entry(rng, False) for _ in range(n))
            assert sum(c * xi for c, xi in zip(m, x)) \
                == math.prod(lcms) * _to_fraction(_sym(basis + [x]).det())
    assert dependent >= (5 if n > 2 else 0), dependent


@pytest.mark.parametrize("n", [2, 4])
def test_frame_transform_coefficients_against_sympy(n):
    # g sends c_i x_i to e_i, so (g x_i)_i = 1 / c_i and g x_0 = e_0, where
    # c solves sum_i c_i x_i = x_0.
    rng = random.Random(7 + n)
    e = identity(n)
    outcomes = {"ok": 0, "not spanning": 0, "zero coefficient": 0}
    for t in range(60):
        xs = [tuple(_entry(rng, t % 5 == 2) for _ in range(n))
              for _ in range(n + 1)]
        if t % 6 == 1:      # x_0 in the span of x_1..x_{n-1}
            xs[0] = tuple(sum(c) for c in zip(*xs[1:n]))
        elif t % 6 == 4:    # x_n repeats x_1
            xs[n] = xs[1]
        cols = sympy.Matrix.hstack(*[_sym([x]).T for x in xs[1:]])
        if cols.det() == 0:
            outcomes["not spanning"] += 1
            with pytest.raises(InputError):
                frame_transform(xs)
            continue
        cs = [_to_fraction(c) for c in cols.LUsolve(_sym([xs[0]]).T)]
        if 0 in cs:
            outcomes["zero coefficient"] += 1
            with pytest.raises(InputError):
                frame_transform(xs)
            continue
        outcomes["ok"] += 1
        g = frame_transform(xs)
        assert mat_vec(g, xs[0]) == e0(n)
        for i, (c, x) in enumerate(zip(cs, xs[1:])):
            assert mat_vec(g, x) == tuple(y / c for y in e[i])
    assert min(outcomes.values()) >= 5, outcomes


def _nonsingular(rng, n, big):
    while True:
        rows = [tuple(_entry(rng, big) for _ in range(n)) for _ in range(n)]
        if _sym(rows).det() != 0:
            return rows


def _combined(basis, perm, rng):
    # level i of the result adds basis[perm[i]] (nonzero coefficient) to a
    # random combination of basis[perm[0]], ..., basis[perm[i - 1]]
    out = []
    for i in range(len(basis)):
        coeffs = [_entry(rng, False) for _ in range(i)] + [Fraction(rng.choice((-3, -1, 1, 2)))]
        out.append(tuple(sum(c * basis[perm[j]][a] for j, c in enumerate(coeffs))
                         for a in range(len(basis))))
    return out


def test_flag_equality_against_sympy_ranks():
    rng = random.Random(99)
    first_diff = {}
    equal = 0
    for t in range(150):
        n = 2 + t % 4
        basis = _nonsingular(rng, n, t % 9 == 0)
        perm = list(range(n))
        if t % 3 == 1:      # swap the vectors that levels m and m + 1 add
            m = rng.randint(1, n - 1)
            perm[m - 1], perm[m] = perm[m], perm[m - 1]
        G = make_flag(_nonsingular(rng, n, False) if t % 3 == 2
                      else _combined(basis, perm, rng))
        F = make_flag(basis)
        expected = True
        for i in range(1, n + 1):
            if _sym(basis[:i] + list(G.basis[:i])).rank() != i:
                expected = False
                first_diff[i] = first_diff.get(i, 0) + 1
                break
        equal += expected
        assert flag_equal_unoriented(F, G) == expected
        assert flag_equal_unoriented(G, F) == expected
    # equal pairs, and pairs first differing at level 1 and at middle levels
    assert equal >= 30 and {1, 2, 3} <= set(first_diff), (equal, first_diff)
