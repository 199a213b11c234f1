"""Exact kernels: ori, sig, spanning tests, projective form, frame moves."""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from eulerflags import cocycles, linalg
from eulerflags.linalg import (InputError, OddDimensionError, _clear, _det_int,
                               _integer, _seq, det, det_sign_int, e0, fr,
                               frame_transform,
                               hereditarily_spanning, identity, int_vec, mat,
                               mat_vec, ori,
                               primitive_int_vec, projective_normalize,
                               require_even, sig, vec)
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
        with pytest.raises(InputError, match="not a rational"):
            fn(((1.0, 0), (0, 1)))
    assert ori((("1/2", "0"), ("+0", "-3"))) == -1
    with pytest.raises(InputError, match="not a rational"):
        ori((("1/2", "0"), (" 0", "-3")))  # whitespace is refused
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
    # all-int input comes back as is; numpy entries clear to ints, bools raise
    ints = (5, -7, 0, 2 ** 200)
    assert _clear(ints) == (1, ints) and _clear(list(ints)) == (1, ints)
    for xs, want in (((1, 0, -2), (1, (1, 0, -2))),
                     ((1, np.int64(3), -2), (1, (1, 3, -2))),
                     ((1, Fraction(1, 2), np.int64(-3)), (2, (2, 1, -6))),
                     ((np.uint8(7), np.int32(-5)), (1, (7, -5)))):
        got = _clear(xs)
        assert got == want and all(type(x) is int for x in got[1])
    with pytest.raises(InputError):
        _clear((Fraction(1, 2), 0.25))
    for xs in ((True, 0, -2), (Fraction(1, 2), False)):
        with pytest.raises(InputError, match="not a rational"):
            _clear(xs)


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


def _bareiss_det(rows) -> int:
    """Fraction-free Bareiss elimination, the kernel that computed every
    determinant before the closed forms for k <= 4; kept as an oracle."""
    k = len(rows)
    if k == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for j in range(k - 1):
        p = j
        while p < k and a[p][j] == 0:
            p += 1
        if p == k:
            return 0
        if p != j:
            a[j], a[p] = a[p], a[j]
            sign = -sign
        pj = a[j][j]
        for i in range(j + 1, k):
            ai, aj = a[i], a[j]
            f = ai[j]
            for c in range(j + 1, k):
                ai[c] = (pj * ai[c] - f * aj[c]) // prev
            ai[j] = 0
        prev = pj
    return sign * a[k - 1][k - 1]


def _int_matrix(rng, k, bits, plant):
    entry = lambda: rng.randint(-2 ** bits, 2 ** bits)
    rows = [[entry() for _ in range(k)] for _ in range(k)]
    if plant == "zero-columns" and k >= 2:
        # zeros above the last row in the leading columns: Bareiss must swap
        for j in range(rng.randint(1, k - 1)):
            for i in range(k - 1 - j):
                rows[i][j] = 0
    elif plant == "dependent" and k >= 2:
        # row i = a row j + b row l, with j and l other rows than i
        i, j = rng.sample(range(k), 2)
        l = rng.choice([x for x in range(k) if x != i])
        a, b = entry(), rng.randint(-3, 3)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    elif plant == "zero-row" and k >= 1:
        rows[rng.randrange(k)] = [0] * k
    return rows


def test_det_int_against_bareiss_and_sympy():
    # closed forms (k <= 4) and Bareiss (k >= 5) against the old kernel and
    # sympy, on small and 200-bit entries, zero leading columns, planted
    # dependent and zero rows; a row swap must flip the sign
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    signs = {k: set() for k in range(7)}
    for k in range(7):
        for t in range(48):
            bits = (3, 200)[t % 2]
            plant = ("none", "zero-columns", "dependent", "zero-row")[t // 2 % 4]
            rows = _int_matrix(rng, k, bits, plant)
            want = _bareiss_det(rows)
            assert want == sympy.Matrix(k, k, [x for r in rows for x in r]).det()
            assert _det_int(rows) == want, rows
            assert _det_int(tuple(map(tuple, rows))) == want
            assert det_sign_int(rows) == (want > 0) - (want < 0)
            if plant == "dependent" and k >= 2:
                assert want == 0
            if k >= 2:
                i, j = rng.sample(range(k), 2)
                swapped = list(rows)
                swapped[i], swapped[j] = rows[j], rows[i]
                assert _det_int(swapped) == -want
            signs[k].add((want > 0) - (want < 0))
    assert signs[0] == {1}
    assert all(signs[k] == {-1, 0, 1} for k in range(1, 7)), signs


@pytest.mark.parametrize("rows, k, length", [
    ([[1, 2]], 1, 2),
    ([[1, 2, 3], [4, 5, 6]], 2, 3),
    ([[1, 2], [3, 4], [5, 6]], 3, 2),
    ([[1, 2], [3]], 2, 1),
    ([[1, 0, 0], [0, 1], [0, 0, 1]], 3, 2),
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1, 0]], 4, 5),
    ([[int(i == j) for j in range(6)] for i in range(5)], 5, 6),
    ([[int(i == j) for j in range(5)] for i in range(6)], 6, 5),
], ids=["1x2", "2x3", "3x2", "ragged-2", "ragged-3", "ragged-4", "5x6", "6x5"])
def test_det_sign_int_rejects_non_square(rows, k, length):
    # before the check, the first two gave the sign of a leading block and
    # the others an IndexError or a silent value
    with pytest.raises(InputError,
                       match=f"expected {k} rows of length {k}, got one of length {length}"):
        det_sign_int(rows)


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
    e = identity(n)
    idm = frame_transform((e0(n),) + e)
    assert idm == ((F(1), F(0)), (F(0), F(1)))
    g = frame_transform(((F(1), F(1)), (F(-1), F(1)), (F(0), F(1))))
    assert g == ((F(1), F(0)), (F(1, 2), F(1, 2)))
    perm = frame_transform((e0(n), e[1], e[0]))
    assert perm == ((F(0), F(1)), (F(1), F(0)))


@pytest.mark.parametrize("n", [2, 4])
def test_frame_transform_maps_to_frame(n):
    s = RationalSampler(n)
    targets = (e0(n),) + identity(n)
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
        e = identity(4)
        frame_transform(((1, 1, 1, 0),) + e)


def test_require_even():
    assert require_even(4) == 4
    with pytest.raises(OddDimensionError):
        require_even(3)
    with pytest.raises(InputError):
        require_even(0)


@pytest.mark.parametrize("x, want", [
    (3, F(3)), (-7, F(-7)), (np.int64(2 ** 40), F(2 ** 40)), (F(-3, 4), F(-3, 4)),
    ("-3/7", F(-3, 7)), ("+5", F(5)), ("2/4", F(1, 2)), ("-007/10", F(-7, 10)),
])
def test_fr_accepts(x, want):
    got = fr(x)
    assert got == want and type(got.numerator) is int


@pytest.mark.parametrize("x", [
    True, False, 1.0, 0.5, np.float64(2), Decimal("1.5"), "abc", "1/0", "",
    None, [], (1,), 1j,
    # only sign, ASCII digits and "/digits": no decimal, exponent,
    # underscore, whitespace, hex or non-ASCII digit forms
    "1e3", "1.5", "1_000", " 5 ", "5\n", "0x10", "\u0661", "1/-2", "--1",
    "inf", "nan", "1/", "/2",
])
def test_fr_rejects(x):
    with pytest.raises(InputError, match="not a rational"):
        fr(x)


def test_fr_refuses_exponents_before_parsing():
    # Fraction("1e4000000") builds a 13-million-bit integer in seconds
    t0 = time.perf_counter()
    with pytest.raises(InputError):
        fr("1e4000000")
    assert time.perf_counter() - t0 < 0.5


def test_sequence_rules():
    assert vec(["1/2", 3, F(1)]) == (F(1, 2), F(3), F(1))
    assert vec(iter((1, 2))) == (F(1), F(2)) and vec([]) == ()
    assert mat([[1, 0], ("0", "1")]) == identity(2)
    for bad in (5, None, "12", b"12"):
        with pytest.raises(InputError, match="vector must be a sequence"):
            vec(bad)
        with pytest.raises(InputError, match="matrix must be a sequence"):
            mat(bad)
        with pytest.raises(InputError, match="vector must be a sequence"):
            mat([bad])
    with pytest.raises(InputError, match="ragged"):
        mat([[1, 0], [1]])
    with pytest.raises(InputError, match="not a rational"):
        vec([1, True])


def test_integer_rule():
    assert _integer(3, "x") == 3 and _integer(-2 ** 70, "x") == -2 ** 70
    got = _integer(np.int8(-4), "x")
    assert got == -4 and type(got) is int
    for bad in (True, False, 2.0, "2", F(2), None, [2]):
        with pytest.raises(InputError, match="count must be an integer"):
            _integer(bad, "count")
    assert type(require_even(np.int64(4))) is int
    for bad in (2.0, "2", True, None, F(2)):
        with pytest.raises(InputError, match="ambient dimension must be an integer"):
            require_even(bad)


HUGE = "1" * 10 ** 6 + ".5"


@pytest.mark.parametrize("rule, value, message", [
    (fr, HUGE, "not a rational: '1111"),
    (lambda x: _integer(x, "count"), HUGE, "count must be an integer, got '1111"),
    (lambda x: _seq(x, "vector"), HUGE, "vector must be a sequence, got '1111"),
    (vec, 10 ** 5000, "vector must be a sequence, got "),
    (vec, [[10 ** 5000]], "not a rational: ["),
    (lambda x: _integer(x, "n"), [10 ** 5000], "n must be an integer, got ["),
], ids=["fr", "integer", "seq", "vec-huge-int", "vec-holds-huge-int",
        "integer-holds-huge-int"])
def test_refused_value_is_echoed_bounded(rule, value, message):
    # a 1 MB refused value, or an int past repr's digit limit, is echoed in
    # a bounded form, so the message stays short whatever the size of the
    # input and the error is an InputError, not repr's ValueError
    with pytest.raises(InputError) as info:
        rule(value)
    assert str(info.value).startswith(message) and len(str(info.value)) < 200


def _random_pair(rng, k, den_sign=1):
    """A cleared pair (L, G) of a random k x k rational matrix, L of the
    given sign."""
    m = [[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)] for _ in range(k)]
    den, rows = linalg._clear_matrix(m)
    return den_sign * den, rows if den_sign > 0 else tuple(
        tuple(-x for x in r) for r in rows)


def test_pair_algebra_matches_fractions():
    rng = random.Random(2811)
    inverted = 0
    for trial in range(300):
        k = 2 + trial % 3
        p, q = _random_pair(rng, k), _random_pair(rng, k, rng.choice((1, -1)))
        assert linalg._fractions(linalg._pair_mul(p, q)) == linalg.mat_mul(
            linalg._fractions(p), linalg._fractions(q))
        if det(linalg._fractions(q)) != 0:
            inverted += 1
            assert linalg._fractions(linalg._inverse(q)) == linalg.mat_inv(
                linalg._fractions(q))
            assert linalg._inverse(q)[0] > 0
    assert inverted > 250


def _close_oracle(p, q, tol):
    # the relative bound on the rational matrices themselves
    a, b = linalg._fractions(p), linalg._fractions(q)
    scale = max([F(1)] + [abs(x) for r in a + b for x in r])
    return all(abs(x - y) <= tol * scale for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def test_close_is_the_rational_bound():
    rng = random.Random(2812)
    outcomes = set()
    for trial in range(200):
        k = 2 + trial % 3
        p = _random_pair(rng, k)
        # tol = 0: equality of the rational matrices, whatever the denominators
        c = rng.randint(1, 5)
        same = (c * p[0], tuple(tuple(c * x for x in r) for r in p[1]))
        assert linalg._close(p, same, F(0)) and _close_oracle(p, same, F(0))
        q = _random_pair(rng, k)
        assert linalg._close(p, q, F(0)) == (linalg._fractions(p) == linalg._fractions(q))
        # tol > 0 set exactly at the bound of q's (i, j) entry moved by d,
        # then that entry at the bound - 1, the bound and the bound + 1
        db, b = c * p[0], [[c * x for x in r] for r in p[1]]
        i, j, d = rng.randrange(k), rng.randrange(k), rng.randint(1, 40)
        b[i][j] += d
        q = (db, tuple(map(tuple, b)))
        scale = max([F(1)] + [abs(x) for r in linalg._fractions(p) + linalg._fractions(q)
                              for x in r])
        tol = F(d, db) / scale
        assert _close_oracle(p, q, tol)
        for step in (-1, 0, 1):
            b[i][j] = c * p[1][i][j] + d + step
            q = (db, tuple(map(tuple, b)))
            want = _close_oracle(p, q, tol)
            assert linalg._close(p, q, tol) == want
            outcomes.add((step, want))
    assert {(-1, True), (0, True), (1, False)} <= outcomes
