"""Exact rational linear algebra for orientation computations.

Vectors are tuples of Fraction, matrices are tuples of row tuples acting on
column vectors.  Everything here is decided exactly, with no tolerance.
The one clearing rule, _clear, maps rationals to the positive lcm L of
their denominators and the integers numerator * (L // denominator); every
input is cleared by it once, and every integer kernel reads its output:
determinants and orientations go through one fraction-free (Bareiss)
kernel, _det_int, and every signed family of minors through one routine
on it, _minors, the kernel vector of k + 1 integer rows of length k.
_minors gives the Cramer signs of a point tuple, each row of an
inverse's adjugate, the Cramer coefficients of frame_transform and the
cofactor functional of point realization.  Spans go through the
incremental integer echelon flags._IntSpan, whose rows _primitive
divides by their gcd.

>>> ori(((1, 0), (0, 1)))
1
>>> ori(((0, 1), (1, 0)))
-1
>>> ori(((1, 2), (2, 4)))
0
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction


class InputError(ValueError):
    """Invalid input data (wrong shape, singular where nonsingular needed...)."""


class OddDimensionError(InputError):
    """The constructions only exist for even ambient dimension."""


class PropertyViolation(AssertionError):
    """A library invariant failed; raised explicitly so it survives -O."""


def require_even(n: int) -> int:
    if n < 2 or n % 2 != 0:
        raise OddDimensionError(f"ambient dimension must be even and >= 2, got {n}")
    return n


def fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise InputError(f"refusing to coerce float {x!r} to an exact rational")
    if type(x) is not int and isinstance(x, numbers.Integral):
        x = int(x)  # a numpy integer would stay fixed width inside Fraction
    return Fraction(x)


def vec(xs) -> tuple[Fraction, ...]:
    return tuple(fr(x) for x in xs)


def mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise InputError("ragged matrix")
    return m


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def _clear(xs) -> tuple[int, tuple[int, ...]]:
    """(L, ints): the positive lcm L of the denominators of xs and the
    entries numerator * (L // denominator), so that ints = L * xs exactly.
    All-int input is returned as is, with L = 1.  Other entries that are
    not int or Fraction go through fr (strings parse, floats raise
    InputError)."""
    xs = tuple(xs)
    if all(type(x) is int for x in xs):
        return 1, xs
    xs = [x if isinstance(x, (int, Fraction)) else fr(x) for x in xs]
    den = math.lcm(*[x.denominator for x in xs])
    return den, tuple(x.numerator * (den // x.denominator) for x in xs)


def _primitive(ints) -> tuple[int, ...]:
    """Integer vector divided by the gcd of its entries (positive scaling)."""
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def int_vec(v) -> tuple[int, ...]:
    """Clear denominators by the positive lcm; sign and direction preserved.

    >>> int_vec((Fraction(1, 2), -1, "2/3"))
    (3, -6, 4)
    """
    return _clear(v)[1]


def primitive_int_vec(v) -> tuple[int, ...]:
    """int_vec divided by the gcd of its entries (positive scaling only)."""
    return _primitive(int_vec(v))


def projective_normalize(v) -> tuple[int, ...]:
    """Canonical representative of a projective point.

    Primitive integer vector with the first nonzero coordinate positive:
    equality of canonical forms decides equality in P(R^n).

    >>> projective_normalize((Fraction(-2), Fraction(4)))
    (1, -2)
    >>> projective_normalize((Fraction(0), Fraction(-3)))
    (0, 1)
    """
    iv = primitive_int_vec(v)
    if not any(iv):
        raise InputError("zero vector has no projective class")
    for x in iv:
        if x != 0:
            if x < 0:
                iv = tuple(-y for y in iv)
            break
    return iv


def _det_int(rows) -> int:
    """Exact determinant of a square integer matrix.

    Bareiss fraction-free elimination; all intermediates are exact ints.
    """
    k = len(rows)
    if k == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for j in range(k - 1):
        # pivot search
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


def det_sign_int(rows: list[list[int]]) -> int:
    """Sign of the determinant of a square integer matrix, in {-1, 0, 1}."""
    d = _det_int(rows)
    return (d > 0) - (d < 0)


def _minors(rows: list) -> list[int]:
    """Signed maximal minors c_i = (-1)^i det(rows minus row i) of k + 1
    integer rows of length k: the kernel vector, sum_i c_i rows_i = 0.

    >>> _minors([(1, 1), (1, 0), (0, 1)])
    [1, -1, -1]
    """
    return [(-1) ** i * _det_int(rows[:i] + rows[i + 1:]) for i in range(len(rows))]


def _cleared(m):
    """Per-row lcms of a square matrix and its rows, each cleared by _clear."""
    cleared = [_clear(r) for r in m]
    k = len(cleared)
    for _, r in cleared:
        if len(r) != k:
            raise InputError(f"expected {k} rows of length {k}, got one of length {len(r)}")
    return [lcm for lcm, _ in cleared], [r for _, r in cleared]


def det(m) -> Fraction:
    """Exact determinant of a square row matrix.

    >>> det(((2, 1), (1, 3)))
    Fraction(5, 1)
    """
    lcms, rows = _cleared(m)
    return Fraction(_det_int(rows), math.prod(lcms))


def ori(vs) -> int:
    """Orientation sign of k vectors in dimension k: sign det, 0 if dependent.

    The vectors are the columns of the matrix; det is transpose-invariant so
    they can be eliminated as rows directly.
    """
    return det_sign_int(_cleared(vs)[1])


def _cramer_signs(ints) -> tuple[int, ...]:
    """Cramer signs s_i = (-1)^i ori(vs minus i) of n + 1 vectors in
    dimension n, already cleared to integers and shape checked.

    >>> _cramer_signs(((1, 1), (1, 0), (0, 1)))
    (1, -1, -1)
    """
    return tuple((c > 0) - (c < 0) for c in _minors(ints))


def sig(g) -> int:
    """Sign of det(g) for a square nonsingular g."""
    s = ori(g)
    if s == 0:
        raise InputError("sig is undefined on singular matrices")
    return s


def mat_vec(m, v) -> tuple[Fraction, ...]:
    if len(m[0]) != len(v):
        raise InputError("matrix/vector shape mismatch")
    return tuple(sum(r[c] * v[c] for c in range(len(v))) for r in m)


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise InputError("matrix shape mismatch")
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, col)) for col in bt) for r in a)


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_inv(m):
    """Exact inverse: the integer adjugate of the cleared rows over their
    determinant, each column j rescaled by row j's denominator lcm.  Row i
    of the adjugate is (-1)^i times the signed minors of the cleared rows
    with column i deleted.

    >>> mat_inv(((2, 1), (1, 1)))
    ((Fraction(1, 1), Fraction(-1, 1)), (Fraction(-1, 1), Fraction(2, 1)))
    """
    lcms, rows = _cleared(m)
    d = _det_int(rows)
    if d == 0:
        raise InputError("singular matrix has no inverse")
    out = []
    for i in range(len(rows)):
        adj = _minors([r[:i] + r[i + 1:] for r in rows])
        out.append(tuple(Fraction(-c * l if i % 2 else c * l, d)
                         for c, l in zip(adj, lcms)))
    return tuple(out)


def hereditarily_spanning(xs) -> bool:
    """True iff every n-subset of the k >= n vectors of dimension n spans
    (all dets nonzero)."""
    ints = [int_vec(v) for v in xs]
    if not ints:
        raise InputError("empty tuple")
    n = len(ints[0])
    if any(len(v) != n for v in ints):
        raise InputError("vectors of mixed dimension")
    if len(ints) < n:
        raise InputError(f"need at least n={n} vectors, got {len(ints)}")
    return all(det_sign_int(sub) != 0 for sub in itertools.combinations(ints, n))


def frame_transform(xs):
    """g with g*xs_0 ~ e_0 = e_1+...+e_n and g*xs_i ~ e_i, for a hereditarily
    spanning (n+1)-tuple; the action on such tuples is simply transitive.

    >>> g = frame_transform(((Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))))
    >>> g
    ((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 2)))
    """
    xs = tuple(vec(v) for v in xs)
    n = len(xs[0])
    require_even(n)
    if len(xs) != n + 1:
        raise InputError(f"frame_transform needs n+1={n + 1} vectors")
    lcms, rows = _cleared(xs[1:])
    l0, r0 = _clear(xs[0])
    # the kernel vector of (x_0, x_1, ..., x_n): sum_i lam_i rows_i = 0, so
    # sum_i c_i x_i = x_0 with c_i = -lam_{i+1} L_i / (lam_0 L_0)
    lam = _minors([r0] + rows)
    if lam[0] == 0:
        raise InputError("not hereditarily spanning: x_1..x_n do not span")
    cs = [Fraction(-lam[i + 1] * lcms[i], lam[0] * l0) for i in range(n)]
    if any(c == 0 for c in cs):
        raise InputError("not hereditarily spanning: x_0 has a zero coefficient over x_1..x_n")
    m = tuple(zip(*[tuple(c * x for x in col) for c, col in zip(cs, xs[1:])]))
    return mat_inv(m)


def standard_basis(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def e0(n):
    """e_0 = e_1 + ... + e_n."""
    return tuple(Fraction(1) for _ in range(n))
