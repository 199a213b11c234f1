"""Exact rational linear algebra for orientation computations.

Vectors are tuples of Fraction, matrices are tuples of row tuples acting on
column vectors.  Everything here is decided exactly, with no tolerance.
The one clearing rule, _clear, maps rationals to the positive lcm L of
their denominators and the integers numerator * (L // denominator); every
input is cleared by it once (a square matrix as one vector, by
_clear_matrix), and every integer kernel reads its output: determinants
and orientations go through one kernel, _det_int (closed forms up to
4x4, which covers every n <= 4 path, and fraction-free Bareiss
elimination above), and every signed family of minors through one
routine on it, _minors, the kernel vector of k + 1 integer rows of
length k.  _minors gives the Cramer signs of a point tuple, the
adjugate rows of the one cleared inverse, _inverse, the Cramer
coefficients of frame_transform and the cofactor functional of point
realization.  Spans go through the incremental integer echelon
flags._IntSpan, whose rows _primitive divides by their gcd.  A cleared
matrix is a pair (L, G = L g), read by _glp, multiplied by _pair_mul,
inverted by _inverse, compared by _close and turned back into Fractions
by _fractions, here alone: simplicial and surfaces call them.

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
import operator
import re
import reprlib
from fractions import Fraction


class InputError(ValueError):
    """Invalid input data (wrong shape, singular where nonsingular needed...)."""


class OddDimensionError(InputError):
    """The constructions only exist for even ambient dimension."""


class PropertyViolation(AssertionError):
    """A library invariant failed; raised explicitly so it survives -O."""


# how a refused value is echoed in an InputError: reprlib's bounded form,
# one container level deep, so a message stays short whatever the input;
# an int past repr's digit limit is echoed by its bit length
class _Echo(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_echo = _Echo()
_echo.maxlevel = 1


def require_even(n) -> int:
    n = _integer(n, "ambient dimension")
    if n < 2 or n % 2 != 0:
        raise OddDimensionError(f"ambient dimension must be even and >= 2, got {n}")
    return n


def _integer(x, what: str) -> int:
    """x as an int, for integral x other than bool; else InputError."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {_echo.repr(x)}")
    return int(x)  # a numpy integer would stay fixed width


def _seq(xs, what: str, length=None) -> tuple:
    """xs as a tuple for a non-string iterable (of length items if given); else InputError."""
    if type(xs) is not tuple:
        if isinstance(xs, (str, bytes)) or not hasattr(xs, "__iter__"):
            raise InputError(f"{what} must be a sequence, got {_echo.repr(xs)}")
        xs = tuple(xs)
    if length is not None and len(xs) != length:
        raise InputError(f"{what} must have {length} items, got {_echo.repr(xs)}")
    return xs


def _tuple(xs, what: str, dim=len, extra=None, n=None) -> tuple[tuple, int]:
    """(xs as a tuple, d) for a nonempty non-string sequence whose items
    share one dimension d = dim(item), the declared n if one is given; with
    extra, d must also be even and the tuple must hold exactly d + extra
    items.  Else InputError."""
    xs = _seq(xs, what)
    if not xs:
        raise InputError(f"no {what} given")
    d = dim(xs[0])
    for x in xs:
        if dim(x) != d:
            raise InputError(f"{what} of mixed dimension")
    if n is not None and d != n:
        raise InputError(f"{what} of dimension {d}, not the declared n={n}")
    if extra is not None:
        require_even(d)
        if len(xs) != d + extra:
            raise InputError(f"need {d + extra} {what} in dimension n={d}, got {len(xs)}")
    return xs, d


# an optional sign, ASCII digits, optionally "/" and ASCII digits; no
# decimal, exponent, underscore or whitespace forms, whose Fraction parse
# can build integers of unbounded size ("1e4000000")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def fr(x) -> Fraction:
    """x as an exact rational: a Fraction, an int (not a bool) or a rational
    string such as "-3/7" or "+5"; anything else raises InputError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        if _RATIONAL.fullmatch(x):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):  # "1/0", over 4300 digits
                pass
    elif not isinstance(x, bool) and isinstance(x, numbers.Integral):
        return Fraction(int(x))
    raise InputError(f"not a rational: {_echo.repr(x)}")


def vec(xs) -> tuple[Fraction, ...]:
    return tuple(fr(x) for x in _seq(xs, "vector"))


def _rows(m) -> tuple[tuple, ...]:
    """m as a tuple of row tuples of one length; else InputError."""
    m = tuple([_seq(r, "matrix row") for r in _seq(m, "matrix")])
    if len(set(map(len, m))) > 1:
        raise InputError("ragged matrix")
    return m


def _numeric(xs, what: str):
    """xs as it is if each entry of its nested lists and tuples is an int or
    a float, numpy's and arrays of integer or float dtype included; else
    (a bool, a string, a Fraction...) InputError."""
    todo = [xs]
    while todo:
        x = todo.pop()
        kind = getattr(getattr(x, "dtype", None), "kind", None)
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif type(x) not in (int, float) and kind not in ("i", "u", "f"):
            raise InputError(f"{what} entries must be ints or floats, got {_echo.repr(x)}")
    return xs


def mat(rows) -> tuple[tuple[Fraction, ...], ...]:
    return _rows(tuple(vec(r) for r in _seq(rows, "matrix")))


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def _clear(xs) -> tuple[int, tuple[int, ...]]:
    """(L, ints): the positive lcm L of the denominators of xs and the
    entries numerator * (L // denominator), so that ints = L * xs exactly.
    All-int input is returned as is, with L = 1.  Other entries that are
    not int or Fraction go through fr (strings parse, floats and bools
    raise InputError)."""
    xs = _seq(xs, "vector")
    if all(type(x) is int for x in xs):
        return 1, xs
    xs = [x if type(x) is int or isinstance(x, Fraction) else fr(x) for x in xs]
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

    Closed forms up to k = 4 (k = 3 by expansion along the first row,
    k = 4 by Laplace expansion of the top two rows' six 2x2 minors against
    their complementary bottom minors), fraction-free Bareiss elimination
    above; all intermediates are exact ints.

    >>> _det_int([[7]]), _det_int([[1, 2], [3, 4]])
    (7, -2)
    >>> _det_int([[2, 0, 1], [1, 3, 0], [0, 1, 4]])
    25
    >>> _det_int([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    1
    >>> _det_int([[2, 0, 1, 3], [1, 3, 0, 1], [0, 1, 4, 2], [1, 1, 1, 1]])
    -17
    """
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
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


def _require_square(rows):
    """InputError unless rows are k rows of length k."""
    k = len(rows)
    for r in rows:
        if len(r) != k:
            raise InputError(f"expected {k} rows of length {k}, got one of length {len(r)}")


def det_sign_int(rows: list[list[int]]) -> int:
    """Sign of the determinant of a square integer matrix, in {-1, 0, 1};
    InputError on non-square or ragged rows."""
    _require_square(rows)
    d = _det_int(rows)
    return (d > 0) - (d < 0)


def _minors(rows: list) -> list[int]:
    """Signed maximal minors c_i = (-1)^i det(rows minus row i) of k + 1
    integer rows of length k: the kernel vector, sum_i c_i rows_i = 0.

    >>> _minors([(1, 1), (1, 0), (0, 1)])
    [1, -1, -1]
    """
    return [(-1) ** i * _det_int(rows[:i] + rows[i + 1:]) for i in range(len(rows))]


def _clear_matrix(m):
    """(L, rows) of a square matrix: its entries cleared together by _clear,
    so that rows = L * m with L the positive lcm of all its denominators."""
    m = _rows(m)
    _require_square(m)
    k = len(m)
    den, flat = _clear([x for r in m for x in r])
    return den, tuple(flat[i * k:i * k + k] for i in range(k))


def _glp(m, n: int, what: str):
    """_clear_matrix of an n x n matrix of positive determinant, else InputError."""
    lg = _clear_matrix(m)
    if len(lg[1]) != n:
        raise InputError(f"{what} is not {n}x{n}")
    if _det_int(lg[1]) <= 0:
        raise InputError(f"{what} must have positive determinant")
    return lg


def _inverse(p):
    """The pair (L, G) of the inverse of the pair p = (den, rows), the
    matrix rows / den for a nonzero den of either sign: den times the
    integer adjugate (row i is (-1)^i _minors of the rows without column i)
    over the determinant, all reduced by their gcd.

    >>> _inverse((2, ((2, 0), (0, 4))))
    (2, ((2, 0), (0, 1)))
    >>> _inverse((-2, ((2, 0), (0, 4))))
    (2, ((-2, 0), (0, -1)))
    """
    den, rows = p
    d = _det_int(rows)
    if d == 0:
        raise InputError("singular matrix has no inverse")
    s = den if d > 0 else -den
    adj = [[(-1) ** i * s * c for c in _minors([r[:i] + r[i + 1:] for r in rows])]
           for i in range(len(rows))]
    g = math.gcd(d, *itertools.chain(*adj))
    return abs(d) // g, tuple(tuple(x // g for x in r) for r in adj)


def _pair_mul(p, q):
    """The pair of the product of the pairs p and q: (L_p L_q, G_p G_q)."""
    return p[0] * q[0], _mat_mul(p[1], q[1])


def _fractions(p):
    """The Fraction matrix G / L of the pair p = (L, G)."""
    return tuple(tuple(Fraction(x, p[0]) for x in r) for r in p[1])


def _close(p, q, tol) -> bool:
    """Whether the pairs p = (da, a), q = (db, b) (positive denominators)
    are close at the rational tol = t/u: |x/da - y/db| <= tol * scale for
    every entry, scale the largest of 1 and all |entries|; times u*da*db,
    u*|x*db - y*da| <= t*max(da*db, max|x|*db, max|y|*da)."""
    (da, a), (db, b) = p, q
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    if not tol:
        return all(x * db == y * da for x, y in pairs)
    t, u = tol.numerator, tol.denominator
    bound = t * max(da * db, max(abs(x) for x, _ in pairs) * db,
                    max(abs(y) for _, y in pairs) * da)
    return all(u * abs(x * db - y * da) <= bound for x, y in pairs)


def det(m) -> Fraction:
    """Exact determinant of a square row matrix.

    >>> det(((2, 1), (1, 3)))
    Fraction(5, 1)
    """
    den, rows = _clear_matrix(m)
    return Fraction(_det_int(rows), den ** len(rows))


def ori(vs) -> int:
    """Orientation sign of k vectors in dimension k: sign det, 0 if dependent.

    The vectors are the columns of the matrix; det is transpose-invariant so
    they can be eliminated as rows directly.
    """
    return det_sign_int(_clear_matrix(vs)[1])


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


def _mat_vec(m, v):
    # unchecked: rows of m as long as v, as in a validated bundle
    return tuple(sum(map(operator.mul, r, v)) for r in m)


def _mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, col)) for col in bt) for r in a)


def mat_vec(m, v) -> tuple[Fraction, ...]:
    m, v = mat(m), vec(v)
    if not m or len(m[0]) != len(v):
        raise InputError("matrix/vector shape mismatch")
    return _mat_vec(m, v)


def mat_mul(a, b):
    a, b = mat(a), mat(b)
    if not a or len(a[0]) != len(b):
        raise InputError("matrix shape mismatch")
    return _mat_mul(a, b)


def identity(n):
    n = _integer(n, "dimension")
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_inv(m):
    """Exact inverse, as Fractions of _inverse of the cleared matrix.

    >>> mat_inv(((2, 1), (1, 1)))
    ((Fraction(1, 1), Fraction(-1, 1)), (Fraction(-1, 1), Fraction(2, 1)))
    """
    return _fractions(_inverse(_clear_matrix(m)))


def hereditarily_spanning(xs) -> bool:
    """True iff every n-subset of the k >= n vectors of dimension n spans
    (all dets nonzero)."""
    ints, n = _tuple([int_vec(v) for v in _seq(xs, "vectors")], "vectors")
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
    xs = _tuple([vec(v) for v in _seq(xs, "vectors")], "vectors", extra=1)[0]
    rows = _clear_matrix(xs[1:])[1]
    l0, r0 = _clear(xs[0])
    # the kernel vector of (x_0, x_1, ..., x_n): sum_i lam_i rows_i = 0, so
    # sum_i c_i x_i = x_0 with c_i = -lam_{i+1} L / (lam_0 L_0), all nonzero;
    # g inverts the pair (lam_0 L_0, columns -lam_{i+1} rows_i) of c_i x_{i+1}
    lam = _minors((r0,) + rows)
    if not all(lam):
        raise InputError("not hereditarily spanning: a signed minor of x_0..x_n is zero")
    cols = [[-l * x for x in r] for l, r in zip(lam[1:], rows)]
    return _fractions(_inverse((lam[0] * l0, tuple(zip(*cols)))))


def e0(n):
    """e_0 = e_1 + ... + e_n."""
    return (Fraction(1),) * _integer(n, "dimension")
