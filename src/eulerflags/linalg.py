"""Exact rational linear algebra for orientation computations.

Vectors are tuples of Fraction, matrices are tuples of row tuples acting on
column vectors.  Every predicate here is decided exactly: determinant signs
go through integer fraction-free (Bareiss) elimination after clearing
denominators per vector, so no tolerance ever enters.

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
from fractions import Fraction


class InputError(ValueError):
    """Invalid input data (wrong shape, singular where nonsingular needed...)."""


class OddDimensionError(InputError):
    """The constructions only exist for even ambient dimension."""


def require_even(n: int) -> int:
    if n < 2 or n % 2 != 0:
        raise OddDimensionError(f"ambient dimension must be even and >= 2, got {n}")
    return n


def fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise InputError(f"refusing to coerce float {x!r} to an exact rational")
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


def int_vec(v) -> tuple[int, ...]:
    """Clear denominators by the positive lcm; sign and direction preserved."""
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return tuple(int(x * den) for x in v)


def primitive_int_vec(v) -> tuple[int, ...]:
    """int_vec divided by the gcd of its entries (positive scaling only)."""
    iv = int_vec(v)
    g = 0
    for x in iv:
        g = math.gcd(g, x)
    if g <= 1:
        return iv
    return tuple(x // g for x in iv)


def projective_normalize(v) -> tuple[int, ...]:
    """Canonical representative of a projective point.

    Primitive integer vector with the first nonzero coordinate positive:
    equality of canonical forms decides equality in P(R^n).

    >>> projective_normalize((Fraction(-2), Fraction(4)))
    (1, -2)
    >>> projective_normalize((Fraction(0), Fraction(-3)))
    (0, 1)
    """
    w = vec(v)
    if is_zero_vec(w):
        raise InputError("zero vector has no projective class")
    iv = primitive_int_vec(w)
    for x in iv:
        if x != 0:
            if x < 0:
                iv = tuple(-y for y in iv)
            break
    return iv


def det_sign_int(rows: list[list[int]]) -> int:
    """Sign of the determinant of a square integer matrix, in {-1, 0, 1}.

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
    last = a[k - 1][k - 1]
    if last == 0:
        return 0
    return sign if last > 0 else -sign


def det(m) -> Fraction:
    """Exact determinant (fraction Gauss elimination, row matrix)."""
    k = len(m)
    if any(len(r) != k for r in m):
        raise InputError("determinant needs a square matrix")
    a = [list(r) for r in m]
    d = Fraction(1)
    for j in range(k):
        p = j
        while p < k and a[p][j] == 0:
            p += 1
        if p == k:
            return Fraction(0)
        if p != j:
            a[j], a[p] = a[p], a[j]
            d = -d
        d *= a[j][j]
        inv = 1 / a[j][j]
        for i in range(j + 1, k):
            f = a[i][j] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return d


def ori(vs) -> int:
    """Orientation sign of k vectors in dimension k: sign det, 0 if dependent.

    The vectors are the columns of the matrix; det is transpose-invariant so
    they can be eliminated as rows directly.
    """
    vs = tuple(vs)
    k = len(vs)
    for v in vs:
        if len(v) != k:
            raise InputError(f"ori needs {k} vectors of dimension {k}, got one of dimension {len(v)}")
    return det_sign_int([list(int_vec(v)) for v in vs])


def cramer_signs(vs) -> tuple[int, ...]:
    """Cramer signs s_i = (-1)^i ori(vs minus i) of n+1 vectors in dimension n.

    Each vector's denominators are cleared once and shared by all n+1
    deleted-index determinants.

    >>> cramer_signs(((1, 1), (1, 0), (0, 1)))
    (1, -1, -1)
    """
    ints = [int_vec(v) for v in vs]
    k = len(ints)
    for v in ints:
        if len(v) != k - 1:
            raise InputError(f"cramer_signs needs {k} vectors of dimension {k - 1}, "
                             f"got one of dimension {len(v)}")
    signs = []
    for i in range(k):
        s = det_sign_int(ints[:i] + ints[i + 1:])
        signs.append(-s if i % 2 else s)
    return tuple(signs)


def sig(g) -> int:
    """Sign of det(g) for nonsingular g."""
    s = det_sign_int([list(int_vec(r)) for r in mat(g)])
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
    k = len(m)
    if any(len(r) != k for r in m):
        raise InputError("inverse needs a square matrix")
    a = [list(r) + [Fraction(int(i == j)) for j in range(k)] for i, r in enumerate(mat(m))]
    for j in range(k):
        p = j
        while p < k and a[p][j] == 0:
            p += 1
        if p == k:
            raise InputError("singular matrix has no inverse")
        a[j], a[p] = a[p], a[j]
        piv = a[j][j]
        a[j] = [x / piv for x in a[j]]
        for i in range(k):
            if i != j and a[i][j]:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return tuple(tuple(r[k:]) for r in a)


def solve_columns(cols, rhs) -> tuple[Fraction, ...]:
    """Solve sum_i c_i * cols[i] = rhs exactly; InputError if singular."""
    k = len(cols)
    if any(len(c) != k for c in cols) or len(rhs) != k:
        raise InputError("solve needs k independent columns of dimension k")
    m = tuple(zip(*cols))  # rows of the column matrix
    return mat_vec(mat_inv(m), vec(rhs))


def hereditarily_spanning(xs, n: int | None = None) -> bool:
    """True iff every n-subset of the k >= n vectors spans (all dets nonzero)."""
    xs = tuple(tuple(v) for v in xs)
    if not xs:
        raise InputError("empty tuple")
    if n is None:
        n = len(xs[0])
    if len(xs) < n:
        raise InputError(f"need at least n={n} vectors, got {len(xs)}")
    ints = [int_vec(vec(v)) for v in xs]
    return all(det_sign_int([list(r) for r in sub]) != 0
               for sub in itertools.combinations(ints, n))


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
    try:
        cs = solve_columns(xs[1:], xs[0])
    except InputError:
        raise InputError("not hereditarily spanning: x_1..x_n do not span") from None
    if any(c == 0 for c in cs):
        raise InputError("not hereditarily spanning: x_0 has a zero coefficient over x_1..x_n")
    m = tuple(zip(*[tuple(c * x for x in col) for c, col in zip(cs, xs[1:])]))
    return mat_inv(m)


def standard_basis(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def e0(n):
    """e_0 = e_1 + ... + e_n."""
    return tuple(Fraction(1) for _ in range(n))
