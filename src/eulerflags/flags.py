"""Complete oriented flags, the bracket construction, and point realization.

An oriented flag is stored as an ordered basis (w_1, ..., w_n): level i is
F^i = span(w_1..w_i) and the positive half-space at level i is the side of
F^{i-1} in F^i containing w_i.  Per-level half-space bits would be redundant
since flipping the sign of w_i realizes the other choice.

The bracket [W, F] extends an oriented subspace W by the lowest level of F
not already contained in W; iterating over a tuple of flags yields the
oriented space [F_1, ..., F_k].  Membership tests run on primitive integer
vectors (positive per-vector scaling cannot change any span or sign), while
returned bases keep the original exact vectors so that g . bracket(Fs) equals
bracket(g . Fs) on the nose.

The bracket walk is written once, as _BracketWalk: the selection levels of
(F_a for a in idx) for index tuples idx of one flag tuple, by the
bracket's own recurrence memoized on the index prefix, since the walk
after F_{a_1}..F_{a_j} depends on nothing else; a prefix's span is built
only when a longer walk reads it.  bracket_selections is the case of
one walk; cocycles._deleted_brackets shares F_0..F_{i-1} across the n + 1
deletions, and realize_points shares one walk across all its stages and
its postcondition.
"""

from __future__ import annotations

import itertools

from .linalg import (
    InputError,
    PropertyViolation,
    _echo,
    _integer,
    _minors,
    _primitive,
    _tuple,
    det_sign_int,
    mat,
    mat_mul,
    primitive_int_vec,
    projective_normalize,
)


def _reduce_int(v, rows):
    # rows: [(pivot, primitive int row)] sorted by pivot; zeroes v at all
    # pivots.  v is only rebound, never written, so callers pass it as is
    for p, r in rows:
        if v[p]:
            vp, rp = v[p], r[p]
            v = [rp * x - vp * y for x, y in zip(v, r)]
    return v


def _pivot(v) -> int:
    for i, x in enumerate(v):
        if x:
            return i
    return -1


class _IntSpan:
    """Row-echelon integer model of a rational span; membership is exact."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        self.rows = list(rows)

    def contains_int(self, iv) -> bool:
        return not any(_reduce_int(iv, self.rows))

    def extended(self, iv) -> "_IntSpan":
        red = _reduce_int(iv, self.rows)
        p = _pivot(red)
        if p < 0:
            raise PropertyViolation("vector already in span")
        return _IntSpan(sorted(self.rows + [(p, _primitive(red))]))


class OrientedSubspace:
    """The bracket walk's result: the independent vectors it selected, in
    order; orientation is the basis order."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)


class OrientedFlag:
    """Complete oriented flag of R^n encoded by a nonsingular ordered basis."""

    __slots__ = ("basis", "ints")

    def __init__(self, basis):
        self.basis = mat(basis)
        self.ints = tuple(primitive_int_vec(v) for v in self.basis)
        # det_sign_int refuses a basis that is not n vectors of dimension n
        if not self.ints or det_sign_int(self.ints) == 0:
            raise InputError("flag basis must be n independent vectors of dimension n")

    @property
    def n(self) -> int:
        return len(self.basis)

    def apply(self, g) -> "OrientedFlag":
        # g times the basis as columns; mat_mul reads g by the rational rule
        return OrientedFlag(tuple(zip(*mat_mul(g, tuple(zip(*self.basis))))))

    def __repr__(self):
        return f"OrientedFlag({self.basis!r})"


def make_flag(basis) -> OrientedFlag:
    return OrientedFlag(basis)


def _flag_dim(F) -> int:
    if not isinstance(F, OrientedFlag):
        raise InputError(f"expected an OrientedFlag, got {_echo.repr(F)}")
    return F.n


def _flags(Fs, extra=None, n=None) -> tuple[tuple[OrientedFlag, ...], int]:
    """linalg._tuple for flags: OrientedFlags of one dimension n = F.n."""
    return _tuple(Fs, "flags", dim=_flag_dim, extra=extra, n=n)


def flip(F: OrientedFlag, i: int) -> OrientedFlag:
    """Reverse the half-space at level i (1-indexed): negate w_i."""
    _flags((F,))
    i = _integer(i, "flip level")
    if not 1 <= i <= F.n:
        raise InputError(f"flip level {i} out of range 1..{F.n}")
    return OrientedFlag(tuple(tuple(-x for x in v) if j == i - 1 else v
                              for j, v in enumerate(F.basis)))


def flag_equal_unoriented(F: OrientedFlag, G: OrientedFlag) -> bool:
    """True iff span(w_1..w_i) = span(w'_1..w'_i) for every level i.

    Walks both flags up one span: if the first i-1 spans agree and w'_i lies
    in span(w_1..w_i), the i-th spans agree too, having equal dimension.
    """
    _flags((F, G))
    span = _IntSpan()
    for f, g in zip(F.ints, G.ints):
        span = span.extended(f)
        if not span.contains_int(g):
            return False
    return True


def flagstaff(F: OrientedFlag):
    """The line F^1 as a canonical projective point."""
    _flags((F,))
    return projective_normalize(F.ints[0])


def _step(span: _IntSpan, F: OrientedFlag) -> int:
    """0-indexed selection level of the bracket extension: min{ j : w_j not in W }."""
    for j, iv in enumerate(F.ints):
        if not span.contains_int(iv):
            return j
    raise PropertyViolation("flag cannot extend a full space")


class _BracketWalk:
    """Bracket selection levels of sub-tuples (F_a for a in idx) of one flag
    tuple, by the bracket's recurrence memoized on the index prefix:
    levels(idx) extends levels(idx[:-1]) by the step of F_idx[-1] off
    _span(idx[:-1]), and _span(p) extends _span(p[:-1]) by p's last
    selected vector, only when a longer walk reads it.  Plain dicts and
    methods, no closure: a memo forms no reference cycle and is freed as
    soon as its caller drops it."""

    __slots__ = ("Fs", "known", "spans")

    def __init__(self, Fs):
        self.Fs = Fs
        self.known = {(): ()}           # prefix -> its selection levels
        self.spans = {(): _IntSpan()}   # prefix -> span of its selected vectors

    def levels(self, idx) -> tuple[int, ...]:
        idx = tuple(idx)
        if idx not in self.known:
            head = idx[:-1]
            self.known[idx] = self.levels(head) + (_step(self._span(head), self.Fs[idx[-1]]),)
        return self.known[idx]

    def _span(self, p) -> _IntSpan:
        if p not in self.spans:
            w = self.Fs[p[-1]].ints[self.levels(p)[-1]]
            self.spans[p] = self._span(p[:-1]).extended(w)
        return self.spans[p]


def bracket_selections(Fs) -> tuple[OrientedSubspace, tuple[int, ...]]:
    """Iterated bracket plus the 0-indexed selection level per input flag."""
    Fs, n = _flags(Fs)
    if len(Fs) > n:
        raise InputError(f"bracket takes at most n={n} flags, got {len(Fs)}")
    levels = _BracketWalk(Fs).levels(range(len(Fs)))
    return OrientedSubspace(tuple(F.basis[d] for F, d in zip(Fs, levels))), levels


def bracket(Fs) -> OrientedSubspace:
    """[F_1, ..., F_k] for 1 <= k <= n flags."""
    return bracket_selections(Fs)[0]


# ---------------------------------------------------------------------------
# Point realization: flags -> points with matching deleted-pair orientations.


def _cofactor_functional(rows) -> list[int]:
    # x |-> det(rows..., x) as an integer coefficient vector for n - 1
    # integer rows of length n: expanding along the last row, coefficient c
    # is (-1)^(n-1) times the c-th signed minor of the transposed rows
    n = len(rows[0])
    if len(rows) != n - 1:
        raise PropertyViolation("cofactor functional needs n - 1 basis vectors")
    return [m if n % 2 else -m for m in _minors(list(zip(*rows)))]


def _dot(m, x) -> int:
    return sum(a * b for a, b in zip(m, x))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def realize_points(Fs):
    """Points x_0..x_{n+1} whose deleted-pair orientations all agree with the
    deleted-pair bracket orientations of the given n+2 flags, as primitive
    integer vectors (orientations are invariant under positive rescaling).

    Downward induction, x_{n+1} first: at stage k the pairs not containing k
    give one hyperplane each (bracket of the flags below k minus the deleted
    pair, padded with the already-found points above k), taken as the
    integer minor vector m of those rows (the flags' integer vectors at the
    selected levels and the integer points), a positive multiple of the
    functional x |-> det(basis, x).  Every bracket of the call, at every
    stage and in the postcondition, is read from one _BracketWalk.  x_k is
    produced by walking from the origin along F_k's integer vectors w
    (positive multiples of its basis) with dyadic steps
    2^-t <= min |m.y| / (2(|m.w| + 1)), at most 1; y is kept as Y / 2^e
    with Y an integer vector.  Each constraint's m.w per level is computed
    once, and m.Y is carried with Y: Y' = Y 2^(top-e) + w 2^(top-t), so
    m.Y' = m.Y 2^(top-e) + m.w 2^(top-t).  Such a step moves m.y by less
    than half of |m.y|, whatever the positive scale of m, so a hyperplane
    once left is never re-crossed: each constraint sign is decided at the
    level where its hyperplane is first left, and equals sign m.w for F_k's
    lowest w off it, the bracket-extension orientation.  x_k is Y divided
    by the gcd of its entries.  Before returning, every stage's sides are
    checked on m.Y computed afresh from Y, and every deleted pair's
    det_sign_int of the output points against det_sign_int of the flags'
    integer vectors at the walked levels (PropertyViolation).
    """
    Fs, n = _flags(Fs, extra=2)
    walk = _BracketWalk(Fs)

    pts: dict[int, tuple[int, ...]] = {}
    for k in range(n + 1, -1, -1):
        others = [a for a in range(n + 2) if a != k]
        constraints = []  # (m, m.w per level of F_k, target sign)
        for i, j in itertools.combinations(others, 2):
            below = tuple(a for a in range(k) if a not in (i, j))
            rows = [Fs[a].ints[d] for a, d in zip(below, walk.levels(below))]
            rows += [pts[b] for b in range(k + 1, n + 2) if b not in (i, j)]
            m = _cofactor_functional(rows)
            if not any(m):
                raise PropertyViolation("constraint subspace is not a hyperplane")
            # V = ker m; the bracket extension of V by F_k appends F_k's
            # lowest w off V, and ori(rows + (w,)) = sign m.w by cofactor
            # expansion
            mw = [_dot(m, w) for w in Fs[k].ints]
            constraints.append((m, mw, _sign(next(x for x in mw if x))))

        Y, e = (0,) * n, 0
        mY = [0] * len(constraints)  # m.Y per constraint, carried with Y
        for lev, w in enumerate(Fs[k].ints):
            # smallest t >= 0 with 2^(e+1) (|m.w| + 1) <= 2^t |m.Y| for
            # every constraint that Y is off
            t = 0
            for (_, mw, _), a in zip(constraints, mY):
                if a:
                    a = abs(a)
                    need = (abs(mw[lev]) + 1) << (e + 1)
                    tc = max(0, need.bit_length() - a.bit_length())
                    t = max(t, tc + ((a << tc) < need))
            top = max(e, t)
            Y = tuple((y << (top - e)) + (x << (top - t)) for y, x in zip(Y, w))
            mY = [(a << (top - e)) + (mw[lev] << (top - t))
                  for (_, mw, _), a in zip(constraints, mY)]
            e = top
        for m, _, target in constraints:
            if _sign(_dot(m, Y)) != target:
                raise PropertyViolation(f"point x_{k} is on the wrong side of a constraint")
        pts[k] = _primitive(Y)

    out = tuple(pts[a] for a in range(n + 2))
    for i, j in itertools.combinations(range(n + 2), 2):
        kept = tuple(a for a in range(n + 2) if a not in (i, j))
        flagpart = [Fs[a].ints[d] for a, d in zip(kept, walk.levels(kept))]
        if det_sign_int([out[a] for a in kept]) != det_sign_int(flagpart):
            raise PropertyViolation(f"deleted pair ({i}, {j}) orientation mismatch")
    return out
