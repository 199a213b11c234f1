"""Orientation cocycles on points and oriented flags, and their witnesses.

pcoc multiplies the n+1 deleted-index orientation signs of a point tuple, so
it vanishes exactly off the hereditarily spanning locus.  coco does the same
with iterated-bracket orientations of oriented flags (det_sign_int of the
flags' integer vectors at the selected levels) and never vanishes.
coc averages coco over all 2^(n(n+1)) half-space flips; the factorized mode
uses the fact that bracket selection levels cannot see flips (flipping w_i
rescales it by -1, which changes no span), so each flip bit enters the
average as a +-1 power equal to the number of deleted-index brackets that
selected that (flag, level); the average collapses to coco on the base
orientations when every selection multiplicity is even and to 0 otherwise.
The naive mode is that average as defined: _flipped_bracket_table signs each
deleted-index bracket on its own flipped vectors for every flip pattern of
its n flags, and one np.einsum contraction, one axis of 2^n flip patterns
per flag, sums the product of the n + 1 tables over all 2^(n(n+1))
combinations.  The table's walk is depth-first over the flag slots: each
node selects its slot's vector for all 2^n patterns of the slot's bits at
once, and the last slot's patterns each take their own det_sign_int on a
fresh row list, stored into a plain list that becomes int8 once at the
end.  It is the oracle the factorized mode is tested against.

pcoc, sul_classify, sul and smi all read the Cramer signs
s_i = (-1)^i ori(x minus i) of the tuple: the signs of linalg's signed
minors of the vectors that the argument check clears once (integer input
stays integer, never becoming Fractions).  pcoc is (-1)^(n/2) times their
product.  sul is the barycentric-sign cocycle: all n+1 Cramer signs agree
and are nonzero exactly when the origin lies in the open interior of the
simplex spanned by the arguments, and sul is then that common sign.  That
rule is written once, in _sul_of_signs, which also certifies whether the
value is generic (needed by the simplicial sullivan mode); sul_classify
is that rule on a checked tuple and sul is its value.  smi is the average
of sul over the 2^(n+1) sign flips of the arguments, which makes it
projective with sup-norm 2^(-n).  Flipping argument j multiplies every
s_i with i != j by -1, so when no s_i vanishes exactly one antipodal pair
of flips makes all signs agree, both with value prod s_i; hence
smi = prod s_i / 2^n in closed form (_smi_of_signs), nonzero iff the
tuple is hereditarily spanning, and pcoc = (-1)^(n/2) 2^n smi.  The
simplicial Euler number applies both rules to signs it reads from a
validated bundle.  The literal 2^(n+1)-flip average is kept as an oracle
in verify.smi_enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .linalg import (
    InputError,
    PropertyViolation,
    _cramer_signs,
    _echo,
    _seq,
    _tuple,
    det,
    det_sign_int,
    e0,
    identity,
    int_vec,
    mat,
    require_even,
)
from .flags import (
    _BracketWalk,
    _IntSpan,
    _flags,
    flag_equal_unoriented,
    make_flag,
)


def _check_points(vs, allow_zero=False):
    """The tuple's vectors cleared to integers (each once), and n."""
    ints, n = _tuple([int_vec(v) for v in _seq(vs, "points")], "points", extra=1)
    if not allow_zero and not all(any(v) for v in ints):
        raise InputError("zero vector has no projective class")
    return ints, n


def pcoc(vs) -> Fraction:
    """Product of the n+1 deleted-index orientations, (-1)^(n/2) times the
    product of the Cramer signs; 0 iff not hereditarily spanning, and
    descends to projective points."""
    ints, n = _check_points(vs)
    return Fraction((-1) ** (n // 2) * math.prod(_cramer_signs(ints)))


def coco(Fs) -> Fraction:
    """Product of the deleted-index iterated-bracket orientations; always +-1."""
    Fs, n = _flags(Fs, extra=1)
    return Fraction(_deleted_brackets(Fs, n)[0])


def sul_classify(vs):
    """(value, generic): the sul value plus an exact genericity certificate.

    All Cramer signs s_i = (-1)^i ori(deleted i) nonzero: generic, value +-1
    when they agree (origin interior) and 0 when they do not (origin
    outside).  Zeros among the signs put the origin on a span of fewer
    vectors: still certified outside when the remaining signs disagree (the
    kernel direction has mixed signs, so no convex combination hits 0),
    otherwise non-generic.  Total: zero vectors are fine.
    """
    return _sul_of_signs(_cramer_signs(_check_points(vs, allow_zero=True)[0]))


def _sul_of_signs(signs):
    """sul_classify's rule on the Cramer signs of a checked tuple."""
    if 1 in signs and -1 in signs:
        return Fraction(0), True
    if 0 in signs:
        return Fraction(0), False
    return Fraction(signs[0]), True


def sul(vs) -> Fraction:
    """+-1 when 0 is interior to the open simplex spanned by the arguments
    (all Cramer signs (-1)^i ori(deleted i) equal and nonzero), else 0.
    Total: zero vectors are fine and simply give 0."""
    return sul_classify(vs)[0]


def smi(vs) -> Fraction:
    """Average of sul over all 2^(n+1) argument sign flips, in closed form:
    the product of the Cramer signs over 2^n.  Nonzero iff hereditarily
    spanning, since the n+1 deleted-index determinants are exactly the
    n-subsets of the tuple."""
    return _smi_of_signs(_cramer_signs(_check_points(vs)[0]))


def _smi_of_signs(signs):
    """smi on the n + 1 Cramer signs of a checked tuple."""
    return Fraction(math.prod(signs), 2 ** (len(signs) - 1))


def coboundary(f, xs) -> Fraction:
    """d f evaluated on a (k+2)-tuple: sum of (-1)^i f(xs minus i)."""
    if not callable(f):
        raise InputError(f"cochain must be callable, got {_echo.repr(f)}")
    xs = _seq(xs, "tuple")
    total = Fraction(0)
    for i in range(len(xs)):
        v = f(xs[:i] + xs[i + 1:])
        total += -v if i % 2 else v
    return total


# ---------------------------------------------------------------------------
# Deflation.


def _deleted_brackets(Fs, n):
    """(coco value, how many deleted-index brackets selected each
    (flag, level)).  One bracket walk serves all n + 1 deletions: deleting
    i brackets F_0..F_{i-1} first, a prefix the deletions after it share."""
    walk = _BracketWalk(Fs)
    mult: dict[tuple[int, int], int] = {}
    val = 1
    for i in range(n + 1):
        kept = tuple(a for a in range(n + 1) if a != i)
        levels = walk.levels(kept)
        val *= det_sign_int([Fs[a].ints[lev] for a, lev in zip(kept, levels)])
        for key in zip(kept, levels):
            mult[key] = mult.get(key, 0) + 1
    if val not in (-1, 1):
        raise PropertyViolation(f"coco took the value {val}")
    return val, mult


def _flipped_bracket_table(bases, n) -> np.ndarray:
    """The bracket's orientation sign for every flip pattern of the n flags
    it brackets, as an int8 table of 2^(n*n) entries; bases holds each
    slot's primitive integer level vectors, and pattern bit a*n + l negates
    level l of slot a.  Every pattern selects on its own flipped vectors and
    takes its own det_sign_int, but the walk is depth-first: the span after
    slots 0..a-1 is built once per prefix of their bits, and each node works
    out its slot's selected vector for all 2^n patterns at once, testing
    each signed vector's membership once, on that vector.  The signs go
    into a plain list, turned into int8 once at the end."""
    table = [0] * (1 << (n * n))
    signed = [[(iv, tuple(-x for x in iv)) for iv in base] for base in bases]
    _flip_walk(table, signed, 0, _IntSpan(), [], 0)
    return np.array(table, dtype=np.int8)


def _selected(pairs, span) -> list:
    """The vector each of the 2^n flip patterns of one slot selects off
    span: the lowest level whose signed vector (pattern bit l set negates
    level l) is not in span.  Built level by level, the list indexed by the
    pattern's bits below the level; a level's two signed vectors are tested
    only while some pattern is still unselected."""
    sel = [None]
    for pair in pairs:
        if all(sel):
            break
        out0, out1 = (None if span.contains_int(v) else v for v in pair)
        sel = [v or out0 for v in sel] + [v or out1 for v in sel]
    if not all(sel):
        raise PropertyViolation("a complete flag always extends a proper subspace")
    return sel * ((1 << len(pairs)) // len(sel))


def _flip_walk(table, signed, a, span, chosen, prefix):
    """Fill table below the node where slots 0..a-1, flipped by prefix, chose chosen."""
    n = len(signed)
    sel = _selected(signed[a], span)
    if a == n - 1:  # this slot's patterns sit at prefix + bits << (a*n)
        table[prefix::1 << (a * n)] = [det_sign_int(chosen + [v]) for v in sel]
    else:
        for bits, v in enumerate(sel):
            _flip_walk(table, signed, a + 1, span.extended(v), chosen + [v],
                       prefix | bits << (a * n))


def _coc_naive(Fs, n) -> Fraction:
    m = n * (n + 1)
    if m > 20:  # at most 2^20 terms: n <= 4
        raise InputError(f"naive deflation needs 2^{m} terms, over the budget of 2^20")
    operands = []
    for i in range(n + 1):
        kept = [a for a in range(n + 1) if a != i]
        table = _flipped_bracket_table([Fs[a].ints for a in kept], n)
        # slot a's flip bits sit at a*n.., so the last kept flag's axis is first
        operands += [table.reshape((1 << n,) * n), kept[::-1]]
    total = int(np.einsum(*operands, [], dtype=np.int64))
    return Fraction(total, 1 << m)


def coc(Fs, mode: str = "factorized") -> Fraction:
    """Deflated flag cocycle, the mean of coco over all 2^(n(n+1)) flips: read
    off one bracket walk, or (mode="naive", n <= 4) summed by one np.einsum."""
    Fs, n = _flags(Fs, extra=1)
    if mode == "factorized":
        val, mult = _deleted_brackets(Fs, n)
        return Fraction(0) if any(m % 2 for m in mult.values()) else Fraction(val)
    if mode == "naive":
        return _coc_naive(Fs, n)
    raise InputError(f"unknown coc mode {mode!r}")


# ---------------------------------------------------------------------------
# Witnesses.


def obstruction_witness(n: int):
    """The tuple (e_0, e_1, ..., e_n, e_1+e_2) with d pcoc evaluated on it:
    zero for n = 2 and nonzero for every even n >= 4."""
    require_even(n)
    e = identity(n)
    pts = (e0(n),) + e + (tuple(a + b for a, b in zip(e[0], e[1])),)
    return pts, coboundary(pcoc, pts)


def coboundary_kill_witness(n: int):
    """Flags F_0..F_n (cyclic windows of (e_0, ..., e_n) with e_0 the all-ones
    vector) together with matrices g_0..g_n of determinant -1 such that g_i
    fixes every F_j with j != i as an unoriented flag.  Every assertion is
    checked exactly before returning."""
    require_even(n)
    symbols = (e0(n),) + identity(n)
    flags = tuple(make_flag([symbols[(i + t) % (n + 1)] for t in range(n)])
                  for i in range(n + 1))

    def unit(entries):  # the identity with the (row, column): value entries
        return mat([[entries.get((r, c), int(r == c)) for c in range(n)] for r in range(n)])

    mats = [unit({(n - 1, n - 1): -1}),  # g_0: reflect the last coordinate
            # g_1: first column (-1, -2, ..., -2)
            unit({(r, 0): -2 if r else -1 for r in range(n)})]
    for i in range(2, n + 1):  # g_i: [[-1, 2], [0, 1]] block at rows i-1, i
        mats.append(unit({(i - 2, i - 2): -1, (i - 2, i - 1): 2}))

    for i, g in enumerate(mats):
        if det(g) != -1:
            raise PropertyViolation(f"witness matrix g_{i} has det {det(g)}")
        for j, F in enumerate(flags):
            if j != i and not flag_equal_unoriented(F.apply(g), F):
                raise PropertyViolation(f"g_{i} moves flag {j}")
    return flags, tuple(mats)
