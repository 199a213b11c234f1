"""Genus-g surface fixtures: flat-bundle data over the central-vertex
triangulation of the 4g-gon with edge identifications.

Combinatorics.  The 4g-gon's sides 4t..4t+3 carry the boundary word
a_t b_t a_t^-1 b_t^-1 read counterclockwise; side 4t glues to side 4t+2 and
side 4t+1 to 4t+3, reversing the boundary parameter (u -> 1-u).  Each side
is split into three arcs by two midpoints, and inside sit a ring of 12g
vertices plus a center, giving 36g counterclockwise triangles.  All polygon
corners form a single vertex class; the side midpoints pair up into 4g
classes; with the interior that is 16g + 2 vertices, 54g edges and 36g
triangles — Euler characteristic 2 - 2g.

Transitions.  Every raw boundary position p carries a word delta(p) in the
free group on a_t, b_t transporting the preferred copy of its class to p;
the transition for an ordered vertex pair inside a triangle is
rho(delta(x) . delta(y)^-1).  Crossing a glued side multiplies delta by
the pairing letter: a-pairs act by the *inverse* letter and b-pairs by the
letter itself.  That exponent convention is the unique one whose corner-walk
closure word reduces to the surface relator [a_1,b_1]...[a_g,b_g], so the
transition collisions between neighbouring triangles cancel exactly whenever
rho satisfies the relator; the builder checks every collision.

Integers.  Each letter is read once by linalg._glp to the pair (L, G = L A),
float entries (hyperbolic holonomies) first read as exact dyadic rationals,
the one exception to linalg.fr; its inverse is linalg._inverse of that pair.
rho of a freely reduced word is the _pair_mul product of its letters, once
per word.  The relator and every collision are judged by linalg._close, the
rule validate applies (exact at tol = 0).  Each distinct word becomes one
Fraction matrix, its _fractions, shared by the pairs that use it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from .linalg import (InputError, PropertyViolation, _clear_matrix, _close,
                     _fractions, _glp, _inverse, _pair_mul, _seq, fr, identity)
from .randgen import RationalSampler
from .simplicial import FlatBundleComplex

# pairing exponents, calibrated so the corner-walk closure word IS the
# relator (the only surviving choice; see test suite)
_EPS_A = -1
_EPS_B = +1


def _wreduce(word):
    out = []
    for l, e in word:
        if out and out[-1][0] == l and out[-1][1] == -e:
            out.pop()
        else:
            out.append((l, e))
    return tuple(out)


def _winv(word):
    return tuple((l, -e) for l, e in reversed(word))


def _side_letter(j):
    """(letter index, exponent) carried by side j; letters 2t / 2t+1 are
    a_t / b_t."""
    t, r = divmod(j, 4)
    return (2 * t if r % 2 == 0 else 2 * t + 1), (1 if r < 2 else -1)


def _partner(j):
    return j + 2 if j % 4 < 2 else j - 2


def _mu(side):
    """The pairing word mapping points of `side` onto its partner side."""
    letter, sgn = _side_letter(side)
    eps = _EPS_A if letter % 2 == 0 else _EPS_B
    return ((letter, eps * sgn),)


def _corner_walk(g):
    """delta words for the single corner class, plus the closure word.

    Starting at corner 0 with the empty word and crossing glued sides, every
    corner of the 4g-gon is visited exactly once; the final word is the
    consistency holonomy, which must map to the identity under rho.
    """
    N = 4 * g
    deltas = {0: ()}
    corner, word = 0, ()
    for _ in range(N):
        mu = _mu(corner)                    # the side starting at this corner
        corner = (_partner(corner) + 1) % N
        word = _wreduce(word + _winv(mu))
        if corner != 0:
            if corner in deltas:
                raise PropertyViolation("corner cycle split unexpectedly")
            deltas[corner] = word
    if corner != 0 or len(deltas) != N:
        raise PropertyViolation("corner walk does not close after 4g sides")
    return deltas, word


def _to_matrix(m):
    """_glp of a representation matrix, finite float entries read as exact
    dyadic rationals first; every other entry (NaN, inf) goes to linalg.fr."""
    rows = [[Fraction(x) if isinstance(x, float) and math.isfinite(x) else x
             for x in _seq(row, "matrix row")] for row in _seq(m, "matrix")]
    return _glp(rows, 2, "representation matrix")


def genus_surface_bundle(rep, section=None, seed: int = 0, tol=0):
    """FlatBundleComplex over the closed genus-g surface, g = len(rep)//2.

    rep lists (A_1, B_1, ..., A_g, B_g); the product of commutators
    [A_1,B_1]...[A_g,B_g] must be the identity — exactly for rational
    entries, within the relative tolerance tol for float entries (pass e.g.
    tol=Fraction(1, 10**9) for a numerically flat holonomy).  section maps
    vertex classes to fiber vectors; by default a seeded random rational
    section is drawn.  The chain is the counterclockwise fundamental cycle,
    all coefficients +1.
    """
    rep = [_to_matrix(m) for m in _seq(rep, "representation")]
    if not rep or len(rep) % 2:
        raise InputError("need matrices (A_1, B_1, ..., A_g, B_g)")
    g = len(rep) // 2
    N = 4 * g
    tol = fr(tol)

    letters = {(l, e): lg if e == 1 else _inverse(lg)
               for l, lg in enumerate(rep) for e in (1, -1)}
    ident = _clear_matrix(identity(2))
    cleared = {(): ident}

    def rho(word):
        """(L, G) of a freely reduced word, extending its longest memoized prefix."""
        i = next(i for i in range(len(word), -1, -1) if word[:i] in cleared)
        for j in range(i, len(word)):
            cleared[word[:j + 1]] = _pair_mul(cleared[word[:j]], letters[word[j]])
        return cleared[word]

    cdeltas, closure = _corner_walk(g)
    if not _close(rho(closure), ident, tol):
        raise InputError("representation does not satisfy the surface "
                         "relator (within tol)" if tol else
                         "representation does not satisfy the surface relator")

    # vertex classes: 0 center | 1..3N ring | 3N+1 corners | 3N+2.. midpoints.
    # Each raw boundary position carries its class and its transport word
    # delta; the positive side of a glued pair numbers the pair's midpoint
    # classes and holds their preferred copies.  Ring vertices and the
    # center carry the empty word.
    CEN, VSTAR = 0, 3 * N + 1
    nverts = VSTAR + 1
    boundary = []
    for j in range(3 * N):
        k, r = divmod(j, 3)
        if r == 0:
            boundary.append((VSTAR, cdeltas[k]))
        elif k % 4 < 2:
            boundary.append((nverts, ()))
            nverts += 1
        else:
            kp = _partner(k)
            boundary.append((boundary[3 * kp + 3 - r][0], _winv(_mu(kp))))

    # triangles, all counterclockwise: fan (center, ring, ring), band
    # (ring, boundary, boundary), band (ring, boundary, ring).  The
    # transition of a pair is rho(delta(x) . delta(y)^-1), kept by word; a
    # pair met again must get a close matrix
    simplices, words = [], {}
    ring = lambda j: (1 + j, ())
    for j in range(3 * N):
        j1 = (j + 1) % (3 * N)
        bj, bj1 = boundary[j], boundary[j1]
        for tri in (((CEN, ()), ring(j), ring(j1)), (ring(j), bj, bj1),
                    (ring(j), bj1, ring(j1))):
            classes = tuple(c for c, _ in tri)
            if len(set(classes)) != 3:
                raise PropertyViolation(f"degenerate triangle {classes}")
            for (ci, wi), (cj, wj) in itertools.permutations(tri, 2):
                word = _wreduce(wi + _winv(wj))
                old = words.setdefault((ci, cj), word)
                if old != word and not _close(rho(old), rho(word), tol):
                    raise PropertyViolation(
                        f"inconsistent transition for vertex pair ({ci}, {cj})")
            simplices.append((classes, 1))

    # one Fraction matrix per distinct word, shared by its pairs
    fractions = {w: _fractions(rho(w)) for w in dict.fromkeys(words.values())}
    transitions = {pair: fractions[word] for pair, word in words.items()}

    if section is None:
        samp = RationalSampler(seed, m=9)
        section = [samp.nonzero_vector(2) for _ in range(nverts)]
    return FlatBundleComplex(2, nverts, simplices, transitions, section,
                             tol=tol)


def rational_flat_rep():
    """An exact rational genus-2 representation whose relator holds as an
    identity of matrices; its flat bundle has Euler number 0 (forced: the
    transfer to a finite-index free subgroup of the integral matrix group
    kills any nonzero pairing, and the rotation-number oracle agrees)."""
    F = Fraction
    return (((F(1), F(1)), (F(1), F(2))),
            ((F(1), F(-1)), (F(-1), F(2))),
            ((F(-1), F(1)), (F(1), F(-2))),
            ((F(0), F(-1)), (F(1), F(-3))))


def fuchsian_octagon_rep():
    """Float holonomy of the hyperbolic structure on the genus-2 surface:
    side pairings of the regular hyperbolic octagon (vertex angle pi/4,
    circumradius arccosh(3 + 2 sqrt 2)), assembled so the surface relator
    holds to machine precision and lifted to SL(2,R).  Its flat plane
    bundle has Euler number 1 (matches the rotation-number oracle, and
    saturates the bound |e| <= g-1 for flat SL_2 bundles)."""
    n = 8
    r = math.tanh(math.acosh(3 + 2 * math.sqrt(2)) / 2)
    corners = [r * cmath.exp(1j * (2 * j - 1) * math.pi / n) for j in range(n)]

    def cmul(m, k):
        return tuple(tuple(sum(m[i][t] * k[t][j] for t in range(2))
                           for j in range(2)) for i in range(2))

    def cinv(m):
        (a, b), (c, d) = m
        dt = a * d - b * c
        return ((d / dt, -b / dt), (-c / dt, a / dt))

    def capply(m, z):
        return (m[0][0] * z + m[0][1]) / (m[1][0] * z + m[1][1])

    def normalizer(A, B):
        # disk Mobius sending A to 0 and B to the positive real axis
        p = ((1, -A), (-A.conjugate(), 1))
        return cmul(((cmath.exp(-1j * cmath.phase(capply(p, B))), 0), (0, 1)), p)

    def pair_map(k):
        # side k (corners k -> k+1) onto side k+2 reversed (k+3 -> k+2)
        p1 = normalizer(corners[k], corners[(k + 1) % n])
        p2 = normalizer(corners[(k + 3) % n], corners[(k + 2) % n])
        h = cmul(cinv(p2), p1)
        K = ((1, -1j), (1, 1j))             # Cayley: half-plane -> disk
        h = cmul(cinv(K), cmul(h, K))
        s = cmath.sqrt(h[0][0] * h[1][1] - h[0][1] * h[1][0])
        h = tuple(tuple(x / s for x in row) for row in h)
        if not max(abs(x.imag) for row in h for x in row) < 1e-9:
            raise PropertyViolation("side pairing is not real")
        return tuple(tuple(x.real for x in row) for row in h)

    # letter assignment making [A1,B1][A2,B2] = Id: a-letters are the
    # inverse pairing maps (same calibration as the fixture's exponents)
    return (cinv(pair_map(0)), pair_map(1), cinv(pair_map(4)), pair_map(5))
