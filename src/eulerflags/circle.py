"""Rotation-number oracle for the Euler number of flat rank-2 bundles.

Independent of the exact simplicial pipeline: everything here is floating
point on the circle of directions.  A positive-determinant 2x2 matrix M acts
on directions by u_t -> arg(M u_t); writing M = R_phi P with P symmetric
positive definite (polar decomposition, phi = atan2(c - b, a + d)) gives the
canonical lift

    L_M(t) = t + atan2(<u_t x P u_t>, <u_t . P u_t>) + phi,

with the angle correction in (-pi/2, pi/2) since u_t . P u_t > 0.  The
inverse lift must be built from the *negation* of the same polar angle (the
adjugate's own atan2 lands on the opposite branch when c == b and the trace
is negative, which would silently shift the lift by a full turn), so word
evaluation tracks (matrix, inverted) pairs rather than adjugated matrices.
The lift of a relator word that multiplies to the identity matrix is then a
translation by 2 pi e: evaluating at 0 reads off the Euler number e of the
flat bundle over the closed surface.
"""

from __future__ import annotations

import math

from .linalg import InputError, PropertyViolation


def _as_float_matrix(m):
    try:
        (a, b), (c, d) = m
        a, b, c, d = float(a), float(b), float(c), float(d)
    except (TypeError, ValueError):
        raise InputError("circle lifts take 2x2 matrices of numbers") from None
    if a * d - b * c <= 0:
        raise InputError("circle lifts need positive determinant")
    return a, b, c, d


def _lift_from(m, phi):
    """Lift closure for the action of m, using the supplied polar angle.

    phi must satisfy R_{-phi} m = P positive definite; both the atan2 value
    and its exact negation-for-the-adjugate qualify.
    """
    a, b, c, d = m
    cp, sp = math.cos(-phi), math.sin(-phi)
    p11, p12 = cp * a - sp * c, cp * b - sp * d
    p21, p22 = sp * a + cp * c, sp * b + cp * d
    if not p11 + p22 > 0:
        raise PropertyViolation("polar part is not positive definite")

    def L(t: float) -> float:
        x, y = math.cos(t), math.sin(t)
        px, py = p11 * x + p12 * y, p21 * x + p22 * y
        return t + math.atan2(x * py - y * px, x * px + y * py) + phi

    return L


def _polar_angle(m) -> float:
    a, b, c, d = m
    return math.atan2(c - b, a + d)


def lift(m):
    """The canonical lift R -> R of the direction-circle action of m."""
    fm = _as_float_matrix(m)
    return _lift_from(fm, _polar_angle(fm))


def inverse_lift(m):
    """The exact functional inverse of lift(m).

    Uses the adjugate (a positive multiple of m^-1, hence the same circle
    action) with polar angle -phi(m), which makes the composition cancel
    identically rather than up to a deck translation.
    """
    a, b, c, d = _as_float_matrix(m)
    return _lift_from((d, -b, -c, a), -_polar_angle((a, b, c, d)))


def commutator_word(x, y):
    """[x, y] = x y x^-1 y^-1 as (matrix, inverted) letters."""
    return [(x, False), (y, False), (x, True), (y, True)]


def word_lift(word, t: float = 0.0) -> float:
    """Apply the composed canonical lift of a word of (matrix, inverted)
    letters to t (the rightmost letter acts first, matching matrix products
    acting on column vectors)."""
    for m, inv in reversed(list(word)):
        t = (inverse_lift if inv else lift)(m)(t)
    return t


def euler_number_oracle(rep) -> int:
    """Euler number of the flat bundle of a genus-g surface group
    representation rep = (A_1, B_1, ..., A_g, B_g).

    The relator product [A_1, B_1] ... [A_g, B_g] must be the identity
    matrix (checked approximately here; the caller owns exactness).
    """
    rep = list(rep)
    if len(rep) < 2 or len(rep) % 2:
        raise InputError("need matrices (A_1, B_1, ..., A_g, B_g)")
    word = []
    for t in range(0, len(rep), 2):
        word += commutator_word(rep[t], rep[t + 1])

    # relator sanity: the product should be a positive multiple of Id
    prod = ((1.0, 0.0), (0.0, 1.0))
    for m, inv in word:
        e, f, g, h = _as_float_matrix(m)
        if inv:
            e, f, g, h = h, -f, -g, e  # adjugate: positive multiple of inverse
        (a, b), (c, d) = prod
        prod = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    scale = max(abs(prod[0][0]), abs(prod[1][1]))
    if not (abs(prod[0][1]) <= 1e-6 * scale and abs(prod[1][0]) <= 1e-6 * scale
            and abs(prod[0][0] - prod[1][1]) <= 1e-6 * scale and prod[0][0] > 0):
        raise InputError("relator word does not multiply to a positive multiple of Id")

    total = word_lift(word, 0.0)
    e = total / (2 * math.pi)
    if abs(e - round(e)) > 1e-6:
        raise PropertyViolation(f"rotation number {e} is not close to an integer")
    # Sign convention: the circle of directions is oriented so that this
    # oracle pairs with the counterclockwise fundamental chain used by the
    # simplicial pipeline (one global calibration, fixed on a hyperbolic
    # holonomy); both answers flip together under orientation reversal.
    return -int(round(e))
