"""Rotation-number oracle for the Euler number of flat rank-2 bundles.

Independent of the exact simplicial pipeline: everything here is floating
point on the circle of directions.  A positive-determinant 2x2 matrix M acts
on directions by u_t -> arg(M u_t); writing M = R_phi P with P symmetric
positive definite (polar decomposition, phi = atan2(c - b, a + d)) gives the
canonical lift

    L_M(t) = t + atan2(<u_t x P u_t>, <u_t . P u_t>) + phi,

with the angle correction in (-pi/2, pi/2) since u_t . P u_t > 0.

Each letter of a word, M or M^-1, is read once into a record (a, b, c, d,
phi): the floats of M and its polar angle, or for M^-1 the adjugate
(d, -b, -c, a), a positive multiple of M^-1 with the same circle action,
and -phi.  The inverse must carry the *negation* of M's polar angle (the
adjugate's own atan2 lands on the opposite branch when c == b and the trace
is negative, which would silently shift the lift by a full turn); with it
the two lifts are exact functional inverses.  The lift of a relator word
that multiplies to the identity matrix is then a translation by 2 pi e:
evaluating at 0 reads off the Euler number e of the flat bundle over the
closed surface.
"""

from __future__ import annotations

import math

from .linalg import InputError, PropertyViolation, _seq


def _letter(m, inverted: bool):
    """The record (a, b, c, d, phi) of the letter m, or m^-1 if inverted."""
    try:
        (a, b), (c, d) = m
        a, b, c, d = float(a), float(b), float(c), float(d)
    except (TypeError, ValueError, OverflowError):
        raise InputError("circle lifts take 2x2 matrices of numbers") from None
    if a * d - b * c <= 0:
        raise InputError("circle lifts need positive determinant")
    phi = math.atan2(c - b, a + d)
    return (d, -b, -c, a, -phi) if inverted else (a, b, c, d, phi)


def _lift(letter, t: float) -> float:
    """The canonical lift of the letter's circle action, applied at t; phi
    must make R_{-phi} (a, b, c, d) = P positive definite."""
    a, b, c, d, phi = letter
    cp, sp = math.cos(-phi), math.sin(-phi)
    p11, p12 = cp * a - sp * c, cp * b - sp * d
    p21, p22 = sp * a + cp * c, sp * b + cp * d
    if not p11 + p22 > 0:
        raise PropertyViolation("polar part is not positive definite")
    x, y = math.cos(t), math.sin(t)
    px, py = p11 * x + p12 * y, p21 * x + p22 * y
    return t + math.atan2(x * py - y * px, x * px + y * py) + phi


def euler_number_oracle(rep) -> int:
    """Euler number of the flat bundle of a genus-g surface group
    representation rep = (A_1, B_1, ..., A_g, B_g).

    The relator product [A_1, B_1] ... [A_g, B_g] must be the identity
    matrix (checked approximately here; the caller owns exactness).
    """
    rep = _seq(rep, "representation")
    if len(rep) < 2 or len(rep) % 2:
        raise InputError("need matrices (A_1, B_1, ..., A_g, B_g)")
    # [x, y] = x y x^-1 y^-1; the rightmost letter acts first
    word = [_letter(m, inv) for x, y in zip(rep[::2], rep[1::2])
            for m, inv in ((x, False), (y, False), (x, True), (y, True))]

    # relator sanity: the product should be a positive multiple of Id
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for e, f, g, h, _ in word:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    scale = max(abs(a), abs(d))
    if not (abs(b) <= 1e-6 * scale and abs(c) <= 1e-6 * scale
            and abs(a - d) <= 1e-6 * scale and a > 0):
        raise InputError("relator word does not multiply to a positive multiple of Id")

    total = 0.0
    for letter in reversed(word):
        total = _lift(letter, total)
    e = total / (2 * math.pi)
    if abs(e - round(e)) > 1e-6:
        raise PropertyViolation(f"rotation number {e} is not close to an integer")
    # Sign convention: the circle of directions is oriented so that this
    # oracle pairs with the counterclockwise fundamental chain used by the
    # simplicial pipeline (one global calibration, fixed on a hyperbolic
    # holonomy); both answers flip together under orientation reversal.
    return -int(round(e))
