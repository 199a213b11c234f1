"""Canonical circle lifts and the rotation-number Euler oracle."""

import hashlib
import math
import random

import pytest

from eulerflags.circle import _letter, _lift, euler_number_oracle
from eulerflags.linalg import InputError
from eulerflags.surfaces import fuchsian_octagon_rep, rational_flat_rep

TAU = 2 * math.pi

# inverse-lift branch hazard: symmetric, negative trace
NASTY = ((-3.5, 2.0), (2.0, -6.0))


def _rand_glp(rng, spread=2.0):
    while True:
        m = ((rng.uniform(-spread, spread), rng.uniform(-spread, spread)),
             (rng.uniform(-spread, spread), rng.uniform(-spread, spread)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] > 0.05:
            return m


def _at(m, inverted=False):
    """The canonical lift of m (or of m^-1) as a function of t."""
    letter = _letter(m, inverted)
    return lambda t: _lift(letter, t)


def test_rotation_lift():
    th = 0.7
    R = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
    L = _at(R)
    for t in (-1.0, 0.0, 2.5, 9.0):
        assert abs(L(t) - (t + th)) < 1e-12


def test_quarter_turn_and_boost():
    J = ((0.0, -1.0), (1.0, 0.0))
    assert abs(_at(J)(0.0) - math.pi / 2) < 1e-12
    H = ((2.0, 0.0), (0.0, 0.5))
    assert abs(_at(H)(0.0)) < 1e-12  # e_1 direction is fixed


def test_lift_is_a_lift():
    rng = random.Random(5)
    for _ in range(25):
        m = _rand_glp(rng)
        L = _at(m)
        for t in (-2.0, 0.3, 4.0):
            assert abs(L(t + TAU) - L(t) - TAU) < 1e-9
            # projects to the circle action
            u = (math.cos(t), math.sin(t))
            v = (m[0][0] * u[0] + m[0][1] * u[1],
                 m[1][0] * u[0] + m[1][1] * u[1])
            diff = math.atan2(v[1], v[0]) - L(t)
            assert abs(diff - TAU * round(diff / TAU)) < 1e-9


def test_inverse_lift_inverts():
    rng = random.Random(9)
    mats = [NASTY] + [_rand_glp(rng) for _ in range(25)]
    for m in mats:
        L, Li = _at(m), _at(m, True)
        for t in (-3.0, 0.0, 1.2, 7.7):
            assert abs(L(Li(t)) - t) < 1e-9
            assert abs(Li(L(t)) - t) < 1e-9


def test_lifts_pinned():
    # sha256 of the repr of every lift value, plain and inverted, and of
    # every raw relator total (the composed lift of the commutator word at
    # 0, before the division by 2 pi): the floats are pinned bit for bit,
    # so neither the inverse's branch rule nor the word order can drift
    rng = random.Random(7)
    mats = [NASTY] + [_rand_glp(rng) for _ in range(40)]
    vals = [_lift(_letter(m, inv), t) for inv in (False, True) for m in mats
            for t in (-3.0, 0.0, 1.2, 7.7)]
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == (
        "4db186ec4fab7740de2794b77a863f0ec4453ac91ccf369a429ccc83cd6a9f94")
    reps = [fuchsian_octagon_rep(), rational_flat_rep()]
    rng = random.Random(1)
    for _ in range(20):
        a, b = _rand_glp(rng), _rand_glp(rng)
        reps.append((a, b, b, a))
    totals = []
    for rep in reps:
        word = [_letter(m, inv) for k in range(0, len(rep), 2)
                for m, inv in ((rep[k], False), (rep[k + 1], False),
                               (rep[k], True), (rep[k + 1], True))]
        t = 0.0
        for letter in reversed(word):
            t = _lift(letter, t)
        totals.append(t)
    assert hashlib.sha256(repr(totals).encode()).hexdigest() == (
        "c589f8089d9665b33674347f3ef60b37d5eaa2e256304c4a9bddaaacef69516c")


def test_oracle_zero_families():
    assert euler_number_oracle(rational_flat_rep()) == 0
    rng = random.Random(1)
    for _ in range(20):
        a, b = _rand_glp(rng), _rand_glp(rng)
        # (A, B, B, A): the relator cancels in the free group
        assert euler_number_oracle((a, b, b, a)) == 0


def test_oracle_fuchsian_and_conjugation():
    rep = fuchsian_octagon_rep()
    assert euler_number_oracle(rep) == 1
    rng = random.Random(3)
    for _ in range(3):
        p = ((1 + rng.uniform(-.3, .3), rng.uniform(-.3, .3)),
             (rng.uniform(-.3, .3), 1 + rng.uniform(-.3, .3)))
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        pi = ((p[1][1] / det, -p[0][1] / det), (-p[1][0] / det, p[0][0] / det))
        conj = tuple(
            tuple(tuple(sum(p[i][a] * m[a][b] * pi[b][j] for a in range(2)
                            for b in range(2)) for j in range(2))
                  for i in range(2)) for m in rep)
        assert euler_number_oracle(conj) == 1


def test_oracle_input_errors():
    with pytest.raises(InputError):
        euler_number_oracle((NASTY,))  # odd length
    neg = ((1.0, 0.0), (0.0, -1.0))
    with pytest.raises(InputError):
        _letter(neg, False)
    with pytest.raises(InputError):
        _letter(neg, True)
    rng = random.Random(2)
    with pytest.raises(InputError, match="relator"):
        euler_number_oracle((_rand_glp(rng), _rand_glp(rng),
                             _rand_glp(rng), _rand_glp(rng)))
    # an entry float() refuses is an input error, not a bare ValueError
    with pytest.raises(InputError, match="2x2 matrices of numbers"):
        euler_number_oracle((((1, 0), (0, "abc")),) + (((1, 0), (0, 1)),) * 3)
    # as is one too large for a float, not a bare OverflowError
    with pytest.raises(InputError, match="2x2 matrices of numbers"):
        euler_number_oracle((((10 ** 400, 0), (0, 1)),) + (((1, 0), (0, 1)),) * 3)
