"""Monte Carlo estimator: determinism, symmetry checks, mode agreement."""

import math
import random

import numpy as np
import pytest

from eulerflags import montecarlo
from eulerflags.linalg import InputError
from eulerflags.montecarlo import CHUNK, itu_estimate

I2 = [[1.0, 0.0], [0.0, 1.0]]


def _rand_gl(rng):
    while True:
        m = [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
        if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) > 0.1:
            return m


def test_deterministic():
    gs = [I2, [[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]
    a = itu_estimate(gs, samples=30_000, seed=7)
    b = itu_estimate(gs, samples=30_000, seed=7)
    assert (a.mean, a.stderr, a.resampled) == (b.mean, b.stderr, b.resampled)
    c = itu_estimate(gs, samples=30_000, seed=8)
    assert a.mean != c.mean


def test_identity_tuple_centered():
    for mode in ("ball", "projective"):
        est = itu_estimate([I2] * 3, samples=50_000, seed=1, mode=mode)
        assert abs(est.mean) <= 3 * est.stderr + 1e-12
        assert est.samples == 50_000 and est.mode == mode


def test_mean_bound():
    rng = random.Random(11)
    for trial in range(5):
        gs = [_rand_gl(rng) for _ in range(3)]
        est = itu_estimate(gs, samples=20_000, seed=trial)
        assert abs(est.mean) <= 0.25 + 3 * est.stderr


def test_modes_agree():
    rng = random.Random(13)
    gs = [_rand_gl(rng) for _ in range(3)]
    a = itu_estimate(gs, samples=60_000, seed=2, mode="ball")
    b = itu_estimate(gs, samples=60_000, seed=3, mode="projective")
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(a.mean - b.mean) <= 3 * sigma


def test_sign_equivariance():
    rng = random.Random(17)
    gs = [_rand_gl(rng) for _ in range(3)]
    h = [[-1.0, 0.0], [0.0, 1.0]]
    hgs = [[[sum(h[i][k] * g[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)] for g in gs]
    a = itu_estimate(gs, samples=60_000, seed=4)
    b = itu_estimate(hgs, samples=60_000, seed=5)
    sigma = math.hypot(a.stderr, b.stderr)
    assert abs(b.mean - (-a.mean)) <= 3 * sigma


def test_input_errors():
    with pytest.raises(InputError):
        itu_estimate([I2] * 3, samples=0)
    with pytest.raises(InputError):
        itu_estimate([[[1.0, 1.0], [1.0, 1.0 + 1e-15]]] + [I2] * 2,
                     samples=10)
    with pytest.raises(InputError):
        itu_estimate([I2] * 2, samples=10)  # arity: needs n+1 matrices
    with pytest.raises(InputError):
        itu_estimate([I2] * 3, samples=10, mode="simpson")
    with pytest.raises(InputError):
        itu_estimate([[[1.0, 0.0, 0.0]] * 2] * 3, samples=10)


def _projective_by_flips(w, n):
    """The projective integrand from its definition: average sul over all
    2^(n+1) sign flips; flipping argument j scales det_i by sigma_j for
    every i != j."""
    dets, _ = montecarlo._deleted_dets(w)
    base = np.sign(dets) * np.array([(-1.0) ** i for i in range(n + 1)])
    total = np.zeros(len(w))
    for bits in range(1 << (n + 1)):
        sigma = np.array([-1.0 if (bits >> j) & 1 else 1.0 for j in range(n + 1)])
        factor = np.prod(sigma) / sigma  # prod_{j != i} sigma_j per deleted i
        s = base * factor
        inside = (s == s[:, :1]).all(axis=1) & (s[:, 0] != 0)
        total += np.where(inside, s[:, 0], 0.0)
    return total / float(1 << (n + 1))


def _random_gs(n, seed):
    rng = random.Random(seed)
    while True:
        gs = np.array([[[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
                       for _ in range(n + 1)])
        if np.all(np.abs(np.linalg.det(gs)) > 0.2):
            return gs


@pytest.mark.parametrize("n", [2, 4])
def test_projective_integrand_matches_flip_loop(n):
    gs = _random_gs(n, 31 + n)
    v = montecarlo._draw(montecarlo._rng(5, 0), CHUNK, n, "projective")
    w = np.einsum("iab,sib->sia", gs, v)
    got, ambiguous = montecarlo._integrand(w, "projective", n)
    want = _projective_by_flips(w, n)
    keep = ~ambiguous
    assert keep.sum() > CHUNK * 0.99
    assert got[keep].tobytes() == want[keep].tobytes()  # bit for bit


@pytest.mark.parametrize("n", [2, 4])
def test_projective_estimate_matches_flip_loop(n, monkeypatch):
    gs = _random_gs(n, 41 + n)
    est = itu_estimate(gs, samples=CHUNK + 1000, seed=3, mode="projective")
    integrand = montecarlo._integrand

    def by_flips(w, mode, n):
        _, ambiguous = integrand(w, mode, n)
        return _projective_by_flips(w, n), ambiguous

    monkeypatch.setattr(montecarlo, "_integrand", by_flips)
    ref = itu_estimate(gs, samples=CHUNK + 1000, seed=3, mode="projective")
    assert (est.mean, est.stderr, est.resampled) \
        == (ref.mean, ref.stderr, ref.resampled)
