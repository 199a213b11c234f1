"""Monte Carlo estimator: determinism, symmetry checks, mode agreement, and
its value at n = 2 against the closed form."""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eulerflags import linalg, montecarlo
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
    for samples, seed in ((True, 0), (10.0, 0), ("10", 0), (10, 1.5), (10, None)):
        with pytest.raises(InputError, match="must be an integer"):
            itu_estimate([I2] * 3, samples=samples, seed=seed)
    with pytest.raises(InputError):
        itu_estimate([I2] * 3, samples=10, mode="simpson")
    with pytest.raises(InputError):
        itu_estimate([[[1.0, 0.0, 0.0]] * 2] * 3, samples=10)


def _projective_by_flips(w, n):
    """The projective integrand from its definition: average sul over all
    2^(n+1) sign flips; flipping argument j scales det_i by sigma_j for
    every i != j.  w holds the rows as (n+1, n, samples)."""
    dets, _ = montecarlo._deleted_dets(w)
    base = np.sign(dets) * np.array([[(-1.0) ** i] for i in range(n + 1)])
    total = np.zeros(w.shape[-1])
    for bits in range(1 << (n + 1)):
        sigma = np.array([[-1.0 if (bits >> j) & 1 else 1.0]
                          for j in range(n + 1)])
        factor = np.prod(sigma) / sigma  # prod_{j != i} sigma_j per deleted i
        s = base * factor
        inside = (s == s[0]).all(axis=0) & (s[0] != 0)
        total += np.where(inside, s[0], 0.0)
    return total / float(1 << (n + 1))


def _tuples_with_near_dependencies(n, count, seed):
    """Rows (n+1, n, count) of normal draws; in two samples of three one row
    is moved to within eps of the span of n - 1 others, so that one deleted
    determinant is small, with eps from 1e-3 down to below the ambiguity
    threshold."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n + 1, n, count))
    for s in range(count):
        if s % 3:
            i, *others = rng.choice(n + 1, n, replace=False)
            eps = 10.0 ** -rng.integers(3, 13)
            w[i, :, s] = rng.standard_normal(n - 1) @ w[others, :, s] \
                + eps * rng.standard_normal(n)
    return w


@pytest.mark.parametrize("n,count", [(2, 300), (4, 200), (6, 60)])
def test_deleted_dets_match_exact_determinants(n, count):
    w = _tuples_with_near_dependencies(n, count, 50 + n)
    dets, scale = montecarlo._deleted_dets(w)
    assert dets.shape == scale.shape == (n + 1, count)
    outside = small = 0
    for s in range(count):
        for i in range(n + 1):
            rows = [[float(x) for x in w[j, :, s]] for j in range(n + 1) if j != i]
            # Fraction(float) is exact, so this is the true determinant
            exact = linalg.det([[Fraction(x) for x in r] for r in rows])
            bound = 1e-12 * scale[i, s]
            assert scale[i, s] == pytest.approx(
                math.prod(math.hypot(*r) for r in rows), rel=1e-13)
            assert abs(dets[i, s] - float(exact)) <= bound
            assert abs(dets[i, s] - np.linalg.det(np.array(rows))) <= bound
            if abs(dets[i, s]) >= montecarlo.DET_RTOL * scale[i, s]:
                outside += 1
                small += abs(dets[i, s]) < 1e-6 * scale[i, s]
                assert np.sign(dets[i, s]) == (exact > 0) - (exact < 0)
    # planted samples land both just outside and inside the mask
    assert small > 0 and outside < (n + 1) * count


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
    w = np.matmul(gs, v.transpose(1, 2, 0))
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


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("mode", ["ball", "projective"])
def test_integrand_ignores_argument_lengths(n, mode):
    # the draws are never normalized: the integrand and its mask must be
    # 0-homogeneous in each argument w[i, :, s]
    count = 300
    w = _tuples_with_near_dependencies(n, count, 70 + n)
    got, ambiguous = montecarlo._integrand(w, mode, n)
    assert 0 < ambiguous.sum() < count  # the planted samples reach the mask
    rng = np.random.default_rng(80 + n)
    # a power of two scales every product, norm and comparison exactly
    pow2 = np.ldexp(1.0, rng.integers(-30, 31, size=(n + 1, 1, count)))
    g2, a2 = montecarlo._integrand(w * pow2, mode, n)
    assert g2.tobytes() == got.tobytes() and a2.tobytes() == ambiguous.tobytes()
    # ball radii U^(1/n) round: equal values wherever the mask keeps a sample
    radii = rng.random((n + 1, 1, count)) ** (1.0 / n)
    gr, _ = montecarlo._integrand(w * radii, mode, n)
    assert gr[~ambiguous].tobytes() == got[~ambiguous].tobytes()


@pytest.mark.parametrize("mode", ["ball", "projective"])
def test_draw_keeps_the_stream_position(mode):
    n, count = 4, 1000
    rng, ref = montecarlo._rng(9, 2), montecarlo._rng(9, 2)
    x = montecarlo._draw(rng, count, n, mode)
    assert x.tobytes() == ref.standard_normal((count, n + 1, n)).tobytes()
    if mode == "ball":
        ref.random((count, n + 1, 1))
    state = lambda g: json.dumps(g.bit_generator.state, sort_keys=True,
                                 default=np.ndarray.tolist)
    assert state(rng) == state(ref)


def _well_conditioned_gs(n, seed, ratio):
    """n+1 seeded matrices, each with |det g| > ratio * its row-norm product."""
    rng = random.Random(seed)
    gs = []
    while len(gs) < n + 1:
        g = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
        if abs(np.linalg.det(g)) > ratio * np.linalg.norm(g, axis=1).prod():
            gs.append(g)
    return np.array(gs)


# (n, mode, seed, float.hex(mean), float.hex(stderr), resampled), recorded
# with the per-submatrix np.linalg.det integrand over CHUNK + 1000 samples
PINNED = [
    (2, "ball", 101, "0x1.4bc062047a0cfp-7", "0x1.f1ff226415a54p-9", 0),
    (2, "projective", 102, "-0x1.076c0802d3d25p-5", "0x1.ecf0e9da9199ep-10", 0),
    (4, "ball", 103, "0x1.c4636e633211bp-11", "0x1.eba97c2c8cf24p-10", 0),
    (4, "projective", 104, "-0x1.dec71917ea52bp-11", "0x1.f104570db3113p-12", 0),
    # n = 6: recorded with the Laplace integrand, while the draws were still
    # normalized to the unit sphere and given U^(1/n) radii in ball mode
    (6, "ball", 107, "0x1.2d979eeccc0bcp-11", "0x1.00cd28bc29552p-10", 0),
    (6, "projective", 108, "-0x1.16f90c9b098aep-14", "0x1.f110c557988c1p-14", 0),
]
# the same with the ambiguity threshold raised to 0.02, so thousands of
# samples are redrawn; the g's clear the input check at that threshold too
PINNED_REDRAW = [
    (2, "projective", 105, "-0x1.27effa585b6b9p-8", "0x1.f0fd29fb2afa8p-10", 660),
    (4, "ball", 106, "-0x1.8811e833d60f5p-11", "0x1.edf85365da70dp-10", 6323),
    (6, "ball", 109, "0x1.e28c317ae012ep-14", "0x1.06102c8c593e2p-10", 34836),
]
# the g's of the redraw pins: |det g| above this share of the row-norm
# product (seeded draws reach 0.5 only rarely at n = 6)
REDRAW_RATIO = {2: 0.5, 4: 0.5, 6: 0.3}


def _pinned(n, mode, seed, ratio):
    est = itu_estimate(_well_conditioned_gs(n, seed, ratio), CHUNK + 1000,
                       seed=seed, mode=mode)
    return est.mean.hex(), est.stderr.hex(), est.resampled


@pytest.mark.parametrize("n,mode,seed,mean,stderr,resampled", PINNED,
                         ids=[f"{n}-{mode}" for n, mode, *_ in PINNED])
def test_outputs_pinned(n, mode, seed, mean, stderr, resampled):
    assert _pinned(n, mode, seed, 0.1) == (mean, stderr, resampled)


@pytest.mark.parametrize("n,mode,seed,mean,stderr,resampled", PINNED_REDRAW,
                         ids=[f"{n}-{mode}" for n, mode, *_ in PINNED_REDRAW])
def test_redraws_pinned(n, mode, seed, mean, stderr, resampled, monkeypatch):
    monkeypatch.setattr(montecarlo, "DET_RTOL", 0.02)
    assert _pinned(n, mode, seed, REDRAW_RATIO[n]) == (mean, stderr, resampled)


# Value check at n = 2 against the closed form of the cocycle: for
# det g_k > 0, with z_k = C(g_k . i) the Cayley image C(z) = (z - i)/(z + i)
# of the Mobius image of i, itu(g_0, g_1, g_2) = -arg(w) / (2 pi) for
# w = (1 - conj(z_0) z_1)(1 - conj(z_1) z_2)(1 - conj(z_2) z_0): the signed
# hyperbolic area of the triangle (g_0 i, g_1 i, g_2 i) over 4 pi
# (Goldman 1988; Ivanov-Turaev 1982).  A float test oracle, not a library
# path.  Every estimate must sit within Z_MAX standard errors of it, and an
# estimator returning -itu or itu/2 must not.
Z_MAX = 4.0


def _itu_closed_form(gs):
    zs = []
    for (a, b), (c, d) in gs:
        h = (a * 1j + b) / (c * 1j + d)
        zs.append((h - 1j) / (h + 1j))
    w = 1
    for k in range(3):
        w *= 1 - zs[k].conjugate() * zs[(k + 1) % 3]
    return -cmath.phase(w) / (2 * math.pi)


def _integer_glp_triples(seed, count):
    """count triples of 2x2 integer matrices, entries in {-9..9}, det > 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gs = []
        while len(gs) < 3:
            g = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
            if g[0][0] * g[1][1] - g[0][1] * g[1][0] > 0:
                gs.append(g)
        out.append(gs)
    return out


def test_value_matches_closed_form_n2():
    z = {"estimate": [], "negated": [], "halved": []}
    for k, gs in enumerate(_integer_glp_triples(2024, 8)):
        want = _itu_closed_form(gs)
        assert abs(want) < 0.25
        for mode in ("ball", "projective"):
            est = itu_estimate([[[float(x) for x in r] for r in g] for g in gs],
                               samples=100_000, seed=k, mode=mode)
            for name, mean in (("estimate", est.mean), ("negated", -est.mean),
                               ("halved", est.mean / 2)):
                z[name].append((mean - want) / est.stderr)
    assert max(abs(x) for x in z["estimate"]) <= Z_MAX, z["estimate"]
    # the check has power: each wrong estimator misses on some triple
    assert max(abs(x) for x in z["negated"]) > Z_MAX
    assert max(abs(x) for x in z["halved"]) > Z_MAX
