"""Monte Carlo estimation of the ball-integral cocycle.

Ball mode draws each v_i uniformly from the unit ball of R^n (uniform sphere
direction times U^(1/n) radius) and averages sul(g_0 v_0, ..., g_n v_n);
projective mode draws sphere directions only (a uniform point of P(R^n)
plus a forgotten sign) and averages smi instead.  The integrand is
0-homogeneous in every argument, so the two estimate the same number.

Floats throughout: the target is transcendental and only statistical
agreement is claimed.  A sample whose deleted determinants come within
1e-9 of zero relative to the row-norm scale is thrown away and redrawn
from the same stream (unbiased off a measure-zero set), with a counter
reported.  Streams are counter-based (Philox) keyed by (seed, chunk index)
and reduced in fixed chunk order, so results are bit-reproducible.

A batch is laid out samples last: the draw (samples, n+1, n) is
normalized in place, and one matmul turns it into the rows
w = (g_i v_i) of shape (n+1, n, samples), so every row and column slice
is a contiguous array over the samples.  The n+1 deleted determinants
come from a Laplace expansion on those arrays: the minors of the first
k+1 columns on every (k+1)-subset of rows, each a signed sum of k+1
products of a column entry with a minor of the level below, two levels
alive at a time (70 multiply-adds per sample at n = 4, 6 at n = 2).  It
agrees with a LAPACK determinant per submatrix to about 1e-15 of the
row-norm scale, far inside the 1e-9 ambiguity band, so both give the
same signs outside the band, the same redraws and the same estimates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, require_even

CHUNK = 1 << 14
DET_RTOL = 1e-9


@dataclass(frozen=True)
class ItuEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    mode: str
    resampled: int


def _rng(seed: int, chunk_index: int):
    key = np.array([seed & (2**64 - 1), chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(rng, count: int, n: int, mode: str):
    x = rng.standard_normal((count, n + 1, n))
    norms = np.linalg.norm(x, axis=2, keepdims=True)
    # a zero normal draw has probability 0; keep it finite and let the
    # ambiguity filter below discard the sample
    norms[norms == 0] = 1.0
    x /= norms
    if mode == "ball":
        x *= rng.random((count, n + 1, 1)) ** (1.0 / n)
    return x


def _deleted_dets(w):
    """Deleted determinants (n+1, samples) and a relative scale per deleted
    index from the row norms, for rows w of shape (n+1, n, samples).

    Laplace expansion along columns: the minor of the first k+1 columns on
    rows r_0 < ... < r_k is sum_p (-1)^(p+k) w[r_p, k] * (the minor of the
    first k columns on the other rows).  Only two levels are alive at once;
    d_i is the n-minor on every row but i.
    """
    np1, n, count = w.shape
    prev, index = w[:, 0], {(r,): r for r in range(np1)}
    term = np.empty(count)
    for k in range(1, n):
        rowsets = list(itertools.combinations(range(np1), k + 1))
        cur = np.zeros((len(rowsets), count))
        for t, rows in enumerate(rowsets):
            for p, r in enumerate(rows):
                np.multiply(w[r, k], prev[index[rows[:p] + rows[p + 1:]]],
                            out=term)
                if (p + k) % 2:
                    cur[t] -= term
                else:
                    cur[t] += term
        prev, index = cur, {rows: t for t, rows in enumerate(rowsets)}
    dets = prev[::-1]  # the t-th n-subset of the rows leaves out row n - t
    norms = np.sqrt(np.einsum("rks,rks->rs", w, w))
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = norms.prod(axis=0) / norms
    return dets, scale


def _integrand(w, mode: str, n: int):
    """Values and ambiguity mask per sample for rows w (n+1, n, samples)."""
    dets, scale = _deleted_dets(w)
    ambiguous = (~np.isfinite(dets)) | (~np.isfinite(scale)) \
        | (np.abs(dets) < DET_RTOL * scale)
    ambiguous = ambiguous.any(axis=0)
    alt = np.array([[(-1.0) ** i] for i in range(n + 1)])
    base = np.sign(dets) * alt  # the Cramer signs (-1)^i sign(det_i)
    if mode == "ball":
        inside = (base == base[0]).all(axis=0) & (base[0] != 0)
        return np.where(inside, base[0], 0.0), ambiguous
    # projective: smi, the average of sul over all sign flips of the
    # arguments, is the product of the Cramer signs over 2^n (cocycles)
    return base.prod(axis=0) / 2 ** n, ambiguous


def _check_gs(gs):
    try:
        arr = np.asarray(gs, dtype=float)
    except (ValueError, TypeError):
        raise InputError("g-tuple is not a rectangular numeric array") from None
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[0] != arr.shape[1] + 1:
        raise InputError(f"need n+1 matrices of shape n x n, got shape {arr.shape}")
    require_even(arr.shape[-1])
    dets = np.linalg.det(arr)
    scale = np.linalg.norm(arr, axis=2).prod(axis=1)
    if not np.all(np.isfinite(arr)) or np.any(np.abs(dets) <= DET_RTOL * scale):
        raise InputError("near-singular or non-finite matrix in g-tuple")
    return arr


def itu_estimate(gs, samples: int, seed: int = 0, mode: str = "ball") -> ItuEstimate:
    """Estimate the ball average of sul(g_0 v_0, ..., g_n v_n)."""
    if mode not in ("ball", "projective"):
        raise InputError(f"unknown mode {mode!r}")
    if samples < 1:
        raise InputError("samples must be >= 1")
    gs = _check_gs(gs)
    n = gs.shape[-1]

    total = 0.0
    total_sq = 0.0
    resampled = 0
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(CHUNK, samples - done)
        rng = _rng(seed, chunk_index)
        vals = np.empty(size)
        filled = 0
        while filled < size:
            todo = size - filled
            v = _draw(rng, todo, n, mode)
            w = np.matmul(gs, v.transpose(1, 2, 0))  # w[i, :, s] = g_i v_i
            del v
            got, ambiguous = _integrand(w, mode, n)
            good = got[~ambiguous]
            k = min(len(good), todo)
            vals[filled:filled + k] = good[:k]
            filled += k
            resampled += int(ambiguous.sum())
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += size
        chunk_index += 1

    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / max(samples - 1, 1)
    stderr = float(np.sqrt(var / samples))
    return ItuEstimate(mean=float(mean), stderr=stderr, samples=samples,
                       seed=seed, mode=mode, resampled=resampled)
