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
"""

from __future__ import annotations

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
    dirs = x / np.where(norms == 0, 1.0, norms)
    if mode == "ball":
        r = rng.random((count, n + 1, 1)) ** (1.0 / n)
        return dirs * r
    return dirs


def _deleted_dets(w):
    # w: (samples, n+1, n) rows; returns dets (samples, n+1) and a relative
    # scale per deleted index from the row norms
    count, np1, n = w.shape
    dets = np.empty((count, np1))
    for i in range(np1):
        keep = [j for j in range(np1) if j != i]
        dets[:, i] = np.linalg.det(w[:, keep, :])
    norms = np.linalg.norm(w, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = norms.prod(axis=1, keepdims=True) / norms
    return dets, scale


def _integrand(w, mode: str, n: int):
    """Values and ambiguity mask for a batch of transformed tuples."""
    dets, scale = _deleted_dets(w)
    ambiguous = (~np.isfinite(dets)) | (~np.isfinite(scale)) \
        | (np.abs(dets) < DET_RTOL * scale)
    ambiguous = ambiguous.any(axis=1)
    alt = np.array([(-1.0) ** i for i in range(n + 1)])
    base = np.sign(dets) * alt  # the Cramer signs (-1)^i sign(det_i)
    if mode == "ball":
        inside = (base == base[:, :1]).all(axis=1) & (base[:, 0] != 0)
        return np.where(inside, base[:, 0], 0.0), ambiguous
    # projective: smi, the average of sul over all sign flips of the
    # arguments, is the product of the Cramer signs over 2^n (cocycles)
    return base.prod(axis=1) / 2 ** n, ambiguous


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
            w = np.einsum("iab,sib->sia", gs, v)
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
