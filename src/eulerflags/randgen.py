"""Seeded random rational inputs for the property suites.

Numerators are uniform in [-m, m] and denominators in [1, m] (default
m = 100), which keeps fraction-free elimination fast while exercising
generic position.  Degenerate inputs are constructed deliberately by
planting linear dependencies, never by waiting for the RNG to collide.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .flags import OrientedFlag, make_flag
from .linalg import (InputError, det_sign_int, hereditarily_spanning,
                     is_zero_vec, ori, sig)


class RationalSampler:
    def __init__(self, seed: int, m: int = 100):
        self.rng = random.Random(seed)
        self.m = m

    def fraction(self) -> Fraction:
        return Fraction(self.rng.randint(-self.m, self.m),
                        self.rng.randint(1, self.m))

    def vector(self, n: int):
        return tuple(self.fraction() for _ in range(n))

    def nonzero_vector(self, n: int):
        while True:
            v = self.vector(n)
            if not is_zero_vec(v):
                return v

    def matrix(self, n: int):
        return tuple(self.vector(n) for _ in range(n))

    def gl_matrix(self, n: int):
        while True:
            g = self.matrix(n)
            try:
                if sig(g):
                    return g
            except InputError:
                continue

    def glp_matrix(self, n: int):
        """Random element of GL_n^+ (positive determinant)."""
        g = self.gl_matrix(n)
        if sig(g) < 0:
            g = (tuple(-x for x in g[0]),) + g[1:]
        return g

    def flag(self, n: int) -> OrientedFlag:
        return make_flag(self.gl_matrix(n))

    def flags(self, n: int, count: int):
        return tuple(self.flag(n) for _ in range(count))

    def pool_flags(self, n: int, count: int):
        """count flags whose bases are drawn, with random signs, from one
        pool of n + 3 nonzero vectors in {-1, 0, 1}^n: shared and repeated
        lines make the brackets non-generic (selection levels above 0).
        A pool that spans less than R^n is drawn again."""
        pool = []
        while not any(det_sign_int(b) for b in itertools.combinations(pool, n)):
            pool = []
            while len(pool) < n + 3:
                v = tuple(self.rng.randint(-1, 1) for _ in range(n))
                if any(v):
                    pool.append(v)
        Fs = []
        while len(Fs) < count:
            basis = [tuple(self.rng.choice((1, -1)) * x for x in v)
                     for v in self.rng.sample(pool, n)]
            if det_sign_int(basis):
                Fs.append(make_flag(basis))
        return tuple(Fs)

    def spanning_tuple(self, n: int, count: int):
        """count >= n vectors, hereditarily spanning."""
        while True:
            vs = tuple(self.nonzero_vector(n) for _ in range(count))
            if hereditarily_spanning(vs):
                return vs

    def non_spanning_tuple(self, n: int, count: int):
        """count vectors with a planted dependent n-subset, all nonzero."""
        while True:
            vs = list(self.spanning_tuple(n, count))
            if self.rng.random() < 0.5:
                # proportional pair
                i, j = self.rng.sample(range(count), 2)
                lam = Fraction(0)
                while lam == 0:
                    lam = self.fraction()
                vs[i] = tuple(lam * x for x in vs[j])
            else:
                # park one vector inside the span of n-1 others
                picks = self.rng.sample(range(count), n)
                i, rest = picks[0], picks[1:]
                coeffs = [self.fraction() for _ in rest]
                vs[i] = tuple(sum(c * vs[r][k] for c, r in zip(coeffs, rest))
                              for k in range(n))
            if not is_zero_vec(vs[i]) and not hereditarily_spanning(vs):
                return tuple(vs)

    def tuple_with_degeneracies(self, n: int, count: int):
        if self.rng.random() < 0.5:
            return self.non_spanning_tuple(n, count)
        return self.spanning_tuple(n, count)

    def spanning_flagstaff_flags(self, n: int, count: int):
        """Flags whose level-1 vectors form a hereditarily spanning tuple."""
        staffs = self.spanning_tuple(n, count)
        out = []
        for s in staffs:
            while True:
                rest = [self.vector(n) for _ in range(n - 1)]
                if ori([s] + rest) != 0:
                    out.append(make_flag([s] + rest))
                    break
        return tuple(out)
