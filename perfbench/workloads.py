"""Seeded inputs, timed items and exact checks for the four workloads.

A workload is a fixed list of items.  Each item is one closed-loop unit of
work: a call into the public API of eulerflags whose return value is kept
and checked after the timed region ends.  Inputs come from random.Random
seeded with the workload name and --seed; nothing here uses
eulerflags.randgen, so a change there cannot change a workload.  The only
library calls made while building inputs are make_flag (the public way to
build a flag) and, in pipelines, the fixed representations from surfaces.

Library functions are looked up through their modules at call time
(cocycles.smi, not a name bound at import), so that the traced run sees the
wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np

from eulerflags import circle, cli, cocycles, flags, montecarlo, serialize, \
    simplicial, surfaces

class Item:
    """One unit of timed work: run(arg) is timed, check(out) is not."""

    __slots__ = ("kind", "run", "arg", "check")

    def __init__(self, kind, run, arg, check):
        self.kind, self.run, self.arg, self.check = kind, run, arg, check


class Workload:
    def __init__(self, name, items, digest_parts, pooled_checks=()):
        self.name = name
        self.items = items
        self.digest_parts = digest_parts
        # (item indices, fn(outputs of those items) -> error or None)
        self.pooled_checks = pooled_checks


# ---------------------------------------------------------------------------
# Exact helpers independent of eulerflags.linalg.


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for j in range(k - 1):
        p = next((i for i in range(j, k) if a[i][j]), None)
        if p is None:
            return 0
        if p != j:
            a[j], a[p] = a[p], a[j]
            sign = -sign
        for i in range(j + 1, k):
            for c in range(j + 1, k):
                a[i][c] = (a[j][j] * a[i][c] - a[i][j] * a[j][c]) // prev
            a[i][j] = 0
        prev = a[j][j]
    return sign * a[k - 1][k - 1] if k else 1


def cleared(v):
    """v scaled by the positive lcm of its denominators: same direction."""
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in v]


def orientation(vs) -> int:
    d = int_det([cleared(v) for v in vs])
    return (d > 0) - (d < 0)


def spanning(vs, n) -> bool:
    """Every n of the vectors are independent."""
    ints = [cleared(v) for v in vs]
    return all(int_det(sub) for sub in itertools.combinations(ints, n))


def bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def exact_bits(out):
    """Largest numerator or denominator bit length in a nest of exact
    numbers; None when out holds none (floats do not count)."""
    if isinstance(out, bool) or isinstance(out, float):
        return None
    if isinstance(out, (int, Fraction)):
        return bits(out)
    if isinstance(out, (tuple, list)):
        found = [b for b in map(exact_bits, out) if b is not None]
        return max(found) if found else None
    if isinstance(out, dict):
        return exact_bits(list(out.values()))
    return None


class Draw:
    """Seeded small exact inputs."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def frac(self, m=9) -> Fraction:
        return Fraction(self.rng.randint(-m, m), self.rng.randint(1, m))

    def vector(self, n, m=9):
        while True:
            v = tuple(self.frac(m) for _ in range(n))
            if any(v):
                return v

    def basis(self, n, entry):
        while True:
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            if orientation(rows):
                return rows

    def flag(self, n, entry=None):
        return flags.make_flag(self.basis(n, entry or self.frac))

    def spanning_tuple(self, n, count):
        while True:
            vs = tuple(self.vector(n) for _ in range(count))
            if spanning(vs, n):
                return vs

    def degenerate_tuple(self, n, count):
        """Nonzero vectors with a planted dependent n-subset."""
        while True:
            vs = list(self.spanning_tuple(n, count))
            if self.rng.random() < 0.5:
                i, j = self.rng.sample(range(count), 2)
                lam = Fraction(0)
                while lam == 0:
                    lam = self.frac()
                vs[i] = tuple(lam * x for x in vs[j])
            else:
                picks = self.rng.sample(range(count), n)
                i, rest = picks[0], picks[1:]
                cs = [self.frac() for _ in rest]
                vs[i] = tuple(sum(c * vs[r][k] for c, r in zip(cs, rest))
                              for k in range(n))
            if any(vs[i]) and not spanning(vs, n):
                return tuple(vs)

    def glp(self, n=2, m=3):
        """Small integer matrix of positive determinant."""
        while True:
            g = [[Fraction(self.rng.randint(-m, m)) for _ in range(n)]
                 for _ in range(n)]
            d = int_det([[int(x) for x in r] for r in g])
            if d:
                if d < 0:
                    g[0] = [-x for x in g[0]]
                return tuple(tuple(r) for r in g)


def _flag_doc(Fs):
    return [[[str(x) for x in v] for v in F.basis] for F in Fs]


def _pts_doc(vs):
    return [[str(x) for x in v] for v in vs]


def _err(cond, text):
    return None if cond else text


# ---------------------------------------------------------------------------
# cochains: cocycle identities and the Smillie relation, factorized coc only.

COCHAIN_ITEMS = 800


def _cochain_run(arg):
    pts, Fs, span, degen = arg
    cb = cocycles.coboundary
    return (cb(cocycles.pcoc, pts), cb(cocycles.sul, pts),
            cb(cocycles.coco, Fs), cb(cocycles.coc, Fs),
            cocycles.pcoc(span), cocycles.smi(span),
            cocycles.pcoc(degen), cocycles.smi(degen))


def _cochain_check(n):
    sign = (-1) ** (n // 2) * 2 ** n

    def check(out):
        dp, ds, dcoco, dcoc, p, s, pd, sd = out
        if (dp, ds, dcoco, dcoc) != (0, 0, 0, 0):
            return f"nonzero coboundary {dp}, {ds}, {dcoco}, {dcoc}"
        if p != sign * s or pd != sign * sd:
            return f"pcoc = {p}, {pd} but smi = {s}, {sd}"
        return _err(p != 0 and pd == 0, "planted degeneracy not seen")
    return check


def cochains(seed: int) -> Workload:
    # Every item carries one spanning and one degenerate (n+1)-tuple, so the
    # items of one n cost alike and no latency percentile falls on the seam
    # between a cheap and a dear kind.
    d = Draw("cochains", seed)
    items, parts = [], []
    for i in range(COCHAIN_ITEMS):
        n = 4 if i % 5 == 4 else 2
        pts = d.spanning_tuple(n, n + 2)
        Fs = tuple(d.flag(n) for _ in range(n + 2))
        span = d.spanning_tuple(n, n + 1)
        degen = d.degenerate_tuple(n, n + 1)
        items.append(Item(f"n{n}", _cochain_run, (pts, Fs, span, degen),
                          _cochain_check(n)))
        parts.append((_pts_doc(pts), _flag_doc(Fs), _pts_doc(span), _pts_doc(degen)))
    return Workload("cochains", items, parts)


# ---------------------------------------------------------------------------
# deflation: the naive coc oracle on one n = 4 tuple and many n = 2 tuples.

DEFLATION_N2 = 2000


def _naive_coc(Fs):
    return cocycles.coc(Fs, mode="naive")


def _deflation_check(Fs):
    def check(out):
        want = cocycles.coc(Fs, mode="factorized")
        return _err(out == want, f"naive {out} != factorized {want}")
    return check


def deflation(seed: int) -> Workload:
    d = Draw("deflation", seed)
    items, parts = [], []
    # the n = 4 tuple sits mid-pass, so the n = 2 latencies come from two
    # stretches of time on either side of its 11-13 s
    half = [2] * (DEFLATION_N2 // 2)
    for n in half + [4] + half:
        Fs = tuple(d.flag(n) for _ in range(n + 1))
        items.append(Item(f"n{n}", _naive_coc, Fs, _deflation_check(Fs)))
        parts.append(_flag_doc(Fs))
    return Workload("deflation", items, parts)


# ---------------------------------------------------------------------------
# realize: realize_points on integer flags, three n = 4 tuples per n = 2 one.

REALIZE_N4 = 360


def _realize_check(Fs):
    n = Fs[0].n

    def check(xs):
        if len(xs) != n + 2 or not spanning(xs, n):
            return "output not hereditarily spanning"
        for i, j in itertools.combinations(range(n + 2), 2):
            keep = [k for k in range(n + 2) if k not in (i, j)]
            want = orientation(flags.bracket([Fs[k] for k in keep]).basis)
            if orientation([xs[k] for k in keep]) != want:
                return f"orientation mismatch deleting ({i}, {j})"
        return None
    return check


def _realize(Fs):
    return flags.realize_points(Fs)


def realize(seed: int) -> Workload:
    d = Draw("realize", seed)
    entry = lambda: Fraction(d.rng.randint(-1, 1))
    items, parts = [], []
    for i in range(REALIZE_N4 * 4 // 3):
        n = 2 if i % 4 == 3 else 4
        Fs = tuple(d.flag(n, entry) for _ in range(n + 2))
        items.append(Item(f"n{n}", _realize, Fs, _realize_check(Fs)))
        parts.append(_flag_doc(Fs))
    return Workload("realize", items, parts)


# ---------------------------------------------------------------------------
# pipelines: genus-g flat bundles end to end, plus Monte Carlo estimates.

BUNDLE_ROUNDS = 3
LARGE_GENUS = 4
SECTION_CANDIDATES = 8
MC_ROUNDS = 24
MC_SAMPLES = 1 << 14
FUCHSIAN_TOL = Fraction(1, 10 ** 9)


class BundleCase:
    """Inputs of one bundle and the bundle its build item produced."""

    def __init__(self, name, rep, tol, want, d: Draw):
        self.name, self.rep, self.tol, self.want = name, rep, tol, want
        nv = 16 * (len(rep) // 2) + 2      # vertex classes of the 4g-gon
        self.sections = [[d.vector(2, 30) for _ in range(nv)]
                         for _ in range(SECTION_CANDIDATES)]
        self.new_sections = [[d.vector(2, 30) for _ in range(nv)]
                             for _ in range(SECTION_CANDIDATES)]
        self.gauge = [d.glp() for _ in range(nv)]
        self.bundle = None


def _certified(bundle, mode, candidates):
    """(raw, e, per_simplex, retries): the first of bundle and its
    re-sectioned copies on which euler_number certifies a value."""
    for retries, section in enumerate([None] + candidates):
        b = bundle if section is None else simplicial.with_section(bundle, section)
        try:
            raw, e, per = simplicial.euler_number(b, mode)
        except simplicial.NonGenericSection:
            continue
        return b, (raw, e, per, retries)
    raise simplicial.NonGenericSection(f"no certifiable section in "
                                       f"{len(candidates) + 1} tries")


def _step_build(c):
    c.bundle = surfaces.genus_surface_bundle(c.rep, section=c.sections[0],
                                             tol=c.tol)
    return {"transitions": list(c.bundle.transitions.values()),
            "section": c.bundle.section}


def _step_smillie(c):
    c.bundle, out = _certified(c.bundle, "smillie", c.sections[1:])
    return out


def _step_sullivan(c):
    return _certified(c.bundle, "sullivan", c.sections[1:])[1]


def _step_gauge(c):
    g = simplicial.gauge_transform(c.bundle, c.gauge)
    return simplicial.euler_number(g, "smillie")


def _step_section(c):
    first = simplicial.with_section(c.bundle, c.new_sections[0])
    return _certified(first, "smillie", c.new_sections[1:])[1]


def _step_cli(c):
    doc = json.dumps(serialize.dump_bundle(c.bundle))
    stdin, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["euler", "-"])
    finally:
        sys.stdin = stdin
    res = json.loads(out.getvalue()) if code == 0 else {}
    return (code, res.get("euler_number"), Fraction(res.get("raw", 0)),
            [Fraction(v) for v in res.get("per_simplex", [])])


def _step_oracle(c):
    return circle.euler_number_oracle(c.rep)


def _bundle_check(c, step):
    def check(out):
        if step == "build":
            return None if out["transitions"] else "empty bundle"
        if step == "cli":
            code, e, raw = out[0], out[1], out[2]
            return _err(code == 0 and e == c.want and raw == c.want,
                        f"{c.name}: cli exit {code}, e = {e}, raw = {raw}")
        if step == "oracle":
            return _err(out == c.want, f"{c.name}: oracle gave {out}")
        raw, e = out[0], out[1]
        return _err(e == c.want and raw == c.want,
                    f"{c.name} {step}: e = {e}, raw = {raw}")
    return check


BUNDLE_STEPS = (("build", _step_build), ("smillie", _step_smillie),
                ("sullivan", _step_sullivan), ("gauge", _step_gauge),
                ("section", _step_section), ("cli", _step_cli),
                ("oracle", _step_oracle))


def _mc_run(arg):
    gs, seed, mode = arg
    return montecarlo.itu_estimate(gs, MC_SAMPLES, seed=seed, mode=mode)


def _mc_check(n):
    def check(est):
        return _err(abs(est.mean) <= 2.0 ** -n + 3 * est.stderr,
                    f"|mean| {est.mean} above 2^-{n} + 3 sigma")
    return check


def _pooled(ests):
    mean = sum(e.mean for e in ests) / len(ests)
    return mean, math.sqrt(sum(e.stderr ** 2 for e in ests)) / len(ests)


def _mc_agree(n):
    def check(outs):
        ball = _pooled([e for e in outs if e.mode == "ball"])
        proj = _pooled([e for e in outs if e.mode == "projective"])
        sigma = math.hypot(ball[1], proj[1])
        return _err(abs(ball[0] - proj[0]) <= 3 * sigma,
                    f"n={n}: ball {ball[0]} vs projective {proj[0]} "
                    f"beyond 3 sigma = {3 * sigma}")
    return check


def _gs(d: Draw, n):
    """n+1 float matrices with |det| > 0.2 (well inside the estimator's
    near-singular filter)."""
    while True:
        gs = [[[d.rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
              for _ in range(n + 1)]
        if all(abs(np.linalg.det(g)) > 0.2 for g in gs):
            return gs


def pipelines(seed: int) -> Workload:
    d = Draw("pipelines", seed)
    one, zero = Fraction(1), Fraction(0)
    I2 = ((one, zero), (zero, one))
    items, parts = [], []
    for _ in range(BUNDLE_ROUNDS):
        cases = (BundleCase("trivial-g2", (I2,) * 4, 0, 0, d),
                 BundleCase(f"trivial-g{LARGE_GENUS}", (I2,) * (2 * LARGE_GENUS),
                            0, 0, d),
                 BundleCase("rational", surfaces.rational_flat_rep(), 0, 0, d),
                 BundleCase("fuchsian", surfaces.fuchsian_octagon_rep(),
                            FUCHSIAN_TOL, 1, d))
        for c in cases:
            for step, fn in BUNDLE_STEPS:
                items.append(Item(f"{c.name}.{step}", fn, c, _bundle_check(c, step)))
            parts.append((c.name, [_pts_doc(s) for s in c.sections],
                          [_pts_doc(s) for s in c.new_sections],
                          [_pts_doc(g) for g in c.gauge]))
    pooled = []
    for n in (2, 4):
        gs = _gs(d, n)
        parts.append(gs)
        first = len(items)
        for _ in range(MC_ROUNDS):
            # ball and projective share the sampling seed (common random
            # numbers), which narrows their difference at n = 2
            s = d.rng.randrange(2 ** 32)
            parts.append(s)
            for mode in ("ball", "projective"):
                items.append(Item(f"itu.n{n}.{mode}", _mc_run, (gs, s, mode),
                                  _mc_check(n)))
        # Agreement is checked at n = 2, as acceptance criterion 9 does.  At
        # n = 4 the shared seed barely correlates the modes, so a 3-sigma
        # test would fail about one run in 370 by chance alone.
        if n == 2:
            pooled.append((range(first, len(items)), _mc_agree(n)))
    return Workload("pipelines", items, parts, pooled)


WORKLOADS = {"cochains": cochains, "deflation": deflation, "realize": realize,
            "pipelines": pipelines}
