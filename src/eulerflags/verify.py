"""Seeded property suites behind the `verify` subcommand.

Every suite is a pure function of (seed, trials): trial t draws its inputs
from an independent child sampler derived from the seed, so any failure is
replayable from the report alone — the record carries the trial index plus
the full input in the JSON schemas used everywhere else.  Dimensions
alternate n = 2 with an n = 4 trial every fifth draw (except the suites
pinned to one dimension below).
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .cocycles import coboundary, coc, coco, pcoc, smi, sul
from .flags import bracket, flagstaff, realize_points
from .linalg import InputError, hereditarily_spanning, ori, sig, vec
from .randgen import RationalSampler
from .serialize import dump_flags, dump_points, fmt_matrix, fmt_rational
from .simplicial import euler_number, gauge_transform, with_section
from .surfaces import genus_surface_bundle, rational_flat_rep

SUITES: dict = {}


def _suite(name, identity):
    def register(fn):
        SUITES[name] = (identity, fn)
        return fn
    return register


def _child(seed: int, trial: int) -> RationalSampler:
    return RationalSampler(seed * 10_000_019 + trial)


def _dim(trial: int) -> int:
    return 4 if trial % 5 == 4 else 2


def _fail(failures, trial, n, input_doc, detail):
    failures.append({"trial": trial, "n": n, "input": input_doc,
                     "detail": detail})


# Oracles: the cochains as their definitions state them, each deleted-index
# orientation from its own ori call, so that the closed forms in cocycles
# (which read all n + 1 signs from one call of linalg's signed minors) are
# checked against an independent computation.

def sul_by_ori(vs) -> Fraction:
    """sul from its definition: +-1 when every (-1)^i ori(vs minus i) has
    that same sign, else 0."""
    vs = tuple(vec(v) for v in vs)
    signs = [(-1) ** i * ori(vs[:i] + vs[i + 1:]) for i in range(len(vs))]
    if signs[0] and all(s == signs[0] for s in signs):
        return Fraction(signs[0])
    return Fraction(0)


def smi_enumerated(vs) -> Fraction:
    """smi from its definition: the average of sul over all 2^(n+1) sign
    flips of the arguments.  Exactly one antipodal pair of flips sees the
    origin inside when the tuple is hereditarily spanning, none otherwise;
    a breach raises AssertionError."""
    vs = tuple(vec(v) for v in vs)
    n = len(vs) - 1
    total = 0
    nonzero = 0
    for signs in itertools.product((1, -1), repeat=n + 1):
        s = sul_by_ori(tuple(tuple(sg * x for x in v)
                             for sg, v in zip(signs, vs)))
        if s:
            nonzero += 1
            total += s
    if nonzero != (2 if hereditarily_spanning(vs) else 0):
        raise AssertionError(f"{nonzero} flip patterns see the origin inside")
    return Fraction(total, 2 ** (n + 1))


# per-suite runners: (seed, trials) -> list of failure records

@_suite("alternating",
        "pcoc, sul and smi change sign under any transposition of arguments")
def _run_alternating(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        vs = s.tuple_with_degeneracies(n, n + 1)
        i, j = sorted(s.rng.sample(range(n + 1), 2))
        ws = list(vs)
        ws[i], ws[j] = ws[j], ws[i]
        for f in (pcoc, sul, smi):
            if f(ws) != -f(vs):
                _fail(failures, t, n, dump_points(n, vs),
                      f"{f.__name__} not alternating under swap ({i},{j})")
    return failures


@_suite("equivariance",
        "f(g x_0, ..., g x_n) = sig(g) f(x_0, ..., x_n) "
        "for f in {pcoc, sul, smi, coco, coc}")
def _run_equivariance(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        g = s.gl_matrix(n)
        e = sig(g)
        vs = s.tuple_with_degeneracies(n, n + 1)
        gvs = tuple(tuple(sum(g[r][k] * v[k] for k in range(n))
                          for r in range(n)) for v in vs)
        for f in (pcoc, sul, smi):
            if f(gvs) != e * f(vs):
                _fail(failures, t, n, dump_points(n, vs),
                      f"{f.__name__} not sign-equivariant "
                      f"(g = {fmt_matrix(g)})")
        Fs = s.flags(n, n + 1)
        gFs = tuple(F.apply(g) for F in Fs)
        for f in (coco, coc):
            if f(gFs) != e * f(Fs):
                _fail(failures, t, n, dump_flags(n, Fs),
                      f"{f.__name__} not sign-equivariant "
                      f"(g = {fmt_matrix(g)})")
    return failures


@_suite("descent",
        "pcoc and smi are invariant under independent nonzero rescaling "
        "of each argument")
def _run_descent(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        vs = s.tuple_with_degeneracies(n, n + 1)
        lams = []
        for _ in vs:
            lam = Fraction(0)
            while lam == 0:
                lam = s.fraction()
            lams.append(lam)
        ws = tuple(tuple(l * x for x in v) for l, v in zip(lams, vs))
        for f in (pcoc, smi):
            if f(ws) != f(vs):
                _fail(failures, t, n, dump_points(n, vs),
                      f"{f.__name__} not scale-invariant "
                      f"(scales {[fmt_rational(l) for l in lams]})")
    return failures


@_suite("cocycle-pcoc", "d pcoc = 0 on hereditarily spanning (n+2)-tuples")
def _run_cocycle_pcoc(seed, trials):
    return _cocycle_points(seed, trials, pcoc, "pcoc")


@_suite("cocycle-sul", "d sul = 0 on hereditarily spanning (n+2)-tuples")
def _run_cocycle_sul(seed, trials):
    return _cocycle_points(seed, trials, sul, "sul")


def _cocycle_points(seed, trials, f, name):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        vs = s.spanning_tuple(n, n + 2)
        d = coboundary(f, vs)
        if d != 0:
            _fail(failures, t, n, dump_points(n, vs),
                  f"d {name} = {fmt_rational(d)} != 0")
    return failures


@_suite("cocycle-coco", "d coco = 0 on all oriented-flag (n+2)-tuples")
def _run_cocycle_coco(seed, trials):
    return _cocycle_flags(seed, trials, coco, "coco")


@_suite("cocycle-coc", "d coc = 0 on all oriented-flag (n+2)-tuples")
def _run_cocycle_coc(seed, trials):
    return _cocycle_flags(seed, trials, coc, "coc")


def _cocycle_flags(seed, trials, f, name):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        Fs = s.flags(n, n + 2)
        d = coboundary(f, Fs)
        if d != 0:
            _fail(failures, t, n, dump_flags(n, Fs),
                  f"d {name} = {fmt_rational(d)} != 0")
    return failures


@_suite("smillie-relation", "pcoc = (-1)^(n/2) 2^n smi on every input")
def _run_smillie(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        vs = s.tuple_with_degeneracies(n, n + 1)
        # the enumerated smi: against the closed form the relation would
        # hold by construction
        want = smi_enumerated(vs)
        lhs, rhs = pcoc(vs), (-1) ** (n // 2) * 2 ** n * want
        if lhs != rhs:
            _fail(failures, t, n, dump_points(n, vs),
                  f"pcoc = {fmt_rational(lhs)} but "
                  f"(-1)^(n/2) 2^n smi = {fmt_rational(rhs)}")
        if smi(vs) != want:
            _fail(failures, t, n, dump_points(n, vs),
                  f"smi = {fmt_rational(smi(vs))} but the 2^(n+1)-flip "
                  f"average is {fmt_rational(want)}")
    return failures


@_suite("deflation-diff", "naive and factorized coc agree (n = 2)")
def _run_deflation(seed, trials):
    failures = []
    n = 2
    for t in range(trials):
        s = _child(seed, t)
        Fs = s.flags(n, n + 1)
        a, b = coc(Fs, mode="factorized"), coc(Fs, mode="naive")
        if a != b:
            _fail(failures, t, n, dump_flags(n, Fs),
                  f"factorized {fmt_rational(a)} != naive {fmt_rational(b)}")
    return failures


@_suite("realize-points",
        "points realizing an (n+2)-flag tuple match every pairwise-deleted "
        "bracket orientation and are hereditarily spanning")
def _run_realize(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        Fs = s.flags(n, n + 2)
        doc = dump_flags(n, Fs)
        try:
            xs = realize_points(Fs)
        except AssertionError as exc:
            _fail(failures, t, n, doc, f"internal assertion: {exc}")
            continue
        if not hereditarily_spanning(xs):
            _fail(failures, t, n, doc, "output not hereditarily spanning")
            continue
        for i in range(n + 2):
            for j in range(i + 1, n + 2):
                keep = [k for k in range(n + 2) if k not in (i, j)]
                got = ori([xs[k] for k in keep])
                want = ori(bracket([Fs[k] for k in keep]).basis)
                if got != want:
                    _fail(failures, t, n, doc,
                          f"orientation mismatch deleting ({i},{j}): "
                          f"{got} != {want}")
    return failures


@_suite("supnorm",
        "|smi| = 2^-n exactly iff hereditarily spanning; |coco| = 1; "
        "coc equals pcoc of the flagstaffs when those span hereditarily")
def _run_supnorm(seed, trials):
    failures = []
    for t in range(trials):
        s, n = _child(seed, t), _dim(t)
        bound = Fraction(1, 2 ** n)
        vs = s.spanning_tuple(n, n + 1)
        if abs(smi(vs)) != bound:
            _fail(failures, t, n, dump_points(n, vs),
                  f"|smi| = {fmt_rational(abs(smi(vs)))} != 2^-{n} "
                  "on a hereditarily spanning tuple")
        ws = s.non_spanning_tuple(n, n + 1)
        if abs(smi(ws)) >= bound:
            _fail(failures, t, n, dump_points(n, ws),
                  "|smi| not below 2^-n on a non-spanning tuple")
        Fs = s.flags(n, n + 1)
        if abs(coco(Fs)) != 1:
            _fail(failures, t, n, dump_flags(n, Fs), "|coco| != 1")
        Gs = s.spanning_flagstaff_flags(n, n + 1)
        if coc(Gs) != pcoc([flagstaff(F) for F in Gs]):
            _fail(failures, t, n, dump_flags(n, Gs),
                  "coc != pcoc of flagstaffs")
    return failures


@_suite("bundle",
        "genus-2 Euler numbers: identity and exact rational holonomies give "
        "0, integrally, invariant under gauge moves and section changes")
def _run_bundle(seed, trials):
    failures = []
    n = 2
    I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for t in range(trials):
        s = _child(seed, t)
        rep = (I2,) * 4 if t % 2 == 0 else rational_flat_rep()
        name = "trivial" if t % 2 == 0 else "rational"
        doc = {"rep": [fmt_matrix(m) for m in rep], "seed": seed, "trial": t}
        try:
            b = genus_surface_bundle(rep, seed=seed * 7919 + t)
            raw, e, _ = euler_number(b)
            if e != 0:
                _fail(failures, t, n, doc, f"{name} holonomy gave e = {e}")
                continue
            hs = []
            for _ in range(b.vertices):
                hs.append(s.glp_matrix(2))
            if euler_number(gauge_transform(b, hs))[1] != 0:
                _fail(failures, t, n, doc, f"{name}: gauge move changed e")
            sec = [s.nonzero_vector(2) for _ in range(b.vertices)]
            if euler_number(with_section(b, sec))[1] != 0:
                _fail(failures, t, n, doc, f"{name}: section change moved e")
        except AssertionError as exc:
            _fail(failures, t, n, doc, f"internal assertion: {exc}")
    return failures


def run_suite(suite: str, seed: int, trials: int) -> dict:
    """One VerifySuiteReport: suite, identity, seed, trials, failures,
    wall_time.  Unknown suite names raise InputError ('all' is expanded by
    run_suites)."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    identity, fn = SUITES[suite]
    start = time.perf_counter()
    failures = fn(seed, trials)
    return {
        "suite": suite,
        "identity": identity,
        "seed": seed,
        "trials": trials,
        "failures": failures,
        "wall_time": round(time.perf_counter() - start, 6),
    }


def run_suites(suite: str, seed: int, trials: int) -> list:
    """Reports for the named suite, or for every registered suite if
    'all'."""
    names = sorted(SUITES) if suite == "all" else [suite]
    return [run_suite(name, seed, trials) for name in names]
