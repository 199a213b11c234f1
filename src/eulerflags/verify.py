"""Seeded property suites behind the `verify` subcommand.

A suite is an identity plus one generator per trial, ``(seed, t, s, n)``:
it draws its inputs from ``s``, trial t's child sampler derived from the
seed, and yields ``(input document, detail)`` pairs in the JSON schemas
used everywhere else.  A detail of None only announces the input now being
checked; a string is a counterexample on it.  The one runner, built by
``_suite``, loops over the trials, applies the dimension schedule (n = 2,
with n = 4 every fifth trial, unless pinned at registration) and builds
the failure records {"trial", "n", "input", "detail"}.  An invariant
breach (PropertyViolation or AssertionError) ends its trial as an
"internal assertion: ..." record against the last announced input, so any
failure is replayable from the report alone.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from .cocycles import coboundary, coc, coco, pcoc, smi, sul
from .flags import bracket, flagstaff, realize_points
from .linalg import (InputError, PropertyViolation, _integer,
                     hereditarily_spanning, mat_vec, ori, sig, vec)
from .randgen import RationalSampler
from .serialize import dump_flags, dump_points, fmt_matrix, fmt_rational
from .simplicial import euler_number, gauge_transform, with_section
from .surfaces import genus_surface_bundle, rational_flat_rep

SUITES: dict = {}


def _child(seed: int, trial: int) -> RationalSampler:
    return RationalSampler(seed * 10_000_019 + trial)


def _suite(name, identity, n=None):
    """SUITES[name] = (identity, runner (seed, trials) -> failures)."""
    def register(trial):
        def run(seed, trials):
            failures = []
            for t in range(trials):
                dim, doc = n or (4 if t % 5 == 4 else 2), None
                try:
                    for doc, detail in trial(seed, t, _child(seed, t), dim):
                        if detail is not None:
                            failures.append({"trial": t, "n": dim,
                                             "input": doc, "detail": detail})
                except AssertionError as exc:
                    failures.append({"trial": t, "n": dim, "input": doc,
                                     "detail": f"internal assertion: {exc}"})
            return failures
        SUITES[name] = (identity, run)
        return trial
    return register


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
    a breach raises PropertyViolation."""
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
        raise PropertyViolation(f"{nonzero} flip patterns see the origin inside")
    return Fraction(total, 2 ** (n + 1))


# per-trial generators: (seed, t, s, n) -> (input document, detail) pairs

@_suite("alternating",
        "pcoc, sul and smi change sign under any transposition of arguments")
def _alternating(seed, t, s, n):
    vs = s.tuple_with_degeneracies(n, n + 1)
    i, j = sorted(s.rng.sample(range(n + 1), 2))
    ws = list(vs)
    ws[i], ws[j] = ws[j], ws[i]
    doc = dump_points(n, vs)
    yield doc, None
    for f in (pcoc, sul, smi):
        if f(ws) != -f(vs):
            yield doc, f"{f.__name__} not alternating under swap ({i},{j})"


@_suite("equivariance",
        "f(g x_0, ..., g x_n) = sig(g) f(x_0, ..., x_n) "
        "for f in {pcoc, sul, smi, coco, coc}")
def _equivariance(seed, t, s, n):
    g = s.gl_matrix(n)
    e = sig(g)
    vs = s.tuple_with_degeneracies(n, n + 1)
    Fs = s.flags(n, n + 1)
    for doc, xs, gxs, fs in (
            (dump_points(n, vs), vs, [mat_vec(g, v) for v in vs],
             (pcoc, sul, smi)),
            (dump_flags(n, Fs), Fs, [F.apply(g) for F in Fs], (coco, coc))):
        yield doc, None
        for f in fs:
            if f(gxs) != e * f(xs):
                yield doc, (f"{f.__name__} not sign-equivariant "
                            f"(g = {fmt_matrix(g)})")


@_suite("descent",
        "pcoc and smi are invariant under independent nonzero rescaling "
        "of each argument")
def _descent(seed, t, s, n):
    vs = s.tuple_with_degeneracies(n, n + 1)
    lams = []
    for _ in vs:
        lam = Fraction(0)
        while lam == 0:
            lam = s.fraction()
        lams.append(lam)
    ws = tuple(tuple(l * x for x in v) for l, v in zip(lams, vs))
    doc = dump_points(n, vs)
    yield doc, None
    for f in (pcoc, smi):
        if f(ws) != f(vs):
            yield doc, (f"{f.__name__} not scale-invariant "
                        f"(scales {[fmt_rational(l) for l in lams]})")


def _cocycle(name, domain, draw, dump):
    """d name = 0 on (n+2)-tuples; the cochain is looked up per trial."""
    @_suite(f"cocycle-{name}", f"d {name} = 0 on {domain} (n+2)-tuples")
    def trial(seed, t, s, n):
        xs = draw(s, n, n + 2)
        doc = dump(n, xs)
        yield doc, None
        f = globals()[name]
        d = coboundary(f, xs)
        if d != 0:
            yield doc, f"d {f.__name__} = {fmt_rational(d)} != 0"


_cocycle("pcoc", "hereditarily spanning", RationalSampler.spanning_tuple,
         dump_points)
_cocycle("sul", "hereditarily spanning", RationalSampler.spanning_tuple,
         dump_points)
_cocycle("coco", "all oriented-flag", RationalSampler.flags, dump_flags)
_cocycle("coc", "all oriented-flag", RationalSampler.flags, dump_flags)


@_suite("smillie-relation", "pcoc = (-1)^(n/2) 2^n smi on every input")
def _smillie(seed, t, s, n):
    vs = s.tuple_with_degeneracies(n, n + 1)
    doc = dump_points(n, vs)
    yield doc, None
    # the enumerated smi: against the closed form the relation would hold
    # by construction
    want = smi_enumerated(vs)
    lhs, rhs = pcoc(vs), (-1) ** (n // 2) * 2 ** n * want
    if lhs != rhs:
        yield doc, (f"pcoc = {fmt_rational(lhs)} but "
                    f"(-1)^(n/2) 2^n smi = {fmt_rational(rhs)}")
    if smi(vs) != want:
        yield doc, (f"smi = {fmt_rational(smi(vs))} but the 2^(n+1)-flip "
                    f"average is {fmt_rational(want)}")


@_suite("deflation-diff", "naive and factorized coc agree (n = 2)", n=2)
def _deflation(seed, t, s, n):
    Fs = s.flags(n, n + 1)
    doc = dump_flags(n, Fs)
    yield doc, None
    a, b = coc(Fs, mode="factorized"), coc(Fs, mode="naive")
    if a != b:
        yield doc, f"factorized {fmt_rational(a)} != naive {fmt_rational(b)}"


@_suite("realize-points",
        "points realizing an (n+2)-flag tuple match every pairwise-deleted "
        "bracket orientation and are hereditarily spanning")
def _realize(seed, t, s, n):
    Fs = s.flags(n, n + 2)
    doc = dump_flags(n, Fs)
    yield doc, None
    xs = realize_points(Fs)
    if not hereditarily_spanning(xs):
        yield doc, "output not hereditarily spanning"
        return
    for i, j in itertools.combinations(range(n + 2), 2):
        keep = [k for k in range(n + 2) if k not in (i, j)]
        got = ori([xs[k] for k in keep])
        want = ori(bracket([Fs[k] for k in keep]).basis)
        if got != want:
            yield doc, (f"orientation mismatch deleting ({i},{j}): "
                        f"{got} != {want}")


@_suite("supnorm",
        "|smi| = 2^-n exactly iff hereditarily spanning; |coco| = 1; "
        "coc equals pcoc of the flagstaffs when those span hereditarily")
def _supnorm(seed, t, s, n):
    bound = Fraction(1, 2 ** n)
    vs = s.spanning_tuple(n, n + 1)
    doc = dump_points(n, vs)
    yield doc, None
    if abs(smi(vs)) != bound:
        yield doc, (f"|smi| = {fmt_rational(abs(smi(vs)))} != 2^-{n} "
                    "on a hereditarily spanning tuple")
    ws = s.non_spanning_tuple(n, n + 1)
    doc = dump_points(n, ws)
    yield doc, None
    if abs(smi(ws)) >= bound:
        yield doc, "|smi| not below 2^-n on a non-spanning tuple"
    Fs = s.flags(n, n + 1)
    doc = dump_flags(n, Fs)
    yield doc, None
    if abs(coco(Fs)) != 1:
        yield doc, "|coco| != 1"
    Gs = s.spanning_flagstaff_flags(n, n + 1)
    doc = dump_flags(n, Gs)
    yield doc, None
    if coc(Gs) != pcoc([flagstaff(F) for F in Gs]):
        yield doc, "coc != pcoc of flagstaffs"


@_suite("bundle",
        "genus-2 Euler numbers: identity and exact rational holonomies give "
        "0, integrally, invariant under gauge moves and section changes", n=2)
def _bundle(seed, t, s, n):
    I2 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    rep = (I2,) * 4 if t % 2 == 0 else rational_flat_rep()
    name = "trivial" if t % 2 == 0 else "rational"
    doc = {"rep": [fmt_matrix(m) for m in rep], "seed": seed, "trial": t}
    yield doc, None
    b = genus_surface_bundle(rep, seed=seed * 7919 + t)
    e = euler_number(b)[1]
    if e != 0:
        yield doc, f"{name} holonomy gave e = {e}"
        return
    hs = [s.glp_matrix(2) for _ in range(b.vertices)]
    if euler_number(gauge_transform(b, hs))[1] != 0:
        yield doc, f"{name}: gauge move changed e"
    sec = [s.nonzero_vector(2) for _ in range(b.vertices)]
    if euler_number(with_section(b, sec))[1] != 0:
        yield doc, f"{name}: section change moved e"


def run_suite(suite: str, seed: int, trials: int) -> dict:
    """One VerifySuiteReport: suite, identity, seed, trials, failures,
    wall_time.  Unknown suite names and trial counts below 1 raise
    InputError ('all' is expanded by run_suites)."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    seed, trials = _integer(seed, "seed"), _integer(trials, "trials")
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
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
