"""Acceptance gate: one test per acceptance criterion, each printing a
single summary line (run with -v for the pass/fail lines, -s for the
summaries).  Every assertion is exact unless the criterion itself is
statistical (criterion 9, 3-sigma bands) or explicitly time-bounded
(criterion 5)."""

import math
import random
import time
from fractions import Fraction

from eulerflags.circle import euler_number_oracle
from eulerflags.cocycles import (_deleted_brackets, coboundary, coc, coco,
                                 coboundary_kill_witness, obstruction_witness,
                                 pcoc, smi, sul)
from eulerflags.flags import (bracket, flag_equal_unoriented, flagstaff,
                              realize_points)
from eulerflags.linalg import det, hereditarily_spanning, identity, ori
from eulerflags.montecarlo import itu_estimate
from eulerflags.randgen import RationalSampler
from eulerflags.simplicial import (FlatBundleComplex, NonGenericSection,
                                   euler_number, gauge_transform,
                                   with_section)
from eulerflags.surfaces import (fuchsian_octagon_rep, genus_surface_bundle,
                                 rational_flat_rep)
from eulerflags.verify import smi_enumerated

F = Fraction


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_cocycle_identities():
    start = time.perf_counter()
    for n, trials, seed in ((2, 1000, 10), (4, 200, 11)):
        s = RationalSampler(seed)
        for _ in range(trials):
            assert coboundary(coco, s.flags(n, n + 2)) == 0
            assert coboundary(coc, s.flags(n, n + 2)) == 0
    counts = {2: 800, 4: 200}
    for n, trials in counts.items():
        s = RationalSampler(12 + n)
        for _ in range(trials):
            assert coboundary(pcoc, s.spanning_tuple(n, n + 2)) == 0
            assert coboundary(sul, s.spanning_tuple(n, n + 2)) == 0
    wall = time.perf_counter() - start
    assert wall < 300  # stated bound: under 5 minutes
    _report(1, f"d coco = d coc = 0 on 1000 (n=2) + 200 (n=4) flag tuples; "
               f"d pcoc = d sul = 0 on 1000 spanning tuples each; exact "
               f"zeros, {wall:.1f}s")


def test_criterion_2_obstruction_dichotomy():
    pts2, v2 = obstruction_witness(2)
    assert v2 == 0
    pts4, v4 = obstruction_witness(4)
    assert v4 == -1
    pts6, v6 = obstruction_witness(6)
    assert v6 != 0
    for n, pts in ((2, pts2), (4, pts4), (6, pts6)):
        e = identity(n)
        assert pts[-1] == tuple(a + b for a, b in zip(e[0], e[1]))
        assert len(pts) == n + 2  # the arity of d pcoc
    _report(2, f"d pcoc at the witness tuple: n=2 -> 0, n=4 -> -1, "
               f"n=6 -> {v6} (nonzero)")


def test_criterion_3_proportionality():
    for n, trials, seed in ((2, 700, 20), (4, 300, 21)):
        s = RationalSampler(seed)
        degenerate = 0
        for _ in range(trials):
            vs = s.tuple_with_degeneracies(n, n + 1)
            if not hereditarily_spanning(vs):
                degenerate += 1
            # smi as the literal average of sul over the 2^(n+1) flips
            want = smi_enumerated(vs)
            assert pcoc(vs) == (-1) ** (n // 2) * 2 ** n * want
            assert smi(vs) == want
        assert degenerate > trials // 4  # planted cases really appear
    _report(3, "pcoc = (-1)^(n/2) 2^n smi exactly on 700 (n=2) + 300 (n=4) "
               "tuples incl. planted degeneracies, smi enumerated over all "
               "2^(n+1) sign flips")


def test_criterion_4_supnorm_constants():
    for n, spanning, flagt, seed in ((2, 300, 300, 30), (4, 100, 100, 31)):
        s = RationalSampler(seed)
        bound = F(1, 2 ** n)
        values = set()
        for _ in range(spanning):
            values.add(abs(smi(s.spanning_tuple(n, n + 1))))
        assert values == {bound}  # attained, and never exceeded
        for _ in range(flagt):
            assert abs(coco(s.flags(n, n + 1))) == 1
        for _ in range(flagt // 4):
            Gs = s.spanning_flagstaff_flags(n, n + 1)
            assert coc(Gs) == pcoc([flagstaff(G) for G in Gs])
    _report(4, "max |smi| = 2^-n attained on every spanning sample; "
               "|coco| = 1 always; coc = pcoc of flagstaffs on "
               "spanning-staff flags")


def _top_level(Fs):
    """The highest selection level over the deleted-index brackets."""
    return max(level for _, level in _deleted_brackets(Fs, Fs[0].n)[1])


def test_criterion_5_deflation_differential():
    s, pool = RationalSampler(40), RationalSampler(42)
    tuples2 = [s.flags(2, 3) for _ in range(500)]
    tuples2 += [pool.pool_flags(2, 3) for _ in range(400)]
    for Fs in tuples2:
        assert coc(Fs, mode="factorized") == coc(Fs, mode="naive")
    assert any(_top_level(Fs) for Fs in tuples2[500:])

    s4, pool4 = RationalSampler(41), RationalSampler(43)
    tuples4 = [s4.flags(4, 5) for _ in range(10)]
    while len(tuples4) < 16:  # pool tuples with a selection level above 0
        Fs = pool4.pool_flags(4, 5)
        if _top_level(Fs):
            tuples4.append(Fs)
    t0 = time.perf_counter()
    fast = [coc(Fs, mode="factorized") for Fs in tuples4]
    fast_wall = time.perf_counter() - t0
    assert fast_wall / len(tuples4) < 1.0  # stated bound: under 1 second per tuple

    naive_walls = []
    for Fs, want in zip(tuples4, fast):
        t0 = time.perf_counter()
        got = coc(Fs, mode="naive")  # 2^20-term literal average
        naive_walls.append(time.perf_counter() - t0)
        assert got == want
        assert naive_walls[-1] < 600  # stated bound: under 10 minutes
    _report(5, f"naive = factorized on 500 + 400 pool n=2 tuples and 10 + 6 "
               f"pool n=4 tuples; factorized {fast_wall / len(tuples4):.3f}s/tuple, naive "
               f"{max(naive_walls):.1f}s worst (bounds 1s / 600s)")


def test_criterion_6_witness_matrices():
    for n in (2, 4, 6):
        flags, mats = coboundary_kill_witness(n)
        assert len(mats) == n + 1
        for i, g in enumerate(mats):
            assert det(g) == -1
            for j, Fl in enumerate(flags):
                if j != i:
                    assert flag_equal_unoriented(Fl.apply(g), Fl)
    _report(6, "all n+1 witness matrices for n in {2,4,6} have det -1 and "
               "fix the other n flags exactly")


def test_criterion_7_realization():
    pool = RationalSampler(11)
    cases = {}
    for n, trials, seed in ((2, 100, 50), (4, 100, 51), (6, 10, 52)):
        s = RationalSampler(seed)
        cases[f"n={n}"] = [s.flags(n, n + 2) for _ in range(trials)]
    for n, trials in ((2, 100), (4, 100)):
        cases[f"n={n} pool"] = [pool.pool_flags(n, n + 2) for _ in range(trials)]
    for tuples in cases.values():
        for Fs in tuples:
            n = Fs[0].n
            xs = realize_points(Fs)
            assert hereditarily_spanning(xs)
            for i in range(n + 2):
                for j in range(i + 1, n + 2):
                    keep = [t for t in range(n + 2) if t not in (i, j)]
                    assert ori([xs[t] for t in keep]) \
                        == ori(bracket([Fs[t] for t in keep]).basis)
    counts = ", ".join(f"{len(v)} ({k})" for k, v in cases.items())
    _report(7, "realize_points passes all C(n+2,2) orientation equalities "
               f"on random flag tuples: {counts}")


def _rotate_bases(bundle, rng):
    """Cyclically rotate each stored simplex (an even permutation), moving
    the evaluation base vertex without changing the chain's orientation."""
    simplices = []
    for verts, c in bundle.simplices:
        r = rng.randrange(3)
        simplices.append((verts[r:] + verts[:r], c))
    return FlatBundleComplex(bundle.n, bundle.vertices, simplices,
                             bundle.transitions, bundle.section,
                             tol=bundle.tol)


def test_criterion_8_flat_bundles():
    I2 = identity(2)
    trivial = genus_surface_bundle([I2] * 4, seed=0)
    raw, e, _ = euler_number(trivial)
    assert raw == 0 and e == 0

    rational = genus_surface_bundle(rational_flat_rep(), seed=0)
    assert euler_number(rational)[1] == 0 == euler_number_oracle(
        rational_flat_rep())

    frep = fuchsian_octagon_rep()
    oracle = euler_number_oracle(frep)
    fuchsian = genus_surface_bundle(frep, seed=0, tol=F(1, 10 ** 9))
    assert euler_number(fuchsian)[1] == oracle == 1  # independent oracle

    s = RationalSampler(60, m=9)
    for k in range(10):
        for b, want in ((rational, 0), (fuchsian, oracle)):
            raw, e, _ = euler_number(_rotate_bases(b, s.rng))
            assert e == want and e is not None  # base-vertex independence
            hs = [s.glp_matrix(2) for _ in range(b.vertices)]
            assert euler_number(gauge_transform(b, hs))[1] == want
            for _ in range(20):
                sec = [s.nonzero_vector(2) for _ in range(b.vertices)]
                try:
                    assert euler_number(with_section(b, sec))[1] == want
                    break
                except NonGenericSection:
                    continue  # uncertifiable at the bundle tolerance
            else:
                raise AssertionError("no certifiable section in 20 draws")
    _report(8, "trivial/rational genus-2 bundles give 0, Fuchsian float "
               "holonomy gives 1 = rotation-number oracle; base-vertex, "
               "gauge, and section independence x10 each, all integral")


def test_criterion_9_monte_carlo():
    I2 = [[1.0, 0.0], [0.0, 1.0]]
    est = itu_estimate([I2] * 3, samples=1_000_000, seed=90)
    assert abs(est.mean) <= 3 * est.stderr
    all_estimates = [est]

    rng = random.Random(91)
    for k in range(10):
        while True:
            gs = [[[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
                  for _ in range(3)]
            if all(abs(g[0][0] * g[1][1] - g[0][1] * g[1][0]) > 0.2
                   for g in gs):
                break
        a = itu_estimate(gs, samples=100_000, seed=92 + k, mode="ball")
        b = itu_estimate(gs, samples=100_000, seed=292 + k,
                         mode="projective")
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)
        all_estimates += [a, b]
    for e in all_estimates:
        assert abs(e.mean) <= 0.25 + 3 * e.stderr
    _report(9, f"identity estimate {est.mean:+.5f} within 3 sigma of 0 at "
               f"10^6 samples; ball vs projective within 3 sigma on 10 "
               f"random GL2 tuples; every |mean| <= 2^-n + 3 sigma")
