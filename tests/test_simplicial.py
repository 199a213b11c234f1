"""Flat-bundle validation, chain boundaries, and Euler-number evaluation
on small hand-built complexes."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from eulerflags import cocycles
from eulerflags.cocycles import smi, sul_classify
from eulerflags.linalg import (InputError, _clear_matrix, identity, mat_inv,
                               mat_mul, mat_vec)
from eulerflags.randgen import RationalSampler
from eulerflags.serialize import dump_bundle
from eulerflags.simplicial import (FlatBundleComplex, NonGenericSection,
                                   chain_boundary, euler_number,
                                   gauge_transform, with_section)
from eulerflags.surfaces import (fuchsian_octagon_rep, genus_surface_bundle,
                                 rational_flat_rep)

F = Fraction
I2 = identity(2)


def _ident_transitions(simplices):
    ts = {}
    for verts, _ in simplices:
        for a in verts:
            for b in verts:
                if a != b:
                    ts[(a, b)] = I2
    return ts


def _sections(nverts, seed=0):
    s = RationalSampler(seed, m=9)
    return [s.nonzero_vector(2) for _ in range(nverts)]


def _triangle(seed=0):
    simplices = [((0, 1, 2), 1)]
    return FlatBundleComplex(2, 3, simplices, _ident_transitions(simplices),
                             _sections(3, seed))


def _sphere(seed=0):
    # boundary of the 3-simplex, coherently oriented
    simplices = [((1, 2, 3), 1), ((0, 2, 3), -1), ((0, 1, 3), 1),
                 ((0, 1, 2), -1)]
    return FlatBundleComplex(2, 4, simplices, _ident_transitions(simplices),
                             _sections(4, seed))


def test_validate_accepts_trivial():
    _triangle()


def test_validate_rejects_negative_determinant():
    simplices = [((0, 1, 2), 1)]
    ts = _ident_transitions(simplices)
    ts[(0, 1)] = ((F(-1), F(0)), (F(0), F(1)))
    with pytest.raises(InputError, match="determinant"):
        FlatBundleComplex(2, 3, simplices, ts, _sections(3))


def test_validate_rejects_broken_cocycle():
    simplices = [((0, 1, 2), 1)]
    ts = _ident_transitions(simplices)
    ts[(0, 1)] = ((F(2), F(0)), (F(0), F(1)))
    ts[(1, 0)] = ((F(1, 2), F(0)), (F(0), F(1)))
    with pytest.raises(InputError, match="cocycle"):
        FlatBundleComplex(2, 3, simplices, ts, _sections(3))


def test_validate_rejects_non_inverse_pair():
    simplices = [((0, 1, 2), 1)]
    ts = _ident_transitions(simplices)
    ts[(1, 0)] = ((F(2), F(0)), (F(0), F(1)))
    with pytest.raises(InputError, match="inverse"):
        FlatBundleComplex(2, 3, simplices, ts, _sections(3))


def test_validate_rejects_bad_sections():
    simplices = [((0, 1, 2), 1)]
    ts = _ident_transitions(simplices)
    with pytest.raises(InputError, match="section"):
        FlatBundleComplex(2, 3, simplices, ts,
                          [(F(1), F(0)), (F(0), F(0)), (F(1), F(1))])
    with pytest.raises(InputError, match="section"):
        FlatBundleComplex(2, 3, simplices, ts, _sections(2))


def test_validate_rejects_odd_rank():
    with pytest.raises(InputError):
        FlatBundleComplex(3, 3, [((0, 1, 2, 3), 1)], {}, _sections(3))


def test_validate_rejects_bad_simplices():
    with pytest.raises(InputError, match="repeated"):
        FlatBundleComplex(2, 3, [((0, 1, 1), 1)],
                          _ident_transitions([((0, 1, 2), 1)]), _sections(3))
    # every transition is in range, so the simplex's own check fires
    ts = _ident_transitions([((0, 1, 2), 1)])
    with pytest.raises(InputError, match="vertex out of range in simplex"):
        FlatBundleComplex(2, 3, [((0, 1, 5), 1)], ts, _sections(3))
    with pytest.raises(InputError, match="not an n-simplex"):
        FlatBundleComplex(2, 3, [((0, 1), 1)], ts, _sections(3))


def test_validate_rejects_bad_transition_shapes():
    simplices = [((0, 1, 2), 1)]
    ts = _ident_transitions(simplices)
    with pytest.raises(InputError, match=r"transition \(0, 1\) is not 2x2"):
        FlatBundleComplex(2, 3, simplices, {**ts, (0, 1): identity(3)},
                          _sections(3))
    with pytest.raises(InputError, match=r"transition \(1, 1\) must be the identity"):
        FlatBundleComplex(2, 3, simplices,
                          {**ts, (1, 1): ((F(2), F(0)), (F(0), F(1, 2)))},
                          _sections(3))


def test_repeated_transition_pair():
    # a pairs list may not give (i, j) twice, even with the same matrix
    simplices = [((0, 1, 2), 1)]
    pairs = list(_ident_transitions(simplices).items())
    for g in (((F(5), F(0)), (F(0), F(1, 5))), I2):
        with pytest.raises(InputError, match=r"transition pair \(0, 1\) is repeated"):
            FlatBundleComplex(2, 3, simplices, [((0, 1), g)] + pairs,
                              _sections(3))


def test_missing_transition():
    simplices = [((0, 1, 2), 1)]
    ts = {(0, 1): I2, (0, 2): I2}  # (1,2) absent in both directions
    with pytest.raises(InputError, match="no transition"):
        FlatBundleComplex(2, 3, simplices, ts, _sections(3))


def test_inverse_fallback():
    # a direction stored only as its reverse is the cleared inverse
    simplices = [((0, 1, 2), 1)]
    g = ((F(2), F(1)), (F(1), F(1)))
    ts = {(0, 1): g, (0, 2): I2, (1, 2): ((F(1), F(-1)), (F(-1), F(2)))}
    b = FlatBundleComplex(2, 3, simplices, ts, _sections(3))
    assert b._pair(1, 0) == (1, ((1, -1), (-1, 2)))
    for kind in ("rational", "fuchsian"):
        full = _genus2(kind, 0)
        one_way = {p: g for p, g in full.transitions.items() if p[0] < p[1]}
        b = FlatBundleComplex(2, full.vertices, full.simplices, one_way,
                              full.section, tol=full.tol)
        for (i, j), g in one_way.items():
            assert b._pair(j, i) == _clear_matrix(mat_inv(g))


def test_bundle_combinatorics_must_be_integers():
    simplices = [((0, 1, 2), 1)]
    ts, sec = _ident_transitions(simplices), _sections(3)
    for bad in (3.0, True, "3", F(3)):
        with pytest.raises(InputError, match="vertex count"):
            FlatBundleComplex(2, bad, simplices, ts, sec)
        with pytest.raises(InputError, match="simplex vertex"):
            FlatBundleComplex(2, 3, [((0, 1, bad), 1)], ts, sec)
        with pytest.raises(InputError, match="chain coefficient"):
            FlatBundleComplex(2, 3, [((0, 1, 2), bad)], ts, sec)
        with pytest.raises(InputError, match="transition key"):
            FlatBundleComplex(2, 3, simplices, {**ts, (bad, bad): I2}, sec)


def test_transitions_are_read_only():
    b = _genus2("rational", 0)
    with pytest.raises(TypeError):
        b.transitions[(0, 1)] = I2
    with pytest.raises(TypeError):
        del b.transitions[next(iter(b.transitions))]
    p = next(p for p, g in b.transitions.items() if g != I2)
    ts = dict(b.transitions)
    ts[p] = I2  # a copy is an ordinary dict
    assert b.transitions[p] != I2
    moved = with_section(b, b.section)
    assert moved.transitions is b.transitions and moved._pairs is b._pairs


def test_chain_boundary_pinned():
    assert chain_boundary(_sphere().simplices) == {}
    tri = chain_boundary(_triangle().simplices)
    assert len(tri) == 3
    # two triangles glued along an edge, compatible orientations
    simplices = [((0, 1, 2), 1), ((1, 3, 2), 1)]
    bd = chain_boundary(simplices)
    assert len(bd) == 4
    assert (1, 2) not in bd and (2, 1) not in bd


def test_open_chain_has_no_integer():
    raw, integer, per = euler_number(_triangle(seed=4))
    assert integer is None
    assert len(per) == 1


def test_sphere_euler_zero():
    for seed in range(6):
        raw, integer, per = euler_number(_sphere(seed=seed))
        assert raw == 0 and integer == 0
        assert all(abs(v) <= F(1, 4) for v in per)


def test_unknown_mode():
    with pytest.raises(InputError):
        euler_number(_sphere(), mode="magic")


def test_sullivan_non_generic_section():
    # origin on the open segment between s_0 and s_1: hull-boundary case
    simplices = [((0, 1, 2), 1)]
    sec = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1))]
    b = FlatBundleComplex(2, 3, simplices, _ident_transitions(simplices), sec)
    with pytest.raises(NonGenericSection):
        euler_number(b, mode="sullivan")
    euler_number(b, mode="smillie")  # smillie mode stays total


def test_gauge_transform_checks():
    b = _sphere()
    with pytest.raises(InputError, match="positive determinant"):
        gauge_transform(b, [((F(-1), F(0)), (F(0), F(1)))] * 4)
    with pytest.raises(InputError, match="positive determinant"):
        gauge_transform(b, [I2] * 3 + [((F(1), F(2)), (F(2), F(4)))])
    with pytest.raises(InputError, match="per vertex"):
        gauge_transform(b, [I2] * 3)
    with pytest.raises(InputError, match="2x2"):
        gauge_transform(b, [I2] * 3 + [identity(4)])
    with pytest.raises(InputError, match="rows of length"):
        gauge_transform(b, [I2] * 3 + [((1, 0, 0), (0, 1, 0))])
    with pytest.raises(InputError, match="not a rational"):
        gauge_transform(b, [I2] * 3 + [((1.0, 0), (0, 1))])


def test_gauge_and_section_invariance():
    s = RationalSampler(12, m=9)
    b = _sphere(seed=2)
    hs = [s.glp_matrix(2) for _ in range(4)]
    assert euler_number(gauge_transform(b, hs))[1] == 0
    assert euler_number(with_section(b, _sections(4, seed=9)))[1] == 0


def test_stored_identities_survive_a_gauge_move():
    # (i, i) identities may be stored like any other transition; a gauge
    # move maps each to h_i h_i^-1 = Id, and the Euler number stays
    s = RationalSampler(17, m=9)
    for kind, e in (("rational", 0), ("fuchsian", 1)):
        full = _genus2(kind, 0)
        ts = {**full.transitions, **{(i, i): I2 for i in range(full.vertices)}}
        b = FlatBundleComplex(2, full.vertices, full.simplices, ts,
                              full.section, tol=full.tol)
        moved = gauge_transform(b, [s.glp_matrix(2) for _ in range(b.vertices)])
        assert all(moved.transitions[(i, i)] == I2 for i in range(b.vertices))
        assert euler_number(moved)[1] == euler_number(b)[1] == e


def test_rank4_boundary_of_5_simplex():
    # the boundary of the 5-simplex, six 4-simplices with signs (-1)^i: a
    # closed chain whose 4-simplices share triangles, so validate checks
    # each triangle once for several simplices
    simplices = [(tuple(v for v in range(6) if v != i), (-1) ** i) for i in range(6)]
    ts = {(a, b): identity(4) for a in range(6) for b in range(6) if a != b}
    s = RationalSampler(41, m=9)
    b = FlatBundleComplex(4, 6, simplices, ts, [s.nonzero_vector(4) for _ in range(6)])
    for mode in ("smillie", "sullivan"):
        assert euler_number(b, mode)[1] == 0
    assert euler_number(gauge_transform(b, [s.glp_matrix(4) for _ in range(6)]))[1] == 0
    assert euler_number(with_section(b, [s.nonzero_vector(4) for _ in range(6)]))[1] == 0
    g = s.glp_matrix(4)
    with pytest.raises(InputError, match="cocycle rule fails"):
        FlatBundleComplex(4, 6, simplices, {**ts, (0, 1): g, (1, 0): mat_inv(g)},
                          b.section)


def test_negative_tol_rejected():
    simplices = [((0, 1, 2), 1)]
    with pytest.raises(InputError, match="tol"):
        FlatBundleComplex(2, 3, simplices, _ident_transitions(simplices),
                          _sections(3), tol=F(-1, 10))


# ---------------------------------------------------------------------------
# Differential tests against the literal rational definitions.  validate
# checks each face once on cleared integers and simplex_sections transports
# on integers; the oracles below are the ordered-permutation Fraction loop
# and the Fraction mat_vec transport they replace.


def _g(transitions, n, i, j):
    """The rational g_ij of a transition dict: the stored matrix, the
    inverse of the stored reverse, or the identity when i = j."""
    if i == j:
        return identity(n)
    if (i, j) in transitions:
        return transitions[(i, j)]
    return mat_inv(transitions[(j, i)])


def _oracle_identities(b, ts):
    """(lhs, rhs) of every inverse-pair and cocycle identity of the
    transitions ts on the complex of b, per simplex and in every order, as
    Fraction matrices."""
    ident = identity(b.n)
    g = lambda i, j: _g(ts, b.n, i, j)
    for verts, _ in b.simplices:
        for x, y in itertools.permutations(verts, 2):
            yield mat_mul(g(x, y), g(y, x)), ident
        for x, y, z in itertools.permutations(verts, 3):
            yield mat_mul(g(x, y), g(y, z)), g(x, z)


def _oracle_scale(lhs, rhs):
    return max([F(1)] + [abs(v) for r in lhs + rhs for v in r])


def _oracle_accepts(b, ts, tol):
    for lhs, rhs in _oracle_identities(b, ts):
        scale = _oracle_scale(lhs, rhs)
        if not all(abs(x - y) <= tol * scale
                   for rl, rr in zip(lhs, rhs) for x, y in zip(rl, rr)):
            return False
    return True


def _oracle_worst(b, ts):
    """The smallest tol at which _oracle_accepts(b, ts, tol) holds."""
    return max(abs(x - y) / _oracle_scale(lhs, rhs)
               for lhs, rhs in _oracle_identities(b, ts)
               for rl, rr in zip(lhs, rhs) for x, y in zip(rl, rr))


def _accepts(b, ts, tol):
    """Whether a copy of b with transitions ts at tolerance tol validates."""
    try:
        FlatBundleComplex(b.n, b.vertices, b.simplices, ts, b.section, tol=tol)
    except InputError:
        return False
    return True


def _genus2(kind, seed):
    if kind == "trivial":
        return genus_surface_bundle([I2] * 4, seed=seed)
    if kind == "rational":
        return genus_surface_bundle(rational_flat_rep(), seed=seed)
    return genus_surface_bundle(fuchsian_octagon_rep(), seed=seed,
                                tol=FUCHSIAN_TOL)


FUCHSIAN_TOL = F(1, 10 ** 9)
KINDS = ("trivial", "rational", "fuchsian")


def _faulted(b, rng, eps):
    """{name: transition dict} with seeded planted faults: one stored direction
    perturbed by eps; one pair perturbed consistently in both directions
    (every inverse identity still holds, a cocycle rule breaks); the bundle
    stored one direction per pair; and that one-direction bundle with one
    perturbed transition."""
    pairs = sorted(p for p in b.transitions if p[0] < p[1])
    out = {}
    for name, both in (("one entry", False), ("both directions", True)):
        i, j = rng.choice(pairs)
        r, c = rng.randrange(2), rng.randrange(2)
        g = [list(row) for row in b.transitions[(i, j)]]
        g[r][c] += eps
        g = tuple(tuple(row) for row in g)
        ts = dict(b.transitions)
        ts[(i, j)] = g
        if both:
            ts[(j, i)] = mat_inv(g)
        out[name] = ts
    one_way = {p: b.transitions[p] for p in pairs}
    out["one-way"] = dict(one_way)
    i, j = rng.choice(pairs)
    one_way[(i, j)] = tuple(tuple(x + eps for x in row)
                            for row in one_way[(i, j)])
    out["one-way perturbed"] = one_way
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_validate_matches_oracle_on_planted_faults(kind):
    rng = random.Random(f"faults:{kind}")
    verdicts = set()
    b = _genus2(kind, 1)
    for eps in (F(1, 97), F(1, 10 ** 15)):
        for name, ts in [("unchanged", b.transitions)] + list(_faulted(b, rng, eps).items()):
            for tol in {F(0), FUCHSIAN_TOL}:
                want = _oracle_accepts(b, ts, tol)
                assert _accepts(b, ts, tol) == want, (name, eps, tol)
                verdicts.add((tol == 0, want))
    # exact and tolerant validation each both accepted and rejected
    want = {(True, False), (False, True), (False, False)}
    if kind != "fuchsian":
        want.add((True, True))
    assert verdicts >= want


@pytest.mark.parametrize("kind", KINDS)
def test_validate_tolerance_boundary_matches_oracle(kind):
    # tol = the worst relative defect puts that defect at exactly
    # tol * scale (accepted); any smaller tol leaves it just above (rejected)
    rng = random.Random(f"boundary:{kind}")
    b = _genus2(kind, 0)
    cases = _faulted(b, rng, F(1, 10 ** 12))
    del cases["one-way"]  # no planted defect
    if kind == "fuchsian":
        cases["unchanged"] = b.transitions  # the float holonomy's own rounding defects
    for ts in cases.values():
        worst = _oracle_worst(b, ts)
        assert worst > 0
        for tol in (worst, worst * (1 - F(1, 10 ** 30))):
            want = _oracle_accepts(b, ts, tol)
            assert want == (tol == worst)
            assert _accepts(b, ts, tol) == want


def _oracle_per_simplex(b, mode):
    """Per-simplex values from the Fraction mat_vec transport, checked
    base-vertex independent."""
    per = []
    for verts, _ in b.simplices:
        vals = set()
        for vb in verts:
            vs = tuple(mat_vec(_g(b.transitions, b.n, vb, vj), b.section[vj])
                       for vj in verts)
            if mode == "smillie":
                vals.add(smi(vs))
            else:
                v, generic = sul_classify(vs)
                if not generic:
                    return None
                vals.add(v)
        assert len(vals) == 1
        per.append(vals.pop())
    return per


@pytest.mark.parametrize("kind", KINDS)
def test_per_simplex_matches_rational_transport(kind):
    s = RationalSampler(40, m=9)
    b = _genus2(kind, 3)
    one_way = {p: g for p, g in b.transitions.items() if p[0] < p[1]}
    hs = [s.glp_matrix(2) for _ in range(b.vertices)]
    one_way_b = FlatBundleComplex(b.n, b.vertices, b.simplices, one_way,
                                  b.section, tol=b.tol)
    for bb in (b, one_way_b, gauge_transform(b, hs)):
        for mode in ("smillie", "sullivan"):
            want = _oracle_per_simplex(bb, mode)
            if want is None:
                with pytest.raises(NonGenericSection):
                    euler_number(bb, mode)
                continue
            assert euler_number(bb, mode)[2] == want


@pytest.mark.parametrize("kind", ("rational", "fuchsian"))
def test_euler_number_runs_no_point_check(kind, monkeypatch):
    # the transported vectors come from a validated bundle, so euler_number
    # reads their Cramer signs without the point cochains' argument check;
    # seed 3 gives a section that is not generic in sullivan mode, seed 5
    # one that both modes certify
    cases = []
    for seed in (3, 5):
        b = _genus2(kind, seed)
        cases += [(b, mode, _oracle_per_simplex(b, mode))
                  for mode in ("smillie", "sullivan")]
    assert [want is None for *_, want in cases] == [False, True, False, False]
    calls, check = [], cocycles._check_points
    monkeypatch.setattr(cocycles, "_check_points",
                        lambda *a, **k: calls.append(a) or check(*a, **k))
    for b, mode, want in cases:
        if want is None:
            with pytest.raises(NonGenericSection):
                euler_number(b, mode)
        else:
            assert euler_number(b, mode)[2] == want
    assert calls == []


def test_simplex_sections_are_positive_multiples():
    s = RationalSampler(41, m=9)
    b = genus_surface_bundle(rational_flat_rep(),
                             section=[s.vector(2) for _ in range(34)])
    for verts, _ in b.simplices[:12]:
        for base in range(3):
            got = b.simplex_sections(verts, base)
            for v, vj in zip(got, verts):
                assert all(isinstance(x, int) for x in v)
                w = mat_vec(_g(b.transitions, 2, verts[base], vj), b.section[vj])
                # v = lam * w with lam > 0
                k = next(t for t in range(2) if w[t])
                lam = v[k] / w[k]
                assert lam > 0 and all(x == lam * y for x, y in zip(v, w))


def test_tolerant_validate_checks_both_orders_of_an_edge():
    # g_10 = g_01^-1 + P: the defect of g_10 g_01 (= P g_01) is k^2 times
    # that of g_01 g_10 and of every cocycle rule, so only the reversed
    # edge order decides the boundary
    k, eps = 1000, F(1, 10 ** 9)
    d, dinv = ((F(k), F(0)), (F(0), F(1, k))), ((F(1, k), F(0)), (F(0), F(k)))
    ts = {(0, 1): d, (1, 0): ((F(1, k), F(0)), (eps, F(k))), (1, 2): dinv,
          (2, 1): d, (0, 2): I2, (2, 0): I2}
    b = _triangle()  # the complex and section; ts is under test
    worst = _oracle_worst(b, ts)
    assert worst == eps * k
    for tol in (worst, worst * (1 - F(1, 10 ** 30))):
        want = _oracle_accepts(b, ts, tol)
        assert want == (tol == worst)
        assert _accepts(b, ts, tol) == want


def test_validate_reads_the_bundle_tolerance():
    # validate() checks at the bundle's own tol, the one its constructor
    # accepted; a tolerance-free copy of float-derived data is rejected
    b = genus_surface_bundle(fuchsian_octagon_rep(), tol=FUCHSIAN_TOL)
    b.validate()
    with pytest.raises(InputError):
        FlatBundleComplex(b.n, b.vertices, b.simplices, b.transitions,
                          b.section)


# sha256 of the dump_bundle document of each gauge-moved and re-sectioned
# genus-2 bundle, with its smillie Euler number (raw, integer, per simplex)
# added under "euler": however gauge moves and section changes are computed,
# their results must stay byte-identical.
PINNED_MOVES = {
    "trivial": ("5cc0c005bc9924fd1c1518696a03d22bd88a9f478987a65422068c4619e1fc22",
                "532d9ee18d5f8aa3984fad540168de8193cb667b51d06467fb3f930c44f06fbd"),
    "rational": ("d69080066173be668edd64fcba21fedd122ca4d0101b6b587c60b80afb39be08",
                 "b99779a522fbaa7d99f4fd0f983aa96742c05f7ef8cfba8d64a1ae06d103f733"),
    "fuchsian": ("9ab966810d5552eb919eaac0bac41dcc64fa092ab0cf76901dc9213174780e8a",
                 "9813f99d8e80bf593e51aac0e5fd2dabe53dcb3e937d22ae1494cb2d38568c60"),
    "one-way": ("1ce2bba1a72747db6b2724aa27d3f2b5f8e3f721c943ba88ebbffa403890df1c",
                "7aeaeada728e2ee368be48521580dd3f7d4c7ec159b486a5f47023554d1f9557"),
}


def _move_digest(b):
    doc = dump_bundle(b)
    raw, e, per = euler_number(b)
    doc["euler"] = [str(raw), e, [str(v) for v in per]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_MOVES))
def test_gauge_and_section_pinned(name):
    if name == "one-way":  # the rational bundle, one stored direction per pair
        rat = _genus2("rational", 0)
        b = FlatBundleComplex(2, rat.vertices, rat.simplices,
                              {p: g for p, g in rat.transitions.items() if p[0] < p[1]},
                              rat.section)
    else:
        b = _genus2(name, 0)
    s = RationalSampler(f"pin:{name}", m=9)
    hs = [s.glp_matrix(2) for _ in range(b.vertices)]
    sec = [s.nonzero_vector(2) for _ in range(b.vertices)]
    got = (_move_digest(gauge_transform(b, hs)), _move_digest(with_section(b, sec)))
    assert got == PINNED_MOVES[name]
