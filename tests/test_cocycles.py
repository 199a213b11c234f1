"""Cochain values, cocycle identities, witnesses, regression formulas."""

from fractions import Fraction

import pytest

from eulerflags.cocycles import (coboundary, coc, coco, coboundary_kill_witness,
                                 obstruction_witness, pcoc, smi, sul)
from eulerflags.flags import flag_equal_unoriented, flagstaff, make_flag
from eulerflags.linalg import (InputError, OddDimensionError, det, e0,
                               identity, ori, sig)
from eulerflags.randgen import RationalSampler
from eulerflags.verify import smi_enumerated

F = Fraction
E1, E2 = (1, 0), (0, 1)
E0 = (1, 1)  # e_0 = e_1 + e_2 in dimension 2


def test_pcoc_pinned():
    assert pcoc((E0, E1, E2)) == -1
    assert pcoc((E1, E2, E1)) == 0
    assert pcoc((E1, E2, (-1, 2))) == 1


def test_pcoc_rejects_bad_input():
    with pytest.raises(InputError):
        pcoc((E0, E1, (0, 0)))
    with pytest.raises(OddDimensionError):
        pcoc(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    with pytest.raises(InputError):
        pcoc((E0, E1))  # arity


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pcoc_standard_value(n):
    # pcoc(e_0, e_1, ..., e_n) = (-1)^(n/2)
    assert pcoc((e0(n),) + identity(n)) == (-1) ** (n // 2)


@pytest.mark.parametrize("n", [2, 4])
def test_ori_deleted_basis_formula(n):
    # ori(e_1, ..., ^e_j, ..., e_n, x) = (-1)^(n-j) sign(x_j)
    s = RationalSampler(3 * n)
    e = identity(n)
    for _ in range(20):
        x = s.nonzero_vector(n)
        for j in range(1, n + 1):
            if x[j - 1] == 0:
                continue
            vs = [e[t] for t in range(n) if t != j - 1] + [x]
            want = (-1) ** (n - j) * (1 if x[j - 1] > 0 else -1)
            assert ori(vs) == want


@pytest.mark.parametrize("n", [2, 4])
def test_pcoc_deleted_frame_formula(n):
    # sorted positive-gap x: pcoc(e_0,..,^e_i,..,e_n, x) = (-1)^(n/2) sign(x_i)
    s = RationalSampler(7 * n)
    e = identity(n)
    for _ in range(20):
        gaps = [abs(s.fraction()) + F(1, 100) for _ in range(n)]
        lo = s.fraction()
        coords = []
        for gp in gaps:
            lo = lo + gp
            coords.append(lo)
        x = tuple(coords)
        if any(c == 0 for c in x):
            continue
        for i in range(1, n + 1):
            vs = (e0(n),) + tuple(e[t] for t in range(n) if t != i - 1) + (x,)
            want = (-1) ** (n // 2) * (1 if x[i - 1] > 0 else -1)
            assert pcoc(vs) == want


def test_coco_pinned():
    std = make_flag((E1, E2))
    assert coco((std, std, std)) == 1
    g = ((F(-1), F(0)), (F(0), F(1)))
    assert coco(tuple(Fl.apply(g) for Fl in (std, std, std))) == sig(g) * 1


@pytest.mark.parametrize("n", [2, 4])
def test_coco_on_spanning_flagstaffs(n):
    s = RationalSampler(13 + n)
    for _ in range(20):
        Fs = s.spanning_flagstaff_flags(n, n + 1)
        assert coco(Fs) == pcoc([Fl.basis[0] for Fl in Fs])
        assert coc(Fs) == pcoc([flagstaff(Fl) for Fl in Fs])


def test_coc_pinned_zero():
    std = make_flag((E1, E2))
    rev = make_flag((E2, E1))
    assert coc((std, std, rev)) == 0
    assert coc((std, std, rev), mode="naive") == 0


def test_coc_modes_agree():
    s = RationalSampler(2)
    for _ in range(60):
        Fs = s.flags(2, 3)
        assert coc(Fs, mode="factorized") == coc(Fs, mode="naive")


def test_coc_naive_budget():
    s = RationalSampler(8)
    Fs = s.flags(6, 7)
    with pytest.raises(InputError):
        coc(Fs, mode="naive")  # 2^42 terms > 2^20, refused before any work
    with pytest.raises(InputError):
        coc(Fs, mode="upside-down")


def test_coc_value_range():
    s = RationalSampler(21)
    seen = set()
    for _ in range(80):
        v = coc(s.flags(2, 3))
        assert v in (F(-1), F(0), F(1))
        seen.add(v)
    assert len(seen) > 1


def test_sul_pinned():
    assert sul(((-1, -1), E1, E2)) == 1
    assert sul((E0, (-1, 0), (0, -1))) == 1
    assert sul((E0, E1, E2)) == 0
    assert sul(((0, 0), E1, E2)) == 0  # zero vector allowed, hull degenerate


def test_smi_pinned():
    assert smi((E0, E1, E2)) == F(1, 4)
    assert smi((E1, E2, E1)) == 0
    assert pcoc((E0, E1, E2)) == (-1) * 4 * smi((E0, E1, E2))
    with pytest.raises(InputError):
        smi((E0, E1, (0, 0)))


@pytest.mark.parametrize("n", [2, 4])
def test_smillie_relation_random(n):
    # smi as the literal 2^(n+1)-flip average: the closed-form smi and pcoc
    # share their Cramer signs, so against it the relation is a tautology
    s = RationalSampler(17 + n)
    for _ in range(40):
        vs = s.tuple_with_degeneracies(n, n + 1)
        assert pcoc(vs) == (-1) ** (n // 2) * 2 ** n * smi_enumerated(vs)


@pytest.mark.parametrize("n", [2, 4])
def test_cocycle_identities_random(n):
    s = RationalSampler(23 + n)
    for _ in range(20):
        assert coboundary(pcoc, s.spanning_tuple(n, n + 2)) == 0
        assert coboundary(sul, s.spanning_tuple(n, n + 2)) == 0
        assert coboundary(coco, s.flags(n, n + 2)) == 0
        assert coboundary(coc, s.flags(n, n + 2)) == 0


def test_coboundary_arity():
    with pytest.raises(InputError):
        coboundary(pcoc, (E0, E1))  # deleting leaves 1-tuples


def test_obstruction_witness():
    pts, v2 = obstruction_witness(2)
    assert v2 == 0
    assert pts[-1] == (F(1), F(1))
    _, v4 = obstruction_witness(4)
    assert v4 == -1
    _, v6 = obstruction_witness(6)
    assert v6 != 0
    with pytest.raises(OddDimensionError):
        obstruction_witness(3)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_coboundary_kill_witness(n):
    flags, mats = coboundary_kill_witness(n)
    assert len(flags) == len(mats) == n + 1
    for i, g in enumerate(mats):
        assert det(g) == -1
        for j, Fl in enumerate(flags):
            if j != i:
                assert flag_equal_unoriented(Fl.apply(g), Fl)


def test_coboundary_kill_witness_pinned_g0():
    _, mats = coboundary_kill_witness(2)
    assert mats[0] == ((F(1), F(0)), (F(0), F(-1)))
