"""Cochain values, cocycle identities, witnesses, regression formulas."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from eulerflags import cocycles, linalg
from eulerflags.cocycles import (_deleted_brackets, _flipped_bracket_table,
                                 coboundary, coc, coco, coboundary_kill_witness,
                                 obstruction_witness, pcoc, smi, sul)
from eulerflags.flags import (_IntSpan, bracket_selections, flag_equal_unoriented,
                              flagstaff, flip, make_flag)
from eulerflags.linalg import (InputError, OddDimensionError, PropertyViolation,
                               det, det_sign_int, e0, identity, ori, sig)
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


def test_naive_coc_is_the_mean_of_coco_over_flips():
    # the definition at n = 2: coco averaged over all 2^(n(n+1)) = 64 flip
    # combinations, each flag's four flips built by the public flip
    s, pool = RationalSampler(39), RationalSampler(40)
    tuples = [s.flags(2, 3) for _ in range(100)] + [pool.pool_flags(2, 3) for _ in range(100)]
    for Fs in tuples:
        flipped = [[Fl, flip(Fl, 1), flip(Fl, 2), flip(flip(Fl, 1), 2)] for Fl in Fs]
        mean = sum(coco(c) for c in itertools.product(*flipped)) / 64
        assert coc(Fs, mode="naive") == mean
    assert max(_top_level(Fs) for Fs in tuples) >= 1  # pool tuples reach level 1


def test_naive_contraction_reads_the_table_layout(monkeypatch):
    # the sum written out against the table layout: deleting i, pattern bit
    # a*n + l is level l of the a-th kept flag.  Bracket signs cannot tell
    # the flags' axes apart at n = 2; random +-1 tables can
    rng = random.Random(41)
    Fs = RationalSampler(42).flags(2, 3)
    for _ in range(20):
        tables = [np.array([rng.choice((-1, 1)) for _ in range(16)], dtype=np.int8)
                  for _ in range(3)]
        served = iter(tables)
        monkeypatch.setattr(cocycles, "_flipped_bracket_table", lambda bases, n: next(served))
        want = 0
        for c in range(64):  # flag f's flip bits are bits 2f, 2f + 1 of c
            term = 1
            for i, table in enumerate(tables):
                kept = [f for f in range(3) if f != i]
                term *= int(table[sum(((c >> 2 * f) & 3) << 2 * a for a, f in enumerate(kept))])
            want += term
        assert coc(Fs, mode="naive") == F(want, 64)


def test_coc_modes_agree():
    s = RationalSampler(2)
    for _ in range(60):
        Fs = s.flags(2, 3)
        assert coc(Fs, mode="factorized") == coc(Fs, mode="naive")


def _flipped_bracket_sign(bases, pattern, n) -> int:
    """Oracle for one table entry: the bracket walk of one flip pattern on
    its own, every slot's selection and span rebuilt from scratch."""
    return det_sign_int(_flipped_bracket_rows(bases, pattern, n))


def _flipped_bracket_rows(bases, pattern, n) -> list:
    """The signed vectors that one flip pattern's bracket walk chooses."""
    span = _IntSpan()
    chosen = []
    for a, base in enumerate(bases):
        for l, iv in enumerate(base):
            signed = tuple(-x for x in iv) if (pattern >> (a * n + l)) & 1 else iv
            if not span.contains_int(signed):
                chosen.append(list(signed))
                span = span.extended(signed)
                break
        else:
            raise PropertyViolation("a complete flag always extends a proper subspace")
    return chosen


def _deleted_bases(Fs):
    return [[F.ints for a, F in enumerate(Fs) if a != i] for i in range(len(Fs))]


def _top_level(Fs):
    """The highest selection level over the deleted-index brackets."""
    return max(level for _, level in _deleted_brackets(Fs, Fs[0].n)[1])


def _record_extensions(monkeypatch):
    """Every _IntSpan.extended call's vector, in order."""
    calls = []
    extended = _IntSpan.extended

    def recorded(self, iv):
        calls.append(iv)
        return extended(self, iv)

    monkeypatch.setattr(_IntSpan, "extended", recorded)
    return calls


def _deleted_brackets_oracle(Fs, n):
    """_deleted_brackets with one public bracket_selections per deletion,
    no walk shared between them."""
    val, mult = 1, Counter()
    for i in range(n + 1):
        kept = [a for a in range(n + 1) if a != i]
        levels = bracket_selections([Fs[a] for a in kept])[1]
        val *= det_sign_int([Fs[a].ints[lev] for a, lev in zip(kept, levels)])
        mult.update(zip(kept, levels))
    return val, dict(mult)


@pytest.mark.parametrize("n, count", [(2, 200), (4, 40)])
def test_deleted_brackets_match_per_deletion_oracle(n, count):
    s, pool = RationalSampler(44 + n), RationalSampler(45 + n)
    tuples = [s.flags(n, n + 1) for _ in range(count)]
    tuples += [pool.pool_flags(n, n + 1) for _ in range(count)]
    tops = []
    for Fs in tuples:
        got = _deleted_brackets(Fs, n)
        assert got == _deleted_brackets_oracle(Fs, n)
        tops.append(max(level for _, level in got[1]))
    assert max(tops) >= 1  # pool tuples reach selection levels above 0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_deleted_brackets_share_prefixes(n, monkeypatch):
    # deleting i walks F_0..F_{i-1} first: n - 1 extensions for i = 0, then
    # n - i for i >= 1 (the prefix F_0..F_{i-2} is already extended), none
    # after a walk's last flag: 2, 9 and 20 where one walk per deletion
    # made n (n + 1)
    calls = _record_extensions(monkeypatch)
    s = RationalSampler(46)
    for Fs in (s.flags(n, n + 1), s.pool_flags(n, n + 1)):
        calls.clear()
        _deleted_brackets(Fs, n)
        assert len(calls) == n - 1 + n * (n - 1) // 2 == {2: 2, 4: 9, 6: 20}[n]


def test_flip_table_matches_walk_n2_pool():
    # every pattern of every deleted index, on {-1, 0, 1} pool bases
    s = RationalSampler(31)
    tops = []
    for _ in range(200):
        Fs = s.pool_flags(2, 3)
        tops.append(_top_level(Fs))
        for bases in _deleted_bases(Fs):
            table = _flipped_bracket_table(bases, 2)
            assert [int(v) for v in table] \
                == [_flipped_bracket_sign(bases, p, 2) for p in range(16)]
    assert 0 in tops and 1 in tops  # selection levels vary


@pytest.mark.parametrize("kind", ["generic", "pool"])
def test_flip_table_matches_walk_n4(kind):
    s = RationalSampler(32)
    if kind == "generic":
        Fs = s.flags(4, 5)
        assert _top_level(Fs) == 0
    else:  # the first pool tuple with a selection level above 0
        Fs = s.pool_flags(4, 5)
        while _top_level(Fs) == 0:
            Fs = s.pool_flags(4, 5)
    rng = random.Random(33)
    for bases in _deleted_bases(Fs):
        table = _flipped_bracket_table(bases, 4)
        for p in rng.sample(range(1 << 16), 2000):
            assert table[p] == _flipped_bracket_sign(bases, p, 4)


@pytest.mark.parametrize("n", [2, 4])
def test_flip_table_shares_prefixes(n, monkeypatch):
    # one span extension per prefix of slot bits: sum over a <= n - 2 of
    # 2^(n(a+1)), 4 at n = 2 and 16 + 256 + 4096 at n = 4, where one walk
    # per pattern makes n 2^(n*n)
    calls = _record_extensions(monkeypatch)
    bases = _deleted_bases(RationalSampler(34).flags(n, n + 1))[0]
    _flipped_bracket_table(bases, n)
    assert len(calls) == sum(2 ** (n * (a + 1)) for a in range(n - 1)) \
        == {2: 4, 4: 4368}[n]


def _walk_nodes(n):
    """The walk's nodes: one per prefix of slot bits, sum over a < n of
    2^(n a) (5 at n = 2, 4,369 at n = 4)."""
    return sum(2 ** (n * a) for a in range(n))


def _record_membership(monkeypatch):
    """Every contains_int query as (span, vector); the spans are kept
    alive, so id() tells the walk's nodes apart."""
    calls = []
    contains_int = _IntSpan.contains_int

    def recorded(self, iv):
        calls.append((self, iv))
        return contains_int(self, iv)

    monkeypatch.setattr(_IntSpan, "contains_int", recorded)
    return calls


@pytest.mark.parametrize("n", [2, 4])
def test_flip_table_one_membership_test_per_signed_vector(n, monkeypatch):
    # on generic flags every node selects level 0, so it tests exactly the
    # two signed level-0 vectors: 10 queries per table at n = 2 and 8,738
    # at n = 4, where one query per pattern and level made 69,904
    calls = _record_membership(monkeypatch)
    bases = _deleted_bases(RationalSampler(36).flags(n, n + 1))[0]
    _flipped_bracket_table(bases, n)
    assert len(calls) == 2 * _walk_nodes(n) == {2: 10, 4: 8738}[n]


@pytest.mark.parametrize("n, count", [(2, 200), (4, 1)])
def test_flip_table_queries_both_signs_on_their_own(n, count, monkeypatch):
    # at every node each signed vector of every level reached is queried
    # once, on itself: the queries come in pairs v, -v, so no membership
    # of -v is read off the answer for v.  Pool flags reach levels above 0.
    calls = _record_membership(monkeypatch)
    s = RationalSampler(37)
    deepest = 0
    for _ in range(count):
        Fs = s.pool_flags(n, n + 1)
        for bases in _deleted_bases(Fs):
            calls.clear()
            _flipped_bracket_table(bases, n)
            nodes = {}
            for span, iv in calls:
                nodes.setdefault(id(span), []).append(iv)
            assert len(nodes) == _walk_nodes(n)
            for ivs in nodes.values():
                seen = Counter(ivs)
                assert max(seen.values()) == 1
                assert all(tuple(-x for x in iv) in seen for iv in seen)
                deepest = max(deepest, len(seen) // 2 - 1)
    assert deepest >= 1  # some node reached a level above 0


def _rows(rows):
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("n", [2, 4])
def test_flip_table_gives_each_leaf_its_own_rows(n, monkeypatch):
    # every det_sign_int call gets the rows its pattern's walk chooses, in a
    # list no later pattern writes into: the rows are snapshot at the call,
    # and each list still equals its snapshot once the table is built.
    # n = 2: every table of 50 pool tuples; n = 4: one pool table whose
    # bracket selects a level above 0
    if n == 2:
        pool = RationalSampler(47)
        tables = [b for _ in range(50) for b in _deleted_bases(pool.pool_flags(2, 3))]
    else:
        pool = RationalSampler(48)
        tables = []
        while not tables:
            Fs = pool.pool_flags(4, 5)
            tables = [b for i, b in enumerate(_deleted_bases(Fs))
                      if max(bracket_selections(Fs[:i] + Fs[i + 1:])[1]) > 0][:1]
    det_sign, calls = cocycles.det_sign_int, []

    def snapshot(rows):
        calls.append((rows, _rows(rows)))
        return det_sign(rows)

    monkeypatch.setattr(cocycles, "det_sign_int", snapshot)
    for bases in tables:
        calls.clear()
        _flipped_bracket_table(bases, n)
        assert all(_rows(rows) == snap for rows, snap in calls)
        assert Counter(snap for _, snap in calls) \
            == Counter(_rows(_flipped_bracket_rows(bases, p, n)) for p in range(1 << n * n))


def test_naive_coc_takes_327680_determinants(monkeypatch):
    # n + 1 = 5 tables of 2^16 patterns, each signed by its own
    # det_sign_int, counted wherever the package calls it
    Fs = RationalSampler(38).flags(4, 5)
    want = coc(Fs)
    calls = []
    det_sign = linalg.det_sign_int

    def counted(rows):
        calls.append(None)
        return det_sign(rows)

    for name, mod in list(sys.modules.items()):
        if name.startswith("eulerflags") and getattr(mod, "det_sign_int", None) is det_sign:
            monkeypatch.setattr(mod, "det_sign_int", counted)
    assert coc(Fs, mode="naive") == want
    assert len(calls) == 5 * 2 ** 16 == 327_680


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
