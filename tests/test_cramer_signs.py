"""The Cramer-sign kernel and the closed forms built on it, checked against
the cochains' literal definitions on seeded tuples with planted
degeneracies."""

import math
from fractions import Fraction

import pytest

from eulerflags.cocycles import pcoc, smi, sul, sul_classify
from eulerflags.linalg import (InputError, _cramer_signs,
                               hereditarily_spanning, int_vec, ori)
from eulerflags.randgen import RationalSampler
from eulerflags.verify import smi_enumerated, sul_by_ori

F = Fraction


def _deleted_oris(vs):
    return [ori(vs[:i] + vs[i + 1:]) for i in range(len(vs))]


def pcoc_by_ori(vs):
    return F(math.prod(_deleted_oris(vs)))


def sul_classify_by_ori(vs):
    """sul_classify's genericity rules, each sign from its own ori call."""
    signs = [(-1) ** i * s for i, s in enumerate(_deleted_oris(vs))]
    nonzero = [s for s in signs if s]
    if len(nonzero) == len(signs):
        same = all(s == nonzero[0] for s in nonzero)
        return (F(nonzero[0]) if same else F(0)), True
    if nonzero and any(s != nonzero[0] for s in nonzero):
        return F(0), True
    return F(0), False


def cramer_signs(vs):
    return _cramer_signs([int_vec(v) for v in vs])


def test_cramer_signs_pinned():
    assert cramer_signs(((1, 1), (1, 0), (0, 1))) == (1, -1, -1)
    assert cramer_signs(((-1, -1), (1, 0), (0, 1))) == (1, 1, 1)
    assert cramer_signs(((1, 0), (0, 1), (1, 0))) == (-1, 0, 1)
    assert cramer_signs(((0, 0), (1, 0), (0, 1))) == (1, 0, 0)
    # denominators cleared per vector: the signs only see directions
    assert cramer_signs(((F(1, 3), F(1, 3)), (F(2, 7), 0), (0, F(5, 2)))) \
        == (1, -1, -1)


def test_cramer_signs_shape():
    # the kernel takes its shape from the point cochains' argument check
    for cochain in (pcoc, smi, sul):
        with pytest.raises(InputError):
            cochain(((1, 0), (0, 1)))  # n vectors, not n + 1
        with pytest.raises(InputError):
            cochain(((1, 0), (0, 1), (1, 1, 1)))


@pytest.mark.parametrize("n,trials", [(2, 600), (4, 240)])
def test_closed_forms_match_oracles(n, trials):
    s = RationalSampler(101 + n)
    seen = {"spanning": 0, "degenerate": 0, "zero": 0, "nongeneric": 0}
    for t in range(trials):
        vs = s.tuple_with_degeneracies(n, n + 1)
        spanning = hereditarily_spanning(vs)
        seen["spanning" if spanning else "degenerate"] += 1
        assert pcoc(vs) == pcoc_by_ori(vs)
        assert smi(vs) == smi_enumerated(vs)
        assert (smi(vs) != 0) == spanning
        # sul and sul_classify are total: plant a zero vector in every
        # third tuple
        if t % 3 == 2:
            vs = list(vs)
            vs[s.rng.randrange(n + 1)] = (F(0),) * n
            vs = tuple(vs)
            seen["zero"] += 1
        assert sul(vs) == sul_by_ori(vs)
        got = sul_classify(vs)
        assert got == sul_classify_by_ori(vs)
        seen["nongeneric"] += not got[1]
    # every branch of the oracles is exercised
    assert min(seen.values()) > 0, seen
