"""One tuple rule: malformed point, vector, flag and chain arguments raise
InputError at every public entry point, never a bare TypeError,
AttributeError, IndexError or ValueError."""

import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from eulerflags import cocycles, flags, linalg, simplicial
from eulerflags.circle import euler_number_oracle
from eulerflags.cocycles import coboundary, coc, coco, pcoc, smi, sul
from eulerflags.flags import (bracket, bracket_selections, flag_equal_unoriented,
                              flagstaff, flip, make_flag, realize_points)
from eulerflags.linalg import (InputError, _tuple, det, e0, frame_transform,
                               hereditarily_spanning, identity, mat_mul, mat_vec,
                               ori, sig)
from eulerflags.montecarlo import itu_estimate
from eulerflags.randgen import RationalSampler
from eulerflags.serialize import load_flags, load_gs, load_points
from eulerflags.simplicial import (FlatBundleComplex, chain_boundary, euler_number,
                                  gauge_transform, with_section)

I2 = ((1, 0), (0, 1))
F = make_flag(I2)


def _bundle(simplices=(((0, 1, 2), 1),), transitions=None):
    if transitions is None:
        transitions = {(i, j): I2 for i in range(3) for j in range(3)}
    return FlatBundleComplex(2, 3, simplices, transitions, [(1, 0)] * 3)


MALFORMED = {
    # cochains
    "pcoc(5)": lambda: pcoc(5),
    "sul(5)": lambda: sul(5),
    "smi(5)": lambda: smi(5),
    "coco(5)": lambda: coco(5),
    "coc(5)": lambda: coc(5),
    "coboundary(pcoc, 5)": lambda: coboundary(pcoc, 5),
    "coboundary(5, xs)": lambda: coboundary(5, [(1, 0), (0, 1), (1, 1), (1, -1)]),
    # flags
    "bracket(5)": lambda: bracket(5),
    "bracket([matrix])": lambda: bracket([[[1, 0], [0, 1]]]),
    "bracket_selections(5)": lambda: bracket_selections(5),
    "realize_points(5)": lambda: realize_points(5),
    "realize_points([matrix] * 4)": lambda: realize_points([[[1, 0], [0, 1]]] * 4),
    "flag_equal_unoriented(matrix, F)": lambda: flag_equal_unoriented([[1, 0], [0, 1]], F),
    "flagstaff(5)": lambda: flagstaff(5),
    "F.apply(5)": lambda: F.apply(5),
    "F.apply(ragged)": lambda: F.apply([[1, 0], [0]]),
    "flip(F, True)": lambda: flip(F, True),
    "flip(F, 1.0)": lambda: flip(F, 1.0),
    "flip(F, '1')": lambda: flip(F, "1"),
    "flip(5, 1)": lambda: flip(5, 1),
    # linalg
    "hereditarily_spanning(5)": lambda: hereditarily_spanning(5),
    "frame_transform([])": lambda: frame_transform([]),
    "frame_transform(5)": lambda: frame_transform(5),
    "det(5)": lambda: det(5),
    "ori(5)": lambda: ori(5),
    "sig(5)": lambda: sig(5),
    "identity(2.0)": lambda: identity(2.0),
    "e0(2.0)": lambda: e0(2.0),
    "mat_vec([], [])": lambda: mat_vec([], []),
    "mat_mul([], [])": lambda: mat_mul([], []),
    "mat_vec(5, v)": lambda: mat_vec(5, (1,)),
    "mat_vec(m, 5)": lambda: mat_vec([[1]], 5),
    "mat_vec(ragged, v)": lambda: mat_vec(((1, 2), (3, 4, 5)), (1, 1)),
    "mat_mul(5, b)": lambda: mat_mul(5, [[1]]),
    "mat_mul(a, [row, 5])": lambda: mat_mul([[1, 2]], [[1], 5]),
    "mat_mul(ragged, I2)": lambda: mat_mul(((1, 2), (3,)), I2),
    "mat_mul(I2, ragged)": lambda: mat_mul(I2, ((1, 2), (3,))),
    "mat_vec(float entry, v)": lambda: mat_vec([[1.5, 2]], [1, 1]),
    "mat_vec(m, float entry)": lambda: mat_vec([[1, 2]], [0.5, 1]),
    "mat_mul(bool entry, b)": lambda: mat_mul([[True]], [[3]]),
    "mat_vec(string entry, v)": lambda: mat_vec([["a"]], [2]),
    # bundles
    "gauge_transform(b, 5)": lambda: gauge_transform(_bundle(), 5),
    "gauge_transform(5, hs)": lambda: gauge_transform(5, [I2] * 3),
    "euler_number(5)": lambda: euler_number(5),
    "with_section(5, s)": lambda: with_section(5, [(1, 0)] * 3),
    "euler_number_oracle(5)": lambda: euler_number_oracle(5),
    "FlatBundleComplex(simplices=5)": lambda: _bundle(simplices=5),
    "FlatBundleComplex(simplices=[5])": lambda: _bundle(simplices=[5]),
    "FlatBundleComplex(transitions=[5])": lambda: _bundle(transitions=[5]),
    "FlatBundleComplex(transition pair out of range)":
        lambda: _bundle(transitions={**_bundle().transitions, (0, 3): I2}),
    "chain_boundary(5)": lambda: chain_boundary(5),
    "chain_boundary(float coefficient)": lambda: chain_boundary([((0, 1, 2), 1.5)]),
    "chain_boundary(degenerate edge)": lambda: chain_boundary([((0, 0), 1)]),
    # documents
    "load_points(no points)": lambda: load_points({"n": 2, "points": []}),
    "load_flags(no flags)": lambda: load_flags({"n": 2, "flags": []}),
    "load_flags(dimension 2, n=4)": lambda: load_flags({"n": 4, "flags": [I2]}),
    "load_gs(2x2, n=4)": lambda: load_gs({"n": 4, "gs": [I2] * 3}),
    # Monte Carlo matrix tuples: ints and floats only
    "itu_estimate(string entries)":
        lambda: itu_estimate([[["1", "0"], ["0", "1"]]] * 3, 100),
    "itu_estimate(underscore string entry)":
        lambda: itu_estimate([[["1_0", "0"], ["0", "1"]]] * 3, 100),
    "itu_estimate(bool entries)":
        lambda: itu_estimate([[[True, False], [False, True]]] * 3, 100),
    "itu_estimate(int past float range)":
        lambda: itu_estimate([[[10 ** 400, 0], [0, 1]]] * 3, 100),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_call_raises_input_error(call):
    with pytest.raises(InputError):
        call()


def test_empty_matrix_has_determinant_one():
    assert det([]) == 1 and type(det([])) is Fraction
    assert ori([]) == sig([]) == 1
    assert linalg._clear_matrix([]) == (1, ())


def test_tuple_rule():
    assert _tuple([(1, 2), (3, 4)], "vectors") == (((1, 2), (3, 4)), 2)
    assert _tuple(iter([(1, 2), (3, 4), (5, 6)]), "points", extra=1)[1] == 2
    for bad, message in [(5, "points must be a sequence"), ("ab", "points must be a sequence"),
                         ([], "no points given"),
                         ([(1, 2), (1, 2, 3), (1, 2)], "points of mixed dimension"),
                         ([(1, 2)] * 4, "need 3 points in dimension n=2, got 4")]:
        with pytest.raises(InputError, match=message):
            _tuple(bad, "points", extra=1)
    with pytest.raises(linalg.OddDimensionError):
        _tuple([(1, 2, 3)] * 4, "points", extra=1)
    # without extra, any common dimension and any length pass
    assert _tuple([(1, 2, 3)] * 7, "vectors")[1] == 3
    # a declared n must be the items' common dimension
    assert _tuple([(1, 2)], "points", n=2) == (((1, 2),), 2)
    with pytest.raises(InputError, match="points of dimension 3, not the declared n=2"):
        _tuple([(1, 2, 3)], "points", n=2)
    with pytest.raises(InputError, match="points of mixed dimension"):
        _tuple([(1, 2), (1, 2, 3)], "points", n=2)


def test_mixed_dimension_is_decided_once():
    src = Path(linalg.__file__).parent
    assert sum(p.read_text().count("mixed dimension") for p in src.glob("*.py")) == 1


def test_declared_dimension_and_repeated_vertices_are_decided_once():
    texts = {p.name: p.read_text() for p in Path(linalg.__file__).parent.glob("*.py")}

    def files(text):
        return sorted(name for name, t in texts.items() for _ in range(t.count(text)))

    assert files("not the declared n=") == ["linalg.py"]
    assert "not the declared n=" in inspect.getsource(linalg._tuple)
    assert files("repeated vertex") == ["simplicial.py"]
    assert "repeated vertex" in inspect.getsource(simplicial._chain)
    assert files("dimension != n") == []


def test_declared_dimension_messages():
    with pytest.raises(InputError, match="points of dimension 3, not the declared n=2"):
        load_points({"n": 2, "points": [[1, 0, 0]]})
    with pytest.raises(InputError, match="flags of dimension 2, not the declared n=4"):
        load_flags({"n": 4, "flags": [I2]})
    with pytest.raises(InputError, match="g matrices of dimension 2, not the declared n=4"):
        load_gs({"n": 4, "gs": [I2] * 3})
    with pytest.raises(InputError, match="section vectors of dimension 3, not the declared n=2"):
        FlatBundleComplex(2, 1, [], {}, [(1, 0, 0)])
    with pytest.raises(InputError, match="section vectors must be nonzero"):
        FlatBundleComplex(2, 1, [], {}, [(0, 0)])


def test_empty_bundle_stays_valid():
    assert euler_number(FlatBundleComplex(2, 0, [], {}, [])) == (0, 0, [])


def test_mat_products_are_exact():
    assert mat_vec([[1, "1/2"]], [2, 2]) == (3,)
    assert type(mat_vec([[1, 2]], [1, 1])[0]) is Fraction
    assert type(mat_mul([[3]], [[2]])[0][0]) is Fraction


@pytest.mark.parametrize("n", [2, 4])
def test_flag_tuples_are_checked_once_per_call(n, monkeypatch):
    calls, real = [], flags._flags

    def counted(Fs, extra=None):
        calls.append(extra)
        return real(Fs, extra)

    monkeypatch.setattr(cocycles, "_flags", counted)
    s = RationalSampler(90 + n)
    for mode in ("factorized", "naive") if n == 2 else ("factorized",):
        coc(s.flags(n, n + 1), mode=mode)
    coco(s.flags(n, n + 1))
    assert calls == [1] * len(calls) and len(calls) == (3 if n == 2 else 2)
    calls.clear()
    monkeypatch.setattr(flags, "_flags", counted)
    monkeypatch.setattr(flags, "bracket_selections", None)  # the loops use _BracketWalk
    realize_points(s.flags(n, n + 2))
    assert calls == [2]
