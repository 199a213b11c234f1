"""JSON schemas: rational strings, tuple/flag/bundle round trips."""

from fractions import Fraction

import pytest

from eulerflags.linalg import InputError, fr
from eulerflags.randgen import RationalSampler
from eulerflags.serialize import (dump_bundle, dump_flags, dump_points,
                                  fmt_matrix, fmt_rational, load_bundle,
                                  load_flags, load_gs, load_json, load_points)
from eulerflags.simplicial import euler_number
from eulerflags.surfaces import (fuchsian_octagon_rep, genus_surface_bundle,
                                 rational_flat_rep)

F = Fraction


def test_rational_round_trip():
    for s, v in (("-3/4", F(-3, 4)), ("5", F(5)), ("0", F(0)),
                 ("+7/2", F(7, 2)), (7, F(7))):
        assert fr(s) == v
    assert fmt_rational(F(-3, 4)) == "-3/4"
    assert fmt_rational(F(10, 5)) == "2"
    for bad in ("abc", "1/0", " 7/2 ", "0.5", "1e3", True, 1.5, None, []):
        with pytest.raises(InputError):
            fr(bad)


def test_points_round_trip():
    s = RationalSampler(1)
    pts = tuple(s.vector(4) for _ in range(6))
    n, back = load_points(dump_points(4, pts))
    assert n == 4 and back == pts
    with pytest.raises(InputError):
        load_points({"n": 2, "points": [["1", "0", "0"]]})
    with pytest.raises(InputError):
        load_points({"points": [["1", "0"]]})


def test_flags_round_trip():
    s = RationalSampler(2)
    Fs = s.flags(2, 3)
    n, back = load_flags(dump_flags(2, Fs))
    assert n == 2 and tuple(G.basis for G in back) == tuple(G.basis for G in Fs)
    with pytest.raises(InputError):
        load_flags({"n": 2, "flags": [[["1", "0"], ["2", "0"]]]})  # singular


def test_bundle_round_trip_exact():
    b = genus_surface_bundle(rational_flat_rep(), seed=3)
    doc = dump_bundle(b)
    assert "tol" not in doc
    b2 = load_bundle(doc)
    assert euler_number(b2)[1] == 0
    assert b2.simplices == b.simplices and b2.section == b.section


def test_bundle_round_trip_tolerant():
    b = genus_surface_bundle(fuchsian_octagon_rep(), seed=3,
                             tol=F(1, 10 ** 9))
    doc = dump_bundle(b)
    assert doc["tol"] == "1/1000000000"
    b2 = load_bundle(doc)
    assert b2.tol == F(1, 10 ** 9)
    assert euler_number(b2)[1] == 1


def test_dumped_strings_are_strict_rationals():
    # every string a dumper writes is sign, digits and "/digits", so the
    # strict rational rule reads it back
    s = RationalSampler(5)
    docs = [dump_points(2, [s.vector(2) for _ in range(3)]),
            dump_flags(4, s.flags(4, 5)),
            dump_bundle(genus_surface_bundle(rational_flat_rep(), seed=2)),
            dump_bundle(genus_surface_bundle(fuchsian_octagon_rep(), seed=2,
                                             tol=F(1, 10 ** 9)))]

    def strings(x):
        if isinstance(x, str):
            yield x
        elif isinstance(x, dict):
            for v in x.values():
                yield from strings(v)
        elif isinstance(x, list):
            for v in x:
                yield from strings(v)

    seen = [t for doc in docs for t in strings(doc)]
    assert len(seen) > 100 and any("/" in t for t in seen)
    assert any(t.startswith("-") for t in seen)
    for t in seen:
        assert fr(t) == F(t)


def test_gs_loader():
    n, gs = load_gs({"n": 2, "gs": [[[1, 0], [0, 1]]] * 3})
    assert n == 2 and gs[0][0][0] == 1.0
    with pytest.raises(InputError):
        load_gs({"n": 2, "gs": [[[1, 0, 0], [0, 1, 0]]]})


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(InputError):
        load_json(str(p))


def test_fmt_matrix():
    assert fmt_matrix(((F(1, 2), F(0)), (F(3), F(-1)))) \
        == [["1/2", "0"], ["3", "-1"]]
