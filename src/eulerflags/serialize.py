"""JSON schemas for the CLI.

Rationals travel as strings "p/q" or "p", or as JSON integers; vectors as
arrays of those.  JSON floats are not rationals: parse_rational rejects them
with InputError("not a rational: ..."), bundle transitions included.
Point tuples:   { "n": int, "points": [[rational, ...], ...] }
Flag tuples:    { "n": int, "flags": [[[rational, ...], ...], ...] }
Bundles:        { "n", "vertices": int, "simplices": [{"v": [int, ...], "c": int}],
                  "transitions": [{"i": int, "j": int, "g": [[...], ...]}],
                  "section": [[...], ...], "tol": rational (optional) }
Matrix tuples:  { "n": int, "gs": [[[number, ...], ...], ...] }  (floats ok)
"""

from __future__ import annotations

import json
from fractions import Fraction

from .flags import make_flag
from .linalg import InputError


def parse_rational(s) -> Fraction:
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {s!r} ({exc})") from None
    raise InputError(f"not a rational: {s!r}")


def fmt_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_vector(arr):
    if not isinstance(arr, (list, tuple)) or not arr:
        raise InputError(f"not a vector: {arr!r}")
    return tuple(parse_rational(x) for x in arr)


def fmt_vector(v):
    return [fmt_rational(x) for x in v]


def parse_matrix(rows):
    if not isinstance(rows, (list, tuple)) or not rows:
        raise InputError(f"not a matrix: {rows!r}")
    return tuple(parse_vector(r) for r in rows)


def fmt_matrix(m):
    return [fmt_vector(r) for r in m]


def _get(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing key {key!r} in input document")
    return doc[key]


def load_points(doc):
    n = _get(doc, "n")
    pts = tuple(parse_vector(v) for v in _get(doc, "points"))
    if any(len(v) != n for v in pts):
        raise InputError(f"point of dimension != n={n}")
    return n, pts


def dump_points(n, pts):
    return {"n": n, "points": [fmt_vector(v) for v in pts]}


def load_flags(doc):
    n = _get(doc, "n")
    flags = tuple(make_flag(parse_matrix(f)) for f in _get(doc, "flags"))
    if any(F.n != n for F in flags):
        raise InputError(f"flag of dimension != n={n}")
    return n, flags


def dump_flags(n, flags):
    return {"n": n, "flags": [fmt_matrix(F.basis) for F in flags]}


def load_bundle(doc):
    from .simplicial import FlatBundleComplex

    n = _get(doc, "n")
    vertices = _get(doc, "vertices")
    simplices = [(_get(s, "v"), _get(s, "c")) for s in _get(doc, "simplices")]
    transitions = {(_get(t, "i"), _get(t, "j")): parse_matrix(_get(t, "g"))
                   for t in _get(doc, "transitions")}
    section = [parse_vector(s) for s in _get(doc, "section")]
    tol = parse_rational(doc.get("tol", 0))
    return FlatBundleComplex(n, vertices, simplices, transitions, section, tol=tol)


def dump_bundle(bundle):
    doc = {
        "n": bundle.n,
        "vertices": bundle.vertices,
        "simplices": [{"v": list(v), "c": c} for v, c in bundle.simplices],
        "transitions": [{"i": i, "j": j, "g": fmt_matrix(g)}
                        for (i, j), g in sorted(bundle.transitions.items())],
        "section": [fmt_vector(s) for s in bundle.section],
    }
    if bundle.tol:
        doc["tol"] = fmt_rational(bundle.tol)
    return doc


def load_gs(doc):
    n = _get(doc, "n")
    gs = [[[float(x) for x in row] for row in g] for g in _get(doc, "gs")]
    if any(len(g) != n or any(len(r) != n for r in g) for g in gs):
        raise InputError(f"matrix of shape != {n}x{n}")
    return n, gs


def load_json(path: str):
    try:
        if path == "-":
            import sys

            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path!r}: {exc}") from None
