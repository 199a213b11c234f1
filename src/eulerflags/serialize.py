"""JSON schemas for the CLI.

A loader maps the keys of a document to constructor arguments and checks
nothing itself: linalg's input rules decide every value, and the tuple
rule holds the points, flags or g matrices to the declared n.  A rational
(fr) is a JSON integer or a string "p/q" or "p" (an optional sign and ASCII
digits; decimal, exponent, underscore and whitespace forms are refused);
JSON floats, booleans and null are not rationals and raise
InputError("not a rational: ..."), bundle transitions included.  An integer
(_integer) is a JSON integer, not a boolean.  A vector or matrix (_seq) is
an array.
Point tuples:   { "n": int, "points": [[rational, ...], ...] }
Flag tuples:    { "n": int, "flags": [[[rational, ...], ...], ...] }
Bundles:        { "n", "vertices": int, "simplices": [{"v": [int, ...], "c": int}],
                  "transitions": [{"i": int, "j": int, "g": [[...], ...]}],
                  "section": [[...], ...], "tol": rational (optional) }
Matrix tuples:  { "n": int, "gs": [[[number, ...], ...], ...] }  (ints or floats)
"""

from __future__ import annotations

import json
import sys

from .flags import _flags, make_flag
from .linalg import InputError, _integer, _seq, _tuple, fr, vec
from .montecarlo import _check_gs
from .simplicial import FlatBundleComplex


def fmt_rational(x) -> str:
    return str(fr(x))


def fmt_vector(v):
    return [fmt_rational(x) for x in v]


def fmt_matrix(m):
    return [fmt_vector(r) for r in m]


def _get(doc, key):
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"missing key {key!r} in input document")
    return doc[key]


def load_points(doc):
    n = _integer(_get(doc, "n"), "n")
    return n, _tuple([vec(v) for v in _seq(_get(doc, "points"), "points")], "points", n=n)[0]


def dump_points(n, pts):
    return {"n": n, "points": [fmt_vector(v) for v in pts]}


def load_flags(doc):
    n = _integer(_get(doc, "n"), "n")
    return n, _flags([make_flag(f) for f in _seq(_get(doc, "flags"), "flags")], n=n)[0]


def dump_flags(n, flags):
    return {"n": n, "flags": [fmt_matrix(F.basis) for F in flags]}


def load_bundle(doc):
    simplices = [(_get(s, "v"), _get(s, "c"))
                 for s in _seq(_get(doc, "simplices"), "simplices")]
    transitions = [((_get(t, "i"), _get(t, "j")), _get(t, "g"))
                   for t in _seq(_get(doc, "transitions"), "transitions")]
    return FlatBundleComplex(_get(doc, "n"), _get(doc, "vertices"), simplices,
                             transitions, _get(doc, "section"),
                             tol=doc.get("tol", 0))


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
    gs = _check_gs(_get(doc, "gs"))
    n = _integer(_get(doc, "n"), "n")
    _tuple(gs, "g matrices", n=n)
    return n, gs


def load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON is a ValueError
        raise InputError(f"cannot read JSON from {path!r}: {exc}") from None
