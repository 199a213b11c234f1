"""Flat bundles over finite simplicial complexes and their Euler numbers.

A bundle is vertex-pair transition data: for every ordered pair inside a
common top simplex, an exact rational matrix of positive determinant, with
g_ii = Id, g_ij g_ji = Id, and the per-simplex cocycle rule g_ij g_jk = g_ik
validated exactly.  A section assigns a nonzero vector to each vertex in the
vertex's own trivialization.  Vertex counts and indices, transition keys
and chain coefficients must be integers.

Everything after construction runs on linalg's cleared pairs: validate
reads each stored transition by _glp as (L_ij, G_ij = L_ij g_ij), once; a
direction stored only as its reverse is the _inverse of that pair; each
section vector is its int_vec.  A section change shares the pairs, and a
gauge move composes them by _pair_mul.

Each simplex is evaluated at every base vertex b on the Cramer signs of
the transported integer vectors G_bj s_j (simplex_sections), by smi's rule
(total) or sul_classify's (needs a generic section), with no second point
check; the values must agree, and a closed chain must give an integer.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .cocycles import _smi_of_signs, _sul_of_signs
from .linalg import (
    InputError,
    PropertyViolation,
    _clear_matrix,
    _close,
    _cramer_signs,
    _echo,
    _fractions,
    _glp,
    _integer,
    _inverse,
    _mat_vec,
    _pair_mul,
    _seq,
    _tuple,
    fr,
    identity,
    int_vec,
    is_zero_vec,
    mat,
    require_even,
    vec,
)


class NonGenericSection(InputError):
    """The sullivan mode needs every deleted determinant that touches a
    boundary-of-hull decision to be nonzero."""


def _chain(simplices) -> tuple:
    """A chain read once: ((vertex tuple, coefficient), ...) from a sequence
    of (vertices, coefficient) pairs, every vertex and coefficient an int
    and no vertex repeated within a simplex."""
    chain = []
    for t in _seq(simplices, "simplices"):
        verts, c = _seq(t, "chain term", 2)
        verts = tuple(_integer(v, "simplex vertex") for v in _seq(verts, "simplex"))
        if len(set(verts)) != len(verts):
            raise InputError(f"repeated vertex in simplex {verts}")
        chain.append((verts, _integer(c, "chain coefficient")))
    return tuple(chain)


def chain_boundary(simplices):
    """Boundary of an integer chain of ordered simplices.

    Faces are canonicalized by sorting their vertices, with the sign of
    the sorting permutation: (-1) to the number of inversions of the face;
    returns {sorted face: coefficient} without zeros.
    """
    return _boundary(_chain(simplices))


def _boundary(chain) -> dict:
    """chain_boundary of a chain already read by _chain."""
    out: dict[tuple, int] = {}
    for verts, c in chain:
        for i in range(len(verts)):
            face = verts[:i] + verts[i + 1:]
            key = tuple(sorted(face))
            inversions = sum(x > y for x, y in itertools.combinations(face, 2))
            coeff = out.get(key, 0) + c * (-1) ** (i + inversions)
            if coeff:
                out[key] = coeff
            else:
                out.pop(key, None)
    return out


class FlatBundleComplex:
    """n: even rank; vertices: count; simplices: [(vertex tuple, coeff)];
    transitions: {(i, j): matrix} or ((i, j), matrix) pairs, each (i, j)
    at most once, stored read-only; section: [vector per vertex]; tol:
    rational."""

    __slots__ = ("n", "vertices", "simplices", "transitions", "section",
                 "tol", "_pairs", "_ints")

    def __init__(self, n, vertices, simplices, transitions, section, tol=0):
        self.n = require_even(n)
        self.vertices = _integer(vertices, "vertex count")
        self.simplices = _chain(simplices)
        if isinstance(transitions, Mapping):
            transitions = transitions.items()
        stored = {}
        for t in _seq(transitions, "transitions"):
            key, g = _seq(t, "transition", 2)
            i, j = (_integer(v, "transition key") for v in _seq(key, "transition key", 2))
            if (i, j) in stored:
                raise InputError(f"transition pair ({i}, {j}) is repeated")
            stored[(i, j)] = mat(g)
        self.transitions = MappingProxyType(stored)
        self.tol = fr(tol)
        if self.tol < 0:
            raise InputError("tol must be nonnegative")
        self._pairs = {}
        self._set_section(section)
        self.validate()

    def _set_section(self, section):
        """Check and store a section: a nonzero n-vector per vertex."""
        section = tuple(vec(s) for s in _seq(section, "section"))
        if len(section) != self.vertices:
            raise InputError("section must assign a vector to every vertex")
        if section:
            _tuple(section, "section vectors", n=self.n)
        if any(map(is_zero_vec, section)):
            raise InputError("section vectors must be nonzero")
        self.section = section
        self._ints = tuple(int_vec(s) for s in section)

    def _pair(self, i: int, j: int):
        """(L_ij, G_ij = L_ij g_ij), or on first use for a direction stored
        only as its reverse the _inverse of that pair."""
        lg = self._pairs.get((i, j))
        if lg is None:
            if (j, i) not in self.transitions:
                raise InputError(f"no transition for vertex pair ({i}, {j})")
            lg = self._pairs[(i, j)] = _inverse(self._pairs[(j, i)])
        return lg

    def validate(self):
        """self.tol = 0: every identity is required exactly (rational data).
        self.tol > 0: the inverse-pair and cocycle identities are allowed a
        relative defect up to tol — for transition data that only
        approximates a flat structure (e.g. floating-point holonomies,
        stored as exact dyadic rationals).  Everything else stays exact.

        Each distinct edge and triangle is checked once, by linalg._close
        on the cleared pairs.  On exact data g_ab g_ba = Id per edge a < b
        and g_ab g_bc = g_ac per triangle a < b < c imply every ordering; on
        tolerant data, where defects would accumulate, every ordered pair
        and triple is checked."""
        tol, n = self.tol, self.n
        ident = _clear_matrix(identity(n))
        for (i, j), g in self.transitions.items():
            if not (0 <= i < self.vertices and 0 <= j < self.vertices):
                raise InputError(f"transition pair ({i}, {j}) out of range")
            lg = self._pairs[(i, j)] = _glp(g, n, f"transition ({i}, {j})")
            if i == j and lg != ident:
                raise InputError(f"transition ({i}, {i}) must be the identity")
        pair, edges, triangles = self._pair, set(), set()
        for verts, _ in self.simplices:
            if len(verts) != n + 1:
                raise InputError(f"simplex {verts} is not an n-simplex (n={n})")
            if any(not 0 <= v < self.vertices for v in verts):
                raise InputError(f"vertex out of range in simplex {verts}")
            face = sorted(verts)
            for e in itertools.combinations(face, 2):
                if e in edges:
                    continue
                edges.add(e)
                for a, b in (e,) if not tol else (e, e[::-1]):
                    if not _close(_pair_mul(pair(a, b), pair(b, a)), ident, tol):
                        raise InputError(f"transitions ({a},{b}) and ({b},{a}) are not inverse")
            for t in itertools.combinations(face, 3):
                if t in triangles:
                    continue
                triangles.add(t)
                for a, b, c in (t,) if not tol else itertools.permutations(t):
                    if not _close(_pair_mul(pair(a, b), pair(b, c)), pair(a, c), tol):
                        raise InputError(
                            f"cocycle rule fails on ({a},{b},{c}) within simplex {verts}")

    def simplex_sections(self, verts, base: int):
        """Section values of a simplex transported to the trivialization of
        the base-th vertex, in stored vertex order, as integer vectors.

        Each is G_bj s_j, with s_j = int_vec of the section at vertex j, a
        positive multiple of g_bj times the section value: a positive
        rescaling of any argument changes no Cramer sign, so the signs that
        euler_number reads from these, once per simplex and base, are those
        of the rational transport."""
        vb = verts[base]
        ints = self._ints
        return tuple(ints[vj] if vj == vb else
                     _mat_vec(self._pair(vb, vj)[1], ints[vj])
                     for vj in verts)


def _simplex_value(bundle: FlatBundleComplex, verts, mode: str) -> Fraction:
    vals = []
    for base in range(len(verts)):
        signs = _cramer_signs(bundle.simplex_sections(verts, base))
        if mode == "smillie":
            vals.append(_smi_of_signs(signs))
        else:
            v, generic = _sul_of_signs(signs)
            if not generic:
                raise NonGenericSection(
                    f"section is not generic on simplex {verts} (base {base})")
            vals.append(v)
    if any(v != vals[0] for v in vals):
        if bundle.tol != 0:
            # Inexact transitions transport this section inconsistently:
            # the configuration sits inside the noise band, so no value
            # can be certified.  A genericity failure of the section, not
            # a library invariant violation.
            raise NonGenericSection(
                f"section cannot be certified at tolerance {bundle.tol} on "
                f"simplex {verts}: per-base values disagree")
        raise PropertyViolation("base-vertex independence failed")
    if mode == "smillie" and abs(vals[0]) > Fraction(1, 2 ** bundle.n):
        raise PropertyViolation(f"smi value {vals[0]} exceeds 2^-n")
    return vals[0]


def _check_bundle(bundle) -> FlatBundleComplex:
    if not isinstance(bundle, FlatBundleComplex):
        raise InputError(f"expected a FlatBundleComplex, got {_echo.repr(bundle)}")
    return bundle


def euler_number(bundle: FlatBundleComplex, mode: str = "smillie"):
    """(raw, integer, per_simplex): the chain pairing of the chosen cocycle.

    raw is the exact rational total; integer is its value as an int on a
    closed chain (None when the chain is not closed).  smillie mode is
    total on exact bundles; on tolerant bundles it raises
    NonGenericSection for sections the noisy transitions transport
    inconsistently.  sullivan mode raises NonGenericSection on any
    non-generic section.
    """
    _check_bundle(bundle)
    if mode not in ("smillie", "sullivan"):
        raise InputError(f"unknown euler mode {mode!r}")
    per_simplex = []
    total = Fraction(0)
    for verts, c in bundle.simplices:
        v = _simplex_value(bundle, verts, mode)
        per_simplex.append(v)
        total += c * v
    if _boundary(bundle.simplices):
        return total, None, per_simplex
    if total.denominator != 1:
        raise PropertyViolation(f"non-integral total {total} on a closed chain")
    return total, int(total), per_simplex


def gauge_transform(bundle: FlatBundleComplex, hs) -> FlatBundleComplex:
    """Compose every trivialization with h_x (read by _glp): s'_x = h_x s_x
    and g'_xy = h_x g_xy h_y^(-1).  Per-simplex values are unchanged;
    relative defects are not, so the result is validated at the bundle's tol."""
    n = _check_bundle(bundle).n
    hs = [_glp(h, n, "gauge matrix") for h in _seq(hs, "gauge matrices")]
    if len(hs) != bundle.vertices:
        raise InputError("need one gauge matrix per vertex")
    invs = [_inverse(h) for h in hs]
    transitions = {(x, y): _fractions(_pair_mul(_pair_mul(hs[x], bundle._pair(x, y)), invs[y]))
                   for x, y in bundle.transitions}
    section = [_mat_vec(_fractions(h), s) for h, s in zip(hs, bundle.section)]
    return FlatBundleComplex(n, bundle.vertices, bundle.simplices,
                             transitions, section, tol=bundle.tol)


def with_section(bundle: FlatBundleComplex, section) -> FlatBundleComplex:
    """The bundle with another section, sharing its validated transitions
    and their cleared pairs; only the new section is checked."""
    out = copy.copy(_check_bundle(bundle))
    out._set_section(section)
    return out
