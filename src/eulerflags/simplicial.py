"""Flat bundles over finite simplicial complexes and their Euler numbers.

A bundle is vertex-pair transition data: for every ordered pair inside a
common top simplex, an exact rational matrix of positive determinant, with
g_ii = Id, g_ij g_ji = Id, and the per-simplex cocycle rule g_ij g_jk = g_ik
validated exactly.  A section assigns a nonzero vector to each vertex in the
vertex's own trivialization.  Vertex counts and indices, transition keys
and chain coefficients must be integers.

Everything after construction runs on integers cleared once by linalg's
clearing rule: each stored transition, on first use, as (L_ij, G_ij =
L_ij g_ij) with L_ij the positive lcm of its denominators, a direction
stored only as its reverse as the _inverse of the stored pair, and each
section vector as its int_vec.  The read-only transitions are validated
once, each distinct face of the complex once; a section change shares
them and their cleared pairs, and a gauge move composes cleared integers.

The per-simplex evaluation transports all section values to a base vertex
as the integer vectors G_bj s_j, positive multiples of g_bj s_j that no
Cramer sign can tell apart, and reads their Cramer signs once with
linalg's kernel: the data were checked when the bundle was built, so the
point cochains' argument check is not run again.  The value is smi's
(total) or sul_classify's (needs a generic section), each cochain's rule
on the same signs; independence of the base vertex is re-verified on every
simplex, and a closed chain must produce an integer in smillie mode.
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
    _cramer_signs,
    _echo,
    _integer,
    _inverse,
    _mat_mul,
    _mat_vec,
    _seq,
    _tuple,
    det_sign_int,
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


def _close(a, da, b, db, tol):
    """Integer form of validate's closeness test for the rationals a/da and
    b/db (integer matrices, positive denominators) at tol = p/q: every entry
    must satisfy |x/da - y/db| <= tol * scale, scale being the largest of 1
    and all entries' absolute values; multiplied through by q*da*db that is
    q*|x*db - y*da| <= p*max(da*db, max|x|*db, max|y|*da)."""
    pairs = [(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    if not tol:
        return all(x * db == y * da for x, y in pairs)
    p, q = tol.numerator, tol.denominator
    bound = p * max(da * db, max(abs(x) for x, _ in pairs) * db,
                    max(abs(y) for _, y in pairs) * da)
    return all(q * abs(x * db - y * da) <= bound for x, y in pairs)


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
        """(L_ij, G_ij = L_ij g_ij) for i != j, cleared on first use; a
        direction stored only as its reverse is the _inverse of the stored
        pair."""
        lg = self._pairs.get((i, j))
        if lg is None:
            if (i, j) in self.transitions:
                lg = _clear_matrix(self.transitions[(i, j)])
            elif (j, i) in self.transitions:
                lg = _inverse(*self._pair(j, i))
            else:
                raise InputError(f"no transition for vertex pair ({i}, {j})")
            self._pairs[(i, j)] = lg
        return lg

    def validate(self):
        """self.tol = 0: every identity is required exactly (rational data).
        self.tol > 0: the inverse-pair and cocycle identities are allowed a
        relative defect up to tol — for transition data that only
        approximates a flat structure (e.g. floating-point holonomies,
        stored as exact dyadic rationals).  Everything else stays exact.

        Each distinct edge and triangle of the complex is checked once, on
        the cleared integer transitions.  On exact data one inverse pair per
        unordered edge {a, b}, G_ab G_ba = L_ab L_ba Id, and one cocycle rule
        per sorted triangle a < b < c, L_ac G_ab G_bc = L_ab L_bc G_ac, imply
        the identities for every ordering.  On tolerant data those
        derivations would accumulate defects, so every ordered pair and
        every ordered triple is checked, each once, by _close: the integer
        form of the relative bound, which accepts exactly what the bound on
        the rational matrices accepts."""
        tol, n = self.tol, self.n
        for (i, j), g in self.transitions.items():
            if not (0 <= i < self.vertices and 0 <= j < self.vertices):
                raise InputError(f"transition pair ({i}, {j}) out of range")
            if len(g) != n or any(len(r) != n for r in g):
                raise InputError(f"transition ({i}, {j}) is not {n}x{n}")
            if i == j:
                if g != identity(n):
                    raise InputError(f"transition ({i}, {i}) must be the identity")
            elif det_sign_int(self._pair(i, j)[1]) != 1:
                raise InputError(f"transition ({i}, {j}) must have positive determinant")
        ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
        pair = self._pair
        edges, triangles = set(), set()
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
                    (lab, gab), (lba, gba) = pair(a, b), pair(b, a)
                    if not _close(_mat_mul(gab, gba), lab * lba, ident, 1, tol):
                        raise InputError(f"transitions ({a},{b}) and ({b},{a}) are not inverse")
            for t in itertools.combinations(face, 3):
                if t in triangles:
                    continue
                triangles.add(t)
                for a, b, c in (t,) if not tol else itertools.permutations(t):
                    (lab, gab), (lbc, gbc) = pair(a, b), pair(b, c)
                    lac, gac = pair(a, c)
                    if not _close(_mat_mul(gab, gbc), lab * lbc, gac, lac, tol):
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
    """Compose every trivialization with h_x: s'_x = h_x s_x and g'_xy =
    h_x g_xy h_y^(-1) = H_x G_xy K_y / (l_x L_xy l'_y), for (l_x, H_x) = h_x
    cleared and (l'_y, K_y) its _inverse.  Per-simplex values are unchanged;
    relative defects are not, so the result is validated at the bundle's tol."""
    n = _check_bundle(bundle).n
    hs = [_clear_matrix(h) for h in _seq(hs, "gauge matrices")]
    if len(hs) != bundle.vertices:
        raise InputError("need one gauge matrix per vertex")
    if any(len(h) != n or det_sign_int(h) != 1 for _, h in hs):
        raise InputError(f"gauge matrices must be {n}x{n} with positive determinant")
    invs = [_inverse(*h) for h in hs]
    transitions = {}
    for x, y in bundle.transitions:
        (lx, hx), (lg, g), (ly, ky) = hs[x], bundle._pair(x, y), invs[y]
        transitions[(x, y)] = tuple(tuple(Fraction(v, lx * lg * ly) for v in r)
                                    for r in _mat_mul(_mat_mul(hx, g), ky))
    section = [tuple(v / l for v in _mat_vec(h, s))
               for (l, h), s in zip(hs, bundle.section)]
    return FlatBundleComplex(n, bundle.vertices, bundle.simplices,
                             transitions, section, tol=bundle.tol)


def with_section(bundle: FlatBundleComplex, section) -> FlatBundleComplex:
    """The bundle with another section, sharing its validated transitions
    and their cleared pairs; only the new section is checked."""
    out = copy.copy(_check_bundle(bundle))
    out._set_section(section)
    return out
