"""Genus-g fixture bundles and the reference representations."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from eulerflags.circle import euler_number_oracle
from eulerflags.linalg import (InputError, det, identity, mat_inv,
                               mat_mul, mat_vec)
from eulerflags.randgen import RationalSampler
from eulerflags.serialize import dump_bundle
from eulerflags.simplicial import (NonGenericSection, chain_boundary,
                                   euler_number, gauge_transform,
                                   with_section)
from eulerflags.surfaces import (fuchsian_octagon_rep, genus_surface_bundle,
                                 rational_flat_rep)

F = Fraction
TOL = F(1, 10 ** 9)
I2 = identity(2)


def _commutator_product(rep):
    m = I2
    for k in range(0, len(rep), 2):
        a, b = rep[k], rep[k + 1]
        m = mat_mul(m, mat_mul(mat_mul(a, b), mat_mul(mat_inv(a), mat_inv(b))))
    return m


@pytest.mark.parametrize("g", [1, 2, 3])
def test_combinatorics(g):
    b = genus_surface_bundle([I2] * (2 * g))
    assert b.vertices == 16 * g + 2
    assert len(b.simplices) == 36 * g
    edges = {frozenset(e) for verts, _ in b.simplices
             for e in itertools.combinations(verts, 2)}
    assert len(edges) == 54 * g
    assert b.vertices - len(edges) + len(b.simplices) == 2 - 2 * g
    assert chain_boundary(b.simplices) == {}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_trivial_rep_zero(g):
    raw, e, per = euler_number(genus_surface_bundle([I2] * (2 * g), seed=g))
    assert raw == 0 and e == 0


def test_rational_rep_exact():
    rep = rational_flat_rep()
    assert _commutator_product(rep) == I2
    assert all(det(m) == 1 for m in rep)
    for seed in (0, 1, 2):
        assert euler_number(genus_surface_bundle(rep, seed=seed))[1] == 0
    assert euler_number_oracle(rep) == 0


def test_fuchsian_rep_matches_oracle():
    rep = fuchsian_octagon_rep()
    prod = _commutator_product([tuple(tuple(F(x) for x in row) for row in m)
                                for m in rep])
    defect = max(abs(prod[i][j] - (1 if i == j else 0))
                 for i in range(2) for j in range(2))
    assert defect < F(1, 10 ** 12)
    oracle = euler_number_oracle(rep)
    assert oracle == 1
    for seed in (0, 1, 2):
        b = genus_surface_bundle(rep, seed=seed, tol=TOL)
        assert euler_number(b)[1] == oracle
    # sullivan mode on a section known to be generic for this data
    b = genus_surface_bundle(rep, seed=1, tol=TOL)
    assert euler_number(b, mode="sullivan")[1] == oracle


def test_fuchsian_rep_needs_tolerance():
    with pytest.raises(InputError, match="relator"):
        genus_surface_bundle(fuchsian_octagon_rep())  # tol = 0 is exact


def test_invariance_on_fuchsian():
    s = RationalSampler(40, m=9)
    b = genus_surface_bundle(fuchsian_octagon_rep(), seed=2, tol=TOL)
    hs = [s.glp_matrix(2) for _ in range(b.vertices)]
    assert euler_number(gauge_transform(b, hs))[1] == 1
    sec = [s.nonzero_vector(2) for _ in range(b.vertices)]
    assert euler_number(with_section(b, sec))[1] == 1


def test_input_validation():
    with pytest.raises(InputError):
        genus_surface_bundle([I2] * 3)  # odd count
    with pytest.raises(InputError):
        genus_surface_bundle([])
    with pytest.raises(InputError):
        genus_surface_bundle([identity(3)] * 4)
    neg = ((F(-1), F(0)), (F(0), F(1)))
    with pytest.raises(InputError, match="determinant"):
        genus_surface_bundle([neg] * 4)
    # a free pair that ignores the relator
    s = RationalSampler(6)
    rep = [s.glp_matrix(2) for _ in range(4)]
    with pytest.raises(InputError, match="relator"):
        genus_surface_bundle(rep)
    # floats are read as dyadics in matrices only; other entries and tol
    # follow linalg.fr
    for bad in ("abc", None, True):
        with pytest.raises(InputError, match="not a rational"):
            genus_surface_bundle([((1, 0), (0, bad))] + [I2] * 3)
    with pytest.raises(InputError, match="not a rational"):
        genus_surface_bundle([I2] * 4, tol=1e-9)
    # a float entry must be finite to be read as a dyadic
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError, match="not a rational"):
            genus_surface_bundle([((1.0, 0.0), (0.0, bad))] + [I2] * 3)
    # matrices and rows are read by linalg's sequence rule
    with pytest.raises(InputError, match="matrix must be a sequence"):
        genus_surface_bundle([5] + [I2] * 3)
    with pytest.raises(InputError, match="matrix row must be a sequence"):
        genus_surface_bundle([(5, 5)] + [I2] * 3)


def test_custom_section():
    rep = rational_flat_rep()
    b0 = genus_surface_bundle(rep)
    sec = [(F(1), F(k + 1)) for k in range(b0.vertices)]
    b = genus_surface_bundle(rep, section=sec)
    assert euler_number(b)[1] == 0


def test_uncertifiable_section_on_tolerant_bundle():
    # Plant a section that one chart sees as exactly degenerate while a
    # chart whose transitions were stored from another occurrence of the
    # same classes disagrees at noise level: the library must refuse
    # (InputError family), never return a guess.  Only simplices whose
    # transition triple is exactly incoherent can expose this.
    b = genus_surface_bundle(fuchsian_octagon_rep(), tol=TOL)
    g = b.transitions  # both directions of every pair are stored
    hit = False
    for verts, _c in b.simplices:
        va, vb, vc = verts
        if mat_mul(g[(va, vb)], g[(vb, vc)]) == g[(va, vc)]:
            continue
        sec = list(b.section)
        sec[vc] = mat_vec(mat_inv(g[(va, vc)]), sec[va])
        try:
            euler_number(with_section(b, sec))
        except NonGenericSection as ex:
            assert "certified" in str(ex)
            hit = True
            break
    assert hit, "expected an exactly incoherent simplex to refuse"


FUCHSIAN = fuchsian_octagon_rep()


@pytest.mark.parametrize("rep, digest", [
    ([I2] * 4,
     "28012fc7156a7d5dc81af0ae3db1fa91e171f8dbb3b3c96ea5e03392ce8c9105"),
    (rational_flat_rep(),
     "9c95fe995b10efe5e27671b022413c287a3ef8a64f81e82a5fe16809d73711cd"),
    (FUCHSIAN,
     "73ef18a65d5fd267578a1822c8f9d0f36116768bd5f5bd0c83f4479a0d0740a9"),
    ([I2] * 8,
     "d562b46d2c14506ac8d245c3319d2aaa6b5c4af08885c9878a63a9c6c7cf5d97"),
])
def test_bundle_bytes_pinned(rep, digest):
    # the serialized bundles (every transition, the seeded section and the
    # tolerance of the float holonomy) are pinned byte for byte: the build
    # may be made cheaper, but it may not change a single transition
    tol = TOL if rep is FUCHSIAN else 0
    doc = json.dumps(dump_bundle(genus_surface_bundle(rep, seed=0, tol=tol)))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
