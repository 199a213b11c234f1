"""Seeded samplers: singular draws are redrawn, real errors surface."""

import pytest

from eulerflags import randgen
from eulerflags.linalg import InputError, sig
from eulerflags.randgen import RationalSampler


def test_gl_matrix_redraws_singular(monkeypatch):
    calls = []

    def flaky_sig(g):
        calls.append(g)
        if len(calls) < 3:
            raise InputError("sig is undefined on singular matrices")
        return sig(g)

    monkeypatch.setattr(randgen, "sig", flaky_sig)
    g = RationalSampler(1).gl_matrix(2)
    assert len(calls) == 3 and g == calls[-1]


def test_gl_matrix_propagates_other_errors(monkeypatch):
    def broken_sig(g):
        raise ZeroDivisionError("a bug, not a singular draw")

    monkeypatch.setattr(randgen, "sig", broken_sig)
    with pytest.raises(ZeroDivisionError):
        RationalSampler(1).gl_matrix(2)
