"""Every eulerflags module's doctests, the package's own included."""

import doctest
import importlib
import pkgutil

import pytest

import eulerflags

MODULES = ["eulerflags"] + sorted(
    f"eulerflags.{m.name}" for m in pkgutil.iter_modules(eulerflags.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    res = doctest.testmod(importlib.import_module(name))
    assert res.failed == 0
    if name == "eulerflags.linalg":
        assert res.attempted >= 8
