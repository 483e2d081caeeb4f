"""Tests for the public surface: every name listed in an __all__ exists."""

import pkgutil

import pytest

import ballprolate

MODULES = ["ballprolate"] + [
    f"ballprolate.{info.name}" for info in pkgutil.iter_modules(ballprolate.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert len(namespace) > 1
