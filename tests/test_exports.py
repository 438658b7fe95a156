"""Every exported name resolves, so a deleted function cannot leave a dead
entry in an ``__all__`` behind."""

import importlib

import pytest


def test_star_import_runs():
    namespace: dict = {}
    exec("from quandles import *", namespace)
    assert "term_equal" in namespace


@pytest.mark.parametrize("module", ["quandles", "quandles.decide"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
