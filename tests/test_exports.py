"""Every exported name resolves, so a deleted function cannot leave a dead
entry in an ``__all__`` behind, and the package exports one function per job."""

import importlib

import pytest

import quandles


def test_star_import_runs():
    namespace: dict = {}
    exec("from quandles import *", namespace)
    assert "term_equal" in namespace


@pytest.mark.parametrize("module", ["quandles", "quandles.decide"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# the quandle/rack twins of the keyed functions, and a second name for quandle_image
TWINS = (
    "quandle_equal", "rack_equal", "quandle_canon", "rack_canon", "quandle_mul", "rack_mul",
    "quandle_invert", "rack_invert", "quandle_inner_witness", "rack_inner_witness", "head_conjugate",
)


def test_one_public_function_per_job():
    assert not set(TWINS) & set(quandles.__all__)
    assert {"term_equal", "canon", "mul", "invert", "inner_witness"} <= set(quandles.__all__)
    assert len(quandles.__all__) == len(set(quandles.__all__))
