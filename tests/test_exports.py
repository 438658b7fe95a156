"""Every exported name resolves, so a deleted function cannot leave a dead
entry in an ``__all__`` behind, and the package exports one function per job.
The names that ``quandles`` serves on first use are the objects of their
defining modules."""

import importlib

import pytest

import quandles


def test_star_import_runs():
    namespace: dict = {}
    exec("from quandles import *", namespace)
    assert set(quandles.__all__) <= set(namespace)


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


# the modules whose exported names quandles re-exports
DEFINING = ("decide", "isotropy", "rewrite", "suites", "terms", "translate")


def test_each_exported_name_is_its_defining_modules_object():
    modules = [importlib.import_module(f"quandles.{name}") for name in DEFINING]
    for name in quandles.__all__:
        if name == "__version__":
            continue
        homes = [module for module in modules if name in vars(module)]
        assert homes, name
        assert all(getattr(quandles, name) is vars(module)[name] for module in homes), name
    assert quandles.canon is modules[DEFINING.index("isotropy")].canon


def test_dir_lists_every_exported_name():
    assert set(quandles.__all__) <= set(dir(quandles))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quandles.no_such_name
    assert not hasattr(quandles, "quandle_equal")
