"""Computations in free racks and quandles.

Parsing and printing of closed terms, free-group word arithmetic, the
translations that solve both word problems, classification of the
substitution-invertible term classes (with their group structure and action),
decision of inner endomorphisms, and brute-force verification suites.
Importing the package loads ``terms``, ``words``, ``translate`` and
``decide``, all that deciding equality needs; the names it exports from
``isotropy``, ``rewrite`` and ``suites`` load their module on first use.
Each job has one public function: where the job differs by theory, the
function takes ``theory`` (``QUANDLE`` or ``RACK``) or reads it off its
elements.
"""

from .decide import QUANDLE, RACK, term_equal
from .terms import (
    Atom,
    Node,
    Term,
    TermSyntaxError,
    UnknownGeneratorError,
    enumerate_terms,
    gen,
    left_of,
    parse,
    render,
    subst,
    subst_many,
)
from .translate import RackNF, quandle_image, rack_image

# the exported names of the modules that load on first use, by module
_LAZY = {
    "isotropy": (
        "ArityMismatchError",
        "QuandleElem",
        "RackElem",
        "apply_hom",
        "apply_inner",
        "canon",
        "commutes_generically",
        "elem_from_json",
        "elem_to_json",
        "elem_to_term",
        "inner_witness",
        "invert",
        "mul",
        "quandle_embed",
        "rack_embed",
    ),
    "rewrite": ("cross_validate", "rewrite_closure", "rewrite_neighbors"),
    "suites": ("SUITE_NAMES", "run_suite"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "QUANDLE",
    "RACK",
    "Atom",
    "Node",
    "Term",
    "TermSyntaxError",
    "UnknownGeneratorError",
    "RackNF",
    "parse",
    "render",
    "subst",
    "subst_many",
    "left_of",
    "gen",
    "enumerate_terms",
    "quandle_image",
    "rack_image",
    "term_equal",
    *_HOME,
    "__version__",
]


def __getattr__(name: str):
    """An exported name of ``isotropy``, ``rewrite`` or ``suites``, looked up
    in its module on every access and not kept here, so that a name the
    module rebinds later is read anew."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
