"""Computations in free racks and quandles.

Parsing and printing of closed terms, free-group word arithmetic, the
translations that solve both word problems, classification of the
substitution-invertible term classes (with their group structure and action),
decision of inner endomorphisms, and brute-force verification suites.
Each job has one public function: where the job differs by theory, the
function takes ``theory`` (``QUANDLE`` or ``RACK``) or reads it off its
elements.
"""

from .decide import QUANDLE, RACK, term_equal
from .isotropy import (
    ArityMismatchError,
    QuandleElem,
    RackElem,
    apply_hom,
    apply_inner,
    canon,
    commutes_generically,
    elem_from_json,
    elem_to_json,
    elem_to_term,
    inner_witness,
    invert,
    mul,
    quandle_embed,
    rack_embed,
)
from .rewrite import cross_validate, rewrite_closure, rewrite_neighbors
from .suites import SUITE_NAMES, run_suite
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

__version__ = "0.1.0"

__all__ = [
    "QUANDLE",
    "RACK",
    "Atom",
    "Node",
    "Term",
    "TermSyntaxError",
    "UnknownGeneratorError",
    "ArityMismatchError",
    "QuandleElem",
    "RackElem",
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
    "commutes_generically",
    "canon",
    "mul",
    "invert",
    "quandle_embed",
    "rack_embed",
    "elem_to_term",
    "elem_to_json",
    "elem_from_json",
    "apply_inner",
    "apply_hom",
    "inner_witness",
    "rewrite_neighbors",
    "rewrite_closure",
    "cross_validate",
    "run_suite",
    "SUITE_NAMES",
    "__version__",
]
