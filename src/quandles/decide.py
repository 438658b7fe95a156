"""Decision procedures for provable equality of closed terms.

Both deciders compare the keys of ``translate.normal_form``: equality in the
free rack holds exactly when the rack normal forms agree, equality in the
free quandle exactly when their quandle quotients do.  Both deciders are
total over any alphabet, including the auxiliary constants.
"""

from __future__ import annotations

from .terms import Term
from .translate import QUANDLE, RACK, THEORIES, normal_form

__all__ = ["QUANDLE", "RACK", "THEORIES", "quandle_equal", "rack_equal", "term_equal"]


def quandle_equal(s: Term, t: Term) -> bool:
    return normal_form(s, QUANDLE) == normal_form(t, QUANDLE)


def rack_equal(s: Term, t: Term) -> bool:
    return normal_form(s, RACK) == normal_form(t, RACK)


def term_equal(s: Term, t: Term, theory: str) -> bool:
    return normal_form(s, theory) == normal_form(t, theory)
