"""Decision procedures for provable equality of closed terms.

Both deciders compare the keys of ``translate.normal_form``: equality in the
free rack holds exactly when the rack normal forms agree, equality in the
free quandle exactly when their quandle quotients do.  The keys are compared
as compact words (``translate.compact_keys``), built for both terms over one
codebook and never decoded.  Both deciders are total over any alphabet,
including the auxiliary constants.
"""

from __future__ import annotations

from .terms import Term
from .translate import QUANDLE, RACK, THEORIES, compact_keys

__all__ = ["QUANDLE", "RACK", "THEORIES", "quandle_equal", "rack_equal", "term_equal"]


def quandle_equal(s: Term, t: Term) -> bool:
    key_s, key_t = compact_keys((s, t), QUANDLE)
    return key_s == key_t


def rack_equal(s: Term, t: Term) -> bool:
    key_s, key_t = compact_keys((s, t), RACK)
    return key_s == key_t


def term_equal(s: Term, t: Term, theory: str) -> bool:
    key_s, key_t = compact_keys((s, t), theory)
    return key_s == key_t
