"""Decision procedures for provable equality of closed terms.

The deciders compare the keys of ``translate.normal_form``: equality in the
free rack holds exactly when the rack normal forms agree, equality in the
free quandle exactly when their quandle quotients do.  The keys are compared
as compact words (``translate.compact_keys``), built for both terms over one
codebook and never decoded.

A normal form can be exponentially longer than its term.  So the keys are
first built under a cap on their length per node; past it, the terms are
compared in a finite model (``translate.model_keys``), where keys that
differ prove the terms unequal.  Only when the model keys agree are the full
normal forms built and compared, so "equal" always rests on them.  The
deciders are total over any alphabet, including the auxiliary constants.
"""

from __future__ import annotations

from .terms import Term
from .translate import QUANDLE, RACK, THEORIES, TailTooLong, compact_keys, model_keys

__all__ = ["QUANDLE", "RACK", "THEORIES", "quandle_equal", "rack_equal", "term_equal"]


def _equal(s: Term, t: Term, theory: str) -> bool:
    try:
        key_s, key_t = compact_keys((s, t), theory, capped=True)
    except TailTooLong:
        key_s, key_t = model_keys((s, t), theory)
        if key_s != key_t:
            return False
        key_s, key_t = compact_keys((s, t), theory)
    return key_s == key_t


def quandle_equal(s: Term, t: Term) -> bool:
    return _equal(s, t, QUANDLE)


def rack_equal(s: Term, t: Term) -> bool:
    return _equal(s, t, RACK)


def term_equal(s: Term, t: Term, theory: str) -> bool:
    return _equal(s, t, theory)
