"""Decision procedures for provable equality of closed terms.

One decider, ``term_equal(s, t, theory)``, serves both theories by comparing
normal forms: equality in the free rack holds exactly when the rack normal
forms ``(head, tail)`` agree, equality in the free quandle exactly when the
conjugates ``tail^-1 head tail`` do.  The keys are first compared as
compact words (``translate.compact_keys``), built for both terms over one
codebook and never decoded.

A normal form can be exponentially longer than its term, so the compact
keys give up once a tail outgrows a cap on its length per node.  Past it,
the terms are compared in a finite model (``translate.model_keys``), a fast
filter: keys that differ there prove the terms unequal.  When the model keys
agree, the normal forms are compared compressed (``compressed.compressed_keys``),
at a cost polynomial in the size of the terms, so "equal" always rests on the
normal forms themselves.  Both are one fold (``translate.fold``) over two
groups, which translates each distinct subterm of the pair once.  The
decider is total over any alphabet, including the auxiliary constants.
"""

from __future__ import annotations

from .terms import Term
from .translate import QUANDLE, RACK, THEORIES, TailTooLong, compact_keys, model_keys

__all__ = ["QUANDLE", "RACK", "THEORIES", "term_equal"]


def term_equal(s: Term, t: Term, theory: str) -> bool:
    """Whether ``s`` and ``t`` are provably equal in the free ``theory``."""
    try:
        key_s, key_t = compact_keys((s, t), theory)
    except TailTooLong:
        key_s, key_t = model_keys((s, t), theory)
        if key_s != key_t:
            return False
        # imported here, as few calls get this far: a start without a bytecode
        # cache compiles every module it imports, this one in about 6 ms
        # (CPython 3.11, 2-CPU x86-64)
        from .compressed import compressed_keys

        key_s, key_t = compressed_keys((s, t), theory)
    return key_s == key_t


# kept for `bench/tracing.py` `WRAPPED`; delete when the tracer reads counters (ROADMAP item 2)
def quandle_equal(s: Term, t: Term) -> bool:
    return term_equal(s, t, QUANDLE)


def rack_equal(s: Term, t: Term) -> bool:
    return term_equal(s, t, RACK)
