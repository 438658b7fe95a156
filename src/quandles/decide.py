"""Decision procedures for provable equality of closed terms.

One decider, ``term_equal(s, t, theory)``, serves both theories by comparing
normal forms: equality in the free rack holds exactly when the rack normal
forms ``(head, tail)`` agree, equality in the free quandle exactly when the
conjugates ``tail^-1 head tail`` do.  The keys are first compared as
compact words (``translate.compact_keys``), built for both terms over one
codebook and never decoded.  A normal form can be exponentially longer than
its term, so the compact keys give up once a tail outgrows a cap on its
length per node; past it, ``compressed.equal`` decides without expanding.
The decider is total over any alphabet, including the auxiliary constants.
``equal_to(t, terms, theory)`` decides ``t`` against many terms at once, with
the keys of all of them built in one pass over one codebook, so that ``t`` is
translated once; where that pass meets the cap, it asks ``term_equal`` pair
by pair.

``text_equal`` decides a pair of term texts.  It builds the compact keys
while parsing (``translate.text_keys``).  Where that pass meets a malformed
text or an unknown generator, it parses the texts and asks ``term_equal``;
past the cap, it parses them and goes straight to ``compressed.equal``.
"""

from __future__ import annotations

from typing import Iterable

from .terms import Term, UnknownGeneratorError, _Malformed, parse
from .translate import QUANDLE, RACK, THEORIES, TailTooLong, compact_keys, text_keys

__all__ = ["QUANDLE", "RACK", "THEORIES", "equal_to", "term_equal", "text_equal"]


def term_equal(s: Term, t: Term, theory: str) -> bool:
    """Whether ``s`` and ``t`` are provably equal in the free ``theory``."""
    try:
        key_s, key_t = compact_keys((s, t), theory)
    except TailTooLong:
        return _past_the_cap(s, t, theory)
    return key_s == key_t


def equal_to(t: Term, terms: Iterable[Term], theory: str) -> list[bool]:
    """``[term_equal(t, u, theory) for u in terms]``, from the keys of ``t``
    and of all of ``terms`` built in one ``compact_keys`` pass over one
    codebook.  The cap of that pass counts the nodes of every term in it;
    where a tail outgrows it, each pair is decided by ``term_equal``, so the
    answers are those of ``term_equal`` in every case."""
    terms = list(terms)
    try:
        key, *keys = compact_keys((t, *terms), theory)
    except TailTooLong:
        return [term_equal(t, u, theory) for u in terms]
    return [k == key for k in keys]


def text_equal(s: str, t: str, n: int, theory: str, allow_aux: bool = True) -> bool:
    """``term_equal(parse(s, n, allow_aux), parse(t, n, allow_aux), theory)``,
    decided in one pass over each text where it can be
    (``translate.text_keys``).  Wherever that pass gives up, on a malformed
    text, an unknown generator or a long tail, the texts are parsed, so the
    answer and every error are those of ``parse`` and ``term_equal``."""
    try:
        key_s, key_t = text_keys((s, t), n, allow_aux, theory)
    except (_Malformed, UnknownGeneratorError):
        return term_equal(parse(s, n, allow_aux), parse(t, n, allow_aux), theory)
    except TailTooLong:
        return _past_the_cap(parse(s, n, allow_aux), parse(t, n, allow_aux), theory)
    return key_s == key_t


def _past_the_cap(s: Term, t: Term, theory: str) -> bool:
    """``compressed.equal``, imported here, as few calls get this far: a
    start without a bytecode cache compiles every module it imports, that
    one in about 5 ms (CPython 3.11, 2-CPU x86-64)."""
    from .compressed import equal

    return equal(s, t, theory)


# kept for `bench/tracing.py` `WRAPPED`; delete when the tracer reads counters (ROADMAP item 2)
def quandle_equal(s: Term, t: Term) -> bool:
    return term_equal(s, t, QUANDLE)


def rack_equal(s: Term, t: Term) -> bool:
    return term_equal(s, t, RACK)
