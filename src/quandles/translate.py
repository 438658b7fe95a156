"""Normal forms of closed terms inside the free group.

One translation makes provable equality of terms computable for both
theories.  ``rack_image`` sends a term to a pair ``(head, tail)`` of a letter
and a reduced word: atoms go to ``(atom, e)``; ``s |>^eps t`` goes to
``(head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))``.  The head is
always the leftmost atom of the term.  Two terms are equal in the free rack
exactly when both components agree.  The translation is computed without
recursion, by one node step (``_node_step``) with two drivers.  The step
builds tails in place as compact words (see ``words``), one 4-byte code per
signed letter over a codebook of the call's own.  ``terms.evaluate`` drives
it over built terms (``_compact_images``), and the parser's loop
``terms._build`` over text (``text_keys``), so that no term is built; the
theorem sweeps of ``suites`` also step over the enumeration tables.  The
deciders compare the tails as they are, and ``rack_image`` and
``normal_form`` decode them into tuples of signed letters.

The free-quandle normal form is a quotient of the rack one: a term stands
for the conjugate ``tail^-1 head tail``, as in the paper's direct translation
``s |> t -> T^-1 S T``, ``s |>~ t -> T S T^-1``.  ``quotient`` builds that
key in whatever group a tail lives in.  The centraliser of a letter ``h`` in
a free group is <h>, so the conjugate fixes the tail up to leading powers of
the head: ``normal_form`` gives the head and the tail less its leading run
of the head, ``quandle_image`` the conjugate as one reduced word.

Normal forms can grow exponentially with the depth of a term: the tail of
``y1 |> (y2 |> (... |> yk))`` has 2^(k-1) - 1 letters.  So ``compact_keys``
and ``text_keys`` give up on a tail past a cap (``TailTooLong``), and the
decision goes on without expanding, in ``compressed.equal``.
``rack_image``, ``normal_form`` and ``quandle_image`` always expand.
"""

from __future__ import annotations

from array import array
from typing import Callable, NamedTuple, Sequence, TypeVar

from . import words
from .terms import _TOKEN, Term, _atom, _build, evaluate
from .words import CompactWord, GroupWord

QUANDLE = "quandle"
RACK = "rack"
THEORIES = (QUANDLE, RACK)

G = TypeVar("G")  # an element of a group that tails are built in
S = TypeVar("S")  # what ``_compact_forms`` builds normal forms of: a term, or its tokens


def check_theory(theory: str) -> None:
    """Raise ValueError unless ``theory`` is QUANDLE or RACK."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")


def quotient(images: list[tuple[str, G]], theory: str, letter: Callable[[str, int], G],
             conjugate: Callable[[G, G], G]) -> list[tuple[str, G]]:
    """The keys in ``theory`` of the rack normal forms ``images``, whose
    tails lie in a group with the image ``letter(name, sign)`` of a signed
    letter and the conjugate ``conjugate(w, c)``, ``w^-1 c w``, of a letter's
    image ``c``: the forms themselves, or for quandles each head with the
    conjugate ``tail^-1 head tail``, one ``conjugate`` per key."""
    check_theory(theory)
    if theory == RACK:
        return images
    return [(head, conjugate(tail, letter(head, 1))) for head, tail in images]


class RackNF(NamedTuple):
    """Rack normal form: a head letter and a reduced group word."""

    head: str
    tail: GroupWord


class TailTooLong(Exception):
    """A capped call built a tail longer than ``LETTERS_PER_NODE`` letters
    per node attached so far."""


# The cap on a tail, in letters per node attached so far, past which a
# capped call gives up.  With CPython 3.11 on a 2-CPU x86-64 machine,
# expanding a tail costs 4 to 8 ns a letter and ``compressed.model_keys``
# 2 to 3 us a node, so at the cap the two cost about the same, and a decider
# that switches there spends a small multiple of what the cheaper of the two
# would on "not-equal".
# "Equal" past the cap costs the compressed forms 0.1 to 0.7 ms a node on
# right-nested pairs, up to 40 times what expanding would cost just past the
# cap, but that cost no longer doubles with each level of nesting.
LETTERS_PER_NODE = 256


def _node_step(codes: dict[str, int], per_node: int | None = None) -> Callable:
    """The node step over the codebook ``codes``: the one place where a
    factor joins a compact tail.  For ``s |>^e t`` it attaches the conjugate
    ``w^-1 h^e w`` of the image ``(h, w)`` of ``t`` to the tail of ``s``, in
    place, cancelling at its end: a single letter ``h^e`` when ``w`` is
    empty, else one ``words.conjugate_onto``.  An empty tail of ``s`` is
    never written to, since an atom's is shared; a caller that shares any
    other tail copies it first.

    A letter the codebook lacks gets the next number.  With ``per_node``,
    the step raises ``TailTooLong`` once a tail outgrows ``per_node`` letters
    per node it has attached so far.
    """
    conjugate_onto = words.conjugate_onto
    new = array("i").__copy__  # an empty compact word, in half the time of array("i")
    met = 0

    def node(sign: int, left: tuple[str, CompactWord], right: tuple[str, CompactWord]) -> tuple[str, CompactWord]:
        nonlocal met
        met += 1
        head, tail = left
        h, w = right
        c = codes.get(h)
        if c is None:
            c = codes[h] = len(codes)
        if sign < 0:
            c = ~c
        tail = tail or new()  # not an atom's tail, which is shared
        if w:
            conjugate_onto(tail, w, c)
            if per_node is not None and len(tail) > per_node * met:
                raise TailTooLong
        elif tail and tail[-1] == ~c:
            tail.pop()
        else:
            tail.append(c)
        return head, tail

    return node


def _compact_forms(items: Sequence[S], drive: Callable[[S, Callable, Callable], tuple[str, CompactWord]],
                   atom: Callable[[str], tuple[str, CompactWord]],
                   capped: bool) -> tuple[dict[str, int], list[tuple[str, CompactWord]]]:
    """The rack normal forms of ``items`` as heads and compact tails, each
    built as ``drive(item, atom, node)``: ``terms.evaluate`` over a built
    term, or the parser's loop ``terms._build`` over a token list.  ``atom``
    gives an atom's letter with the empty tail (``_atom_image``), and
    ``node`` is ``_node_step``.

    All items share one codebook, which numbers letter names in the order
    they are met; a name's code is its number.  Every head has a code, even
    one that no tail uses, since a quandle key conjugates by it.  Returns the
    codebook and one ``(head, tail)`` per item.  A ``capped`` call raises
    ``TailTooLong`` once a tail outgrows ``LETTERS_PER_NODE`` letters per
    node attached so far.
    """
    codes: dict[str, int] = {}
    node = _node_step(codes, LETTERS_PER_NODE if capped else None)
    new = array("i").__copy__
    images = []
    for item in items:
        head, tail = drive(item, atom, node)
        codes.setdefault(head, len(codes))  # quandle keys conjugate by it
        images.append((head, tail or new()))  # a quandle key extends a slice of the tail
    return codes, images


def _compact_images(
    terms: Sequence[Term], capped: bool = False
) -> tuple[dict[str, int], list[tuple[str, CompactWord]]]:
    """``_compact_forms`` of built ``terms``, driven by ``terms.evaluate``:
    the codebook and one ``(head, tail)`` per term."""
    return _compact_forms(terms, evaluate, _atom_image, capped)


def compact_keys(terms: Sequence[Term], theory: str) -> list[tuple[str, CompactWord]]:
    """Keys of ``terms`` over one codebook: two agree exactly when the terms
    are provably equal in ``theory``.  A key is the head and the tail, for
    quandles the conjugate ``tail^-1 head tail`` (``quandle_image``) instead.
    Cheaper than ``normal_form``, since the words stay compact.  Raises
    ``TailTooLong`` instead of building a tail longer than
    ``LETTERS_PER_NODE`` letters per node."""
    return _keys(*_compact_images(terms, capped=True), theory)


def _keys(codes: dict[str, int], images: list[tuple[str, CompactWord]],
          theory: str) -> list[tuple[str, CompactWord]]:
    """The ``quotient`` in ``theory`` of rack normal forms built over ``codes``."""
    conjugate_onto = words.conjugate_onto
    return quotient(images, theory, lambda name, sign: codes[name] if sign > 0 else ~codes[name],
                    lambda w, c: conjugate_onto(w[:0], w, c))


def _atom_image(letter: str) -> tuple[str, bytes]:
    """The rack normal form of an atom: its letter and the empty tail, which
    is shared, so it is never written to."""
    return letter, b""


def text_keys(texts: Sequence[str], n: int, allow_aux: bool, theory: str) -> list[tuple[str, CompactWord]]:
    """Keys of the terms ``parse(text, n, allow_aux)`` that agree where
    those of ``compact_keys`` do, built while the texts are parsed, so that
    no term is built: ``_compact_forms`` with the parser's loop
    (``terms._build``) as its driver.  Text that ``parse`` rejects raises
    the parser's own error, unlocated, and a tail longer than
    ``LETTERS_PER_NODE`` letters per node attached so far ``TailTooLong``.
    """
    tokens = [_TOKEN.findall(text) for text in texts]
    return _keys(*_compact_forms(tokens, _build, _atom(n, allow_aux, _atom_image), True), theory)


def rack_image(t: Term) -> RackNF:
    """The rack normal form of ``t``: its head letter and reduced tail."""
    codes, ((head, tail),) = _compact_images((t,))
    return RackNF(head, words.decode(tail, codes))


def normal_form(t: Term, theory: str) -> tuple[str, GroupWord]:
    """A key for ``t`` that agrees with another term's exactly when the two
    are provably equal in ``theory``.

    For racks this is ``rack_image``; for quandles the tail loses its leading
    run of the head, so it never starts with ``head^+1`` or ``head^-1``.
    """
    if theory == RACK:
        return rack_image(t)
    check_theory(theory)
    head, tail = rack_image(t)
    return head, words.split_leading_run(tail, head)[1]


def quandle_image(t: Term) -> GroupWord:
    """The reduced free-group word ``g^-1 head g`` of the quandle normal form."""
    head, g = normal_form(t, QUANDLE)
    # reduced as it stands: g does not start with head^+1 or head^-1
    return words.inv(g) + words.letter(head) + g


# kept for `bench/tracing.py` `WRAPPED`; delete when the tracer reads counters (ROADMAP item 2)
def head_conjugate(t: Term) -> GroupWord:
    return quandle_image(t)
