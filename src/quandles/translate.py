"""Normal forms of closed terms inside the free group.

One translation makes provable equality of terms computable for both
theories.  ``rack_image`` sends a term to a pair ``(head, tail)`` of a letter
and a reduced word: atoms go to ``(atom, e)``; ``s |>^eps t`` goes to
``(head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))``.  The head is
always the leftmost atom of the term.  Two terms are equal in the free rack
exactly when both components agree.

The free-quandle normal form is a quotient of the rack one.  A term stands
for the conjugate ``tail^-1 head tail``, and since the centraliser of a letter
``h`` in a free group is the cyclic group <h>, that conjugate determines the
tail only up to leading powers of the head.  So the quandle form is the head
together with the tail stripped of its leading run of the head; two terms
are equal in the free quandle exactly when these agree.  ``quandle_image``
spells the conjugate out as a single reduced word, matching the paper's
direct translation ``s |> t -> T^-1 S T``, ``s |>~ t -> T S T^-1``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import words
from .terms import Atom, Term
from .words import GroupWord

QUANDLE = "quandle"
RACK = "rack"
THEORIES = (QUANDLE, RACK)


class RackNF(NamedTuple):
    """Rack normal form: a head letter and a reduced group word."""

    head: str
    tail: GroupWord


def rack_image(t: Term) -> RackNF:
    return RackNF(*_rack_pair(t))


def _rack_pair(t: Term) -> tuple[str, GroupWord]:
    # plain pairs inside the recursion: a RackNF per node costs more than the
    # word arithmetic on the short words most terms have
    if isinstance(t, Atom):
        return t.letter, words.EMPTY
    head, s = _rack_pair(t.left)
    h2, w = _rack_pair(t.right)
    return head, words.mul_reduced(s, words.inv(w), words.letter(h2, t.sign), w)


def normal_form(t: Term, theory: str) -> tuple[str, GroupWord]:
    """A key for ``t`` that agrees with another term's exactly when the two
    are provably equal in ``theory``.

    For racks this is ``rack_image``; for quandles the tail loses its leading
    run of the head, so it never starts with ``head^+1`` or ``head^-1``.
    """
    if theory == RACK:
        return rack_image(t)
    if theory != QUANDLE:
        raise ValueError(f"unknown theory {theory!r}")
    head, tail = rack_image(t)
    return head, words.split_leading_run(tail, head)[1]


def quandle_image(t: Term) -> GroupWord:
    """The reduced free-group word ``g^-1 head g`` of the quandle normal form."""
    head, g = normal_form(t, QUANDLE)
    # reduced as it stands: g does not start with head^+1 or head^-1
    return words.inv(g) + words.letter(head) + g


def head_conjugate(t: Term) -> GroupWord:
    """The head of ``rack_image(t)`` conjugated by its tail: tail^-1 head tail.

    For terms whose leftmost atom is the substitution constant this is the
    word that a further substitution plugs in for that constant.  It equals
    ``quandle_image(t)``.
    """
    return quandle_image(t)
