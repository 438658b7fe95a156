"""Normal forms of closed terms inside the free group.

One translation makes provable equality of terms computable for both
theories.  ``rack_image`` sends a term to a pair ``(head, tail)`` of a letter
and a reduced word: atoms go to ``(atom, e)``; ``s |>^eps t`` goes to
``(head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))``.  The head is
always the leftmost atom of the term.  Two terms are equal in the free rack
exactly when both components agree.  The translation is computed without
recursion: it walks each left spine down to its head atom and folds the
spine's right children into the tail bottom-up, keeping the spines that
wait for a composite right child on an explicit stack.

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
from .terms import Node, Term
from .words import GroupWord, SignedLetter

QUANDLE = "quandle"
RACK = "rack"
THEORIES = (QUANDLE, RACK)


def check_theory(theory: str) -> None:
    """Raise ValueError unless ``theory`` is QUANDLE or RACK."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")


class RackNF(NamedTuple):
    """Rack normal form: a head letter and a reduced group word."""

    head: str
    tail: GroupWord


def rack_image(t: Term) -> RackNF:
    """The rack normal form of ``t``, folded along left spines.

    A term is a left spine ``((a |>^e1 r1) |>^e2 r2) ... |>^ek rk``: its head
    is the atom ``a`` and its tail the reduced product of the conjugates
    ``w_j^-1 h_j^e_j w_j`` with ``(h_j, w_j)`` the image of ``r_j``.  The tail
    is built bottom-up in a list, cancelling at its end.  An atom ``r_j``
    adds the single letter ``r_j^e_j``; a composite ``r_j`` suspends the fold
    on an explicit stack until its own image is done.
    """
    inverse = words.INVERSE
    suspended: list[tuple[str, list[SignedLetter], list[Node], int]] = []
    while True:
        spine: list[Node] = []
        while isinstance(t, Node):
            spine.append(t)
            t = t.left
        head, tail, k = t.letter, [], len(spine)
        while True:
            if k:
                k -= 1
                node = spine[k]
                t = node.right
                if isinstance(t, Node):
                    suspended.append((head, tail, spine, k))
                    break
                h, w = t.letter, words.EMPTY
            elif suspended:
                h, w = head, tail
                head, tail, spine, k = suspended.pop()
                node = spine[k]
                # tail * w^-1: the end of tail may cancel against the end of w
                j = len(w)
                while j and tail and tail[-1] == w[j - 1]:
                    tail.pop()
                    j -= 1
                tail.extend(map(inverse.__getitem__, reversed(w[:j] if j < len(w) else w)))
            else:
                return RackNF(head, tuple(tail))
            # tail * h^e * w, with h^e as the table's shared signed letter
            signed = inverse[inverse[h, node.sign]]
            if tail and tail[-1] == inverse[signed]:
                tail.pop()
            else:
                tail.append(signed)
            if w:
                words.extend_reduced(tail, w)


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
