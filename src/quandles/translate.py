"""Normal forms of closed terms inside the free group.

One translation makes provable equality of terms computable for both
theories.  ``rack_image`` sends a term to a pair ``(head, tail)`` of a letter
and a reduced word: atoms go to ``(atom, e)``; ``s |>^eps t`` goes to
``(head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))``.  The head is
always the leftmost atom of the term.  Two terms are equal in the free rack
exactly when both components agree.  The translation is computed without
recursion: it walks each left spine down to its head atom and folds the
spine's right children into the tail bottom-up, keeping the spines that
wait for a composite right child on an explicit stack.  Tails are built as
compact words (see ``words``), one integer code per signed letter over a
codebook of the call's own; the deciders compare them as they are, and
``rack_image`` and ``normal_form`` decode them into tuples of signed letters.

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

from typing import NamedTuple, Sequence

from . import words
from .terms import Node, Term
from .words import CompactWord, GroupWord

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


def _compact_images(terms: Sequence[Term]) -> tuple[dict[str, int], int, list[tuple[str, CompactWord]]]:
    """The rack normal forms of ``terms`` as heads and compact tails.

    A term is a left spine ``((a |>^e1 r1) |>^e2 r2) ... |>^ek rk``: its head
    is the atom ``a`` and its tail the reduced product of the conjugates
    ``w_j^-1 h_j^e_j w_j`` with ``(h_j, w_j)`` the image of ``r_j``.  The tail
    is built bottom-up, cancelling at its end.  An atom ``r_j`` adds the
    single letter ``r_j^e_j``; a composite ``r_j`` suspends the fold on an
    explicit stack until its own image is done.

    All terms share one codebook, which numbers letter names in the order
    they are met.  Returns it, the sign mask of its width and one
    ``(head, tail)`` per term.  The width is the narrowest whose codes
    number every name the terms contain: a walk that meets one name too
    many starts again at the next width.
    """
    conjugate_onto = words.conjugate_onto
    for new, mask, room in words.WIDTHS:
        codes: dict[str, int] = {}
        images = []
        try:
            for t in terms:
                suspended: list[tuple[str, CompactWord, list[Node], int]] = []
                while t is not None:
                    spine: list[Node] = []
                    while isinstance(t, Node):
                        spine.append(t)
                        t = t.left
                    head, tail, k = t.letter, new(), len(spine)
                    while True:
                        if k:
                            k -= 1
                            node = spine[k]
                            t = node.right
                            if isinstance(t, Node):
                                suspended.append((head, tail, spine, k))
                                break
                            h, w = t.letter, None
                        elif suspended:
                            h, w = head, tail
                            head, tail, spine, k = suspended.pop()
                            node = spine[k]
                        else:
                            t = None
                            break
                        if h in codes:
                            c = codes[h]
                        else:
                            c = len(codes)
                            if c == room:
                                raise words.CodebookFull
                            # below 128 an index is its own code
                            c = codes[h] = c if c < 128 else words.letter_code(c)
                        if node.sign < 0:
                            c ^= mask
                        if w:
                            conjugate_onto(tail, w, c, mask)
                        elif tail and tail[-1] == c ^ mask:
                            tail.pop()
                        else:
                            tail.append(c)
                images.append((head, tail))
        except words.CodebookFull:
            continue
        return codes, mask, images
    raise words.CodebookFull


def _without_head_run(tail: CompactWord, code: int | None, mask: int) -> CompactWord:
    """``tail`` less its leading run of the head, whose code is ``code``.

    ``tail`` is reduced, so the run has a single sign.
    """
    if code is None or not tail or (tail[0] != code and tail[0] != code ^ mask):
        return tail
    first, i, n = tail[0], 1, len(tail)
    while i < n and tail[i] == first:
        i += 1
    return tail[i:]


def compact_keys(terms: Sequence[Term], theory: str) -> list[tuple[str, CompactWord]]:
    """Keys of ``terms`` over one codebook: two agree exactly when the terms
    are provably equal in ``theory``.  Cheaper than ``normal_form``, since
    the tails stay compact."""
    check_theory(theory)
    codes, mask, images = _compact_images(terms)
    if theory == RACK:
        return images
    return [(head, _without_head_run(tail, codes.get(head), mask)) for head, tail in images]


def rack_image(t: Term) -> RackNF:
    """The rack normal form of ``t``: its head letter and reduced tail."""
    codes, mask, ((head, tail),) = _compact_images((t,))
    return RackNF(head, words.decode(tail, codes, mask))


def normal_form(t: Term, theory: str) -> tuple[str, GroupWord]:
    """A key for ``t`` that agrees with another term's exactly when the two
    are provably equal in ``theory``.

    For racks this is ``rack_image``; for quandles the tail loses its leading
    run of the head, so it never starts with ``head^+1`` or ``head^-1``.
    """
    if theory == RACK:
        return rack_image(t)
    check_theory(theory)
    codes, mask, ((head, tail),) = _compact_images((t,))
    return head, words.decode(_without_head_run(tail, codes.get(head), mask), codes, mask)


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
