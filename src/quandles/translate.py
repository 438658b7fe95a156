"""Normal forms of closed terms inside the free group.

One translation makes provable equality of terms computable for both
theories.  ``rack_image`` sends a term to a pair ``(head, tail)`` of a letter
and a reduced word: atoms go to ``(atom, e)``; ``s |>^eps t`` goes to
``(head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))``.  The head is
always the leftmost atom of the term.  Two terms are equal in the free rack
exactly when both components agree.  The translation is computed without
recursion, by one of two walks.  ``_compact_images``, the hot path, builds
tails in place as compact words (see ``words``), one integer code per signed
letter over a codebook of the call's own; the deciders compare them as they
are, and ``rack_image`` and ``normal_form`` decode them into tuples of
signed letters.  ``fold`` builds tails in any group given by its operations,
translating each distinct subterm once; the keys past the wall below use it.

The free-quandle normal form is a quotient of the rack one: a term stands
for the conjugate ``tail^-1 head tail``, as in the paper's direct translation
``s |> t -> T^-1 S T``, ``s |>~ t -> T S T^-1``, and every quandle key is that
conjugate, built in the group its tail lives in.  The centraliser of a letter
``h`` in a free group is <h>, so the conjugate fixes the tail up to leading
powers of the head: ``normal_form`` gives the head and the tail less its
leading run of the head, ``quandle_image`` the conjugate as one reduced word.

Normal forms can grow exponentially with the depth of a term: the tail of
``y1 |> (y2 |> (... |> yk))`` has 2^(k-1) - 1 letters.  So ``compact_keys``
gives up on a tail past a cap, and the deciders turn to two other forms of
the same normal forms, both folds.  ``model_keys`` evaluates them in
SL2(F_p), at a bounded cost per node: the model is a homomorphic image of
the free group, so keys that differ there prove the terms unequal, while
keys that agree prove nothing.  ``compressed.compressed_keys`` keeps them
compressed, at a cost polynomial in the size of the terms, and its keys
agree exactly when the normal forms do; "equal" past the cap rests on them.
``rack_image``, ``normal_form`` and ``quandle_image`` always expand.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, TypeVar

from . import words
from .terms import Node, Term
from .words import CompactWord, GroupWord

QUANDLE = "quandle"
RACK = "rack"
THEORIES = (QUANDLE, RACK)

G = TypeVar("G")  # an element of the group that ``fold`` builds tails in


def check_theory(theory: str) -> None:
    """Raise ValueError unless ``theory`` is QUANDLE or RACK."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")


class RackNF(NamedTuple):
    """Rack normal form: a head letter and a reduced group word."""

    head: str
    tail: GroupWord


class TailTooLong(Exception):
    """A capped walk built a tail longer than ``LETTERS_PER_NODE`` letters
    per node it has met."""


# The cap on a tail, in letters per node met, past which a capped walk gives
# up.  With CPython 3.11 on a 2-CPU x86-64 machine, expanding a tail costs
# 4 to 8 ns a letter and the model of ``model_keys`` 2 to 3 us a node, so at
# the cap the two cost about the same, and a decider that switches there
# spends a small multiple of what the cheaper of the two would on "not-equal".
# "Equal" past the cap costs the compressed forms 0.5 to 3 ms a node, up to
# 20 times what expanding would cost just past the cap, but that cost no
# longer doubles with each level of nesting.
LETTERS_PER_NODE = 256


def _compact_images(
    terms: Sequence[Term], capped: bool = False
) -> tuple[dict[str, int], int, list[tuple[str, CompactWord]]]:
    """The rack normal forms of ``terms`` as heads and compact tails.

    A term is a left spine ``((a |>^e1 r1) |>^e2 r2) ... |>^ek rk``: its head
    is the atom ``a`` and its tail the reduced product of the conjugates
    ``w_j^-1 h_j^e_j w_j`` with ``(h_j, w_j)`` the image of ``r_j``.  The tail
    is built bottom-up, cancelling at its end.  An atom ``r_j`` adds the
    single letter ``r_j^e_j``; a composite ``r_j`` suspends the fold on an
    explicit stack until its own image is done.

    All terms share one codebook, which numbers letter names in the order
    they are met; a name's code is its number.  Every head has a code, even
    one that no tail uses, since a quandle key conjugates by it.  Returns the
    codebook, the sign mask of its width and one ``(head, tail)`` per term.
    Codes are one byte while the terms contain at most 128 names: a walk
    that meets a 129th starts again once, with 4-byte codes.  A ``capped``
    walk raises ``TailTooLong`` once a tail outgrows ``LETTERS_PER_NODE``
    letters per node met so far.
    """
    conjugate_onto = words.conjugate_onto
    per_node = LETTERS_PER_NODE if capped else None
    for new, mask, room in words.WIDTHS:
        codes: dict[str, int] = {}
        images = []
        met = 0
        try:
            for t in terms:
                suspended: list[tuple[str, CompactWord, list[Node], int]] = []
                while t is not None:
                    spine: list[Node] = []
                    while isinstance(t, Node):
                        spine.append(t)
                        t = t.left
                    head, tail, k = t.letter, new(), len(spine)
                    met += k
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
                            c = codes[h] = len(codes)
                            if c == room:
                                raise words.CodebookFull
                        if node.sign < 0:
                            c ^= mask
                        if w:
                            conjugate_onto(tail, w, c, mask)
                            if per_node is not None and len(tail) > per_node * met:
                                raise TailTooLong
                        elif tail and tail[-1] == c ^ mask:
                            tail.pop()
                        else:
                            tail.append(c)
                if codes.setdefault(head, len(codes)) == room:  # quandle keys conjugate by it
                    raise words.CodebookFull
                images.append((head, tail))
        except words.CodebookFull:
            continue
        return codes, mask, images
    raise words.CodebookFull


def compact_keys(terms: Sequence[Term], theory: str) -> list[tuple[str, CompactWord]]:
    """Keys of ``terms`` over one codebook: two agree exactly when the terms
    are provably equal in ``theory``.  A key is the head and the tail, for
    quandles the conjugate ``tail^-1 head tail`` (``quandle_image``) instead.
    Cheaper than ``normal_form``, since the words stay compact.  Raises
    ``TailTooLong`` instead of building a tail longer than
    ``LETTERS_PER_NODE`` letters per node."""
    check_theory(theory)
    codes, mask, images = _compact_images(terms, capped=True)
    if theory == RACK:
        return images
    return [(head, words.conjugate_onto(tail[:0], tail, codes[head], mask)) for head, tail in images]


def fold(terms: Sequence[Term], one: G, letter: Callable[[str, int], G],
         product: Callable[[G, G], G], inverse: Callable[[G], G]) -> list[tuple[str, G]]:
    """The rack normal forms ``(head, tail)`` of ``terms``, with each tail an
    element of a group given by its identity ``one``, the image
    ``letter(name, sign)`` of a signed letter, and its ``product`` and
    ``inverse``.

    An atom goes to ``(atom, one)`` and ``s |>^e t`` to ``(head(s), tail(s) *
    tail(t)^-1 * head(t)^e * tail(t))``.  The walk is a loop over an explicit
    stack; it numbers every subterm by ``(sign, left, right)``, so
    structurally equal subterms, within a term or across terms, share one
    image, and no term is hashed.
    """
    numbered: dict[int, int] = {}  # id() of a subterm -> its number
    shared: dict[str | tuple[int, int, int], int] = {}  # letter or (sign, left, right) -> number
    images: list[tuple[str, G]] = []
    out = []
    for t in terms:
        todo: list[Term] = [t]
        while todo:
            u = todo[-1]
            if id(u) in numbered:
                todo.pop()
                continue
            if isinstance(u, Node):
                left, right = numbered.get(id(u.left)), numbered.get(id(u.right))
                if left is None or right is None:
                    if right is None:
                        todo.append(u.right)
                    if left is None:
                        todo.append(u.left)
                    continue
                key = (u.sign, left, right)
            else:
                key = u.letter
            todo.pop()
            number = shared.get(key)
            if number is None:
                number = shared[key] = len(images)
                if isinstance(u, Node):
                    head, tail = images[left]
                    h, w = images[right]
                    c = letter(h, u.sign)
                    if w is not one:  # an atom's tail: conjugating by it is two products for nothing
                        c = product(product(inverse(w), c), w)
                    images.append((head, product(tail, c)))
                else:
                    images.append((key, one))
            numbered[id(u)] = number
        out.append(images[numbered[id(t)]])
    return out


def conjugated_heads(images: Sequence[tuple[str, G]], letter: Callable[[str, int], G],
                     product: Callable[[G, G], G], inverse: Callable[[G], G]) -> list[tuple[str, G]]:
    """The quandle keys of the rack normal forms ``images`` that ``fold``
    built in a group with these operations: each head with the conjugate
    ``tail^-1 head tail``."""
    return [(head, product(inverse(tail), product(letter(head, 1), tail))) for head, tail in images]


# --- a model: the rack normal forms evaluated in SL2(F_p) -------------------

MODEL_PRIME = 2**61 - 1

Matrix = tuple[int, int, int, int]  # [[a, b], [c, d]] as (a, b, c, d)

_IDENTITY: Matrix = (1, 0, 0, 1)


def _product(m: Matrix, n: Matrix) -> Matrix:
    a, b, c, d = m
    e, f, g, h = n
    p = MODEL_PRIME
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def _inverse(m: Matrix) -> Matrix:
    """The inverse of a matrix of determinant 1: its adjugate."""
    a, b, c, d = m
    p = MODEL_PRIME
    return d, -b % p, -c % p, a


def _letter_matrix(i: int) -> Matrix:
    """``A^i B A^-i`` for Sanov's ``A = [[1, 2], [0, 1]]``, ``B = [[1, 0], [2, 1]]``.

    ``A`` and ``B`` generate a free group, in which these conjugates for
    i = 0, 1, 2, ... are free generators.
    """
    p = MODEL_PRIME
    return (1 + 4 * i) % p, -8 * i * i % p, 2, (1 - 4 * i) % p


class _LetterMatrices(dict):
    """Letter name -> its matrix and inverse, numbering names as they are
    first looked up."""

    def __missing__(self, name: str) -> tuple[Matrix, Matrix]:
        m = _letter_matrix(len(self))
        self[name] = pair = (m, _inverse(m))
        return pair


def model_keys(terms: Sequence[Term], theory: str) -> list[tuple[str, Matrix]]:
    """Keys of ``terms`` in a finite model: where two differ, the terms are
    not provably equal in ``theory``.

    Letter names, numbered in the order ``fold`` first asks for them, go to
    the matrices of ``_letter_matrix``, and a rack normal form
    ``(head, tail)`` to ``(head, rho(tail))``, with ``rho`` the homomorphism
    from the free group to SL2(F_p) this defines; the quandle key holds the
    image of the conjugate ``tail^-1 head tail`` instead.  So terms with equal
    normal forms have equal keys, and a node costs a bounded number of 2x2
    products however long its normal form is.
    """
    check_theory(theory)
    letters = _LetterMatrices()
    letter = lambda name, sign: letters[name][sign < 0]
    images = fold(terms, _IDENTITY, letter, _product, _inverse)
    if theory == RACK:
        return images
    return conjugated_heads(images, letter, _product, _inverse)


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
