"""Free-group words over the term alphabet.

A word is a tuple of ``(letter, exponent)`` pairs with exponent +1 or -1;
runs are not compressed.  The empty tuple is the identity.  A word is reduced
when no adjacent pair is mutually inverse; every word has a unique reduced
form, so equality in the free group is structural equality after ``reduce``.

Signed letters built here (``letter``, ``inv``) are shared objects, one per
signed letter of the alphabet, so a word costs one pointer per letter.

Normal forms are built as compact words instead (see the section below):
one fixed-width integer code per signed letter, in a ``bytearray`` or an
``array``.
"""

from __future__ import annotations

from array import array
from functools import partial
from operator import invert, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, MutableSequence

from .terms import gen, gen_index, is_gen, letter_key

SignedLetter = tuple[str, int]
GroupWord = tuple[SignedLetter, ...]
CompactWord = MutableSequence[int]  # a bytearray or an array, see below

EMPTY: GroupWord = ()


class _InverseTable(dict):
    """Signed letter -> its inverse, filled on first use.

    Each signed letter is stored once, as a shared tuple, so the table grows
    with the alphabet and inverting a word allocates no letters.  Two threads
    filling the same entry at once store equal tuples, so lookups stay right.
    """

    def __missing__(self, signed: SignedLetter) -> SignedLetter:
        name, exponent = signed
        if exponent not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {exponent}")
        pos, neg = (name, 1), (name, -1)
        self[pos], self[neg] = neg, pos
        return self[signed]


INVERSE = _InverseTable()


def letter(name: str, exponent: int = 1) -> GroupWord:
    # the inverse of the inverse is the table's shared tuple
    return (INVERSE[INVERSE[name, exponent]],)


def run(name: str, k: int) -> GroupWord:
    """The word letter^k, spelled out as |k| signed letters."""
    e = 1 if k > 0 else -1
    return tuple((name, e) for _ in range(abs(k)))


def reduce(word: Iterable[SignedLetter]) -> GroupWord:
    """The unique reduced word congruent to ``word`` (single stack pass)."""
    out: list[SignedLetter] = []
    for l, e in word:
        if out and out[-1][0] == l and out[-1][1] == -e:
            out.pop()
        else:
            out.append((l, e))
    return tuple(out)


def is_reduced(word: GroupWord) -> bool:
    return all(
        not (word[i][0] == word[i + 1][0] and word[i][1] == -word[i + 1][1])
        for i in range(len(word) - 1)
    )


def mul(*parts: Iterable[SignedLetter]) -> GroupWord:
    """Reduced concatenation of any number of words."""
    flat: list[SignedLetter] = []
    for part in parts:
        flat.extend(part)
    return reduce(flat)


def inv(word: GroupWord) -> GroupWord:
    """The inverse word, letter by letter; reduced whenever ``word`` is."""
    return tuple(map(INVERSE.__getitem__, reversed(word))) if word else word


def subst(word: GroupWord, value: GroupWord, target: str) -> GroupWord:
    """Replace target^+1 by ``value`` and target^-1 by its inverse; reduce."""
    value_inv = inv(value)
    out: list[SignedLetter] = []
    for l, e in word:
        if l == target:
            out.extend(value if e == 1 else value_inv)
        else:
            out.append((l, e))
    return reduce(out)


def split_leading_run(word: GroupWord, target: str) -> tuple[int, GroupWord]:
    """Split off the maximal leading ``target``-power: word = target^z * rest.

    ``word`` must be reduced: then the leading run has a single sign, so its
    length and that sign give ``z``.
    """
    i = 0
    while i < len(word) and word[i][0] == target:
        i += 1
    if not i:
        return 0, word
    return word[0][1] * i, word[i:]


def enumerate_reduced(letters: Iterable[str], max_len: int) -> Iterator[GroupWord]:
    """All reduced words over ``letters`` of length <= max_len, shortlex order."""
    base = sorted(set(letters), key=letter_key)
    signed = [(l, e) for l in base for e in (1, -1)]
    level: list[GroupWord] = [EMPTY]
    yield EMPTY
    for _ in range(max_len):
        nxt: list[GroupWord] = []
        for w in level:
            for l, e in signed:
                if w and w[-1][0] == l and w[-1][1] == -e:
                    continue
                nxt.append(w + ((l, e),))
        yield from nxt
        level = nxt


# ---------------------------------------------------------------------------
# Compact words.  A codebook numbers the letter names that one computation
# meets, and a signed letter is then one integer: name number ``i`` with
# exponent +1 is ``i`` itself, and with exponent -1 it is ``i ^ mask``.  Up to
# 128 names a letter is one byte, with the sign in bit 7, and a word is a
# ``bytearray``; beyond, a letter is a signed 4-byte integer, ``~i`` for the
# inverse, and a word is an ``array("i")``.  At both widths ``code ^ mask``
# inverts a letter.
# ---------------------------------------------------------------------------

FLIP = bytes(b ^ 0x80 for b in range(256))

# For letters of 1 and 4 bytes: the constructor of an empty word, the mask
# that flips a code to its inverse, and how many names the codes number.
WIDTHS: tuple[tuple[Callable[[], CompactWord], int, int], ...] = (
    (bytearray, 0x80, 1 << 7),
    (partial(array, "i"), -1, 1 << 31),
)


class CodebookFull(Exception):
    """More letter names than a code width numbers."""


def conjugate_onto(tail: CompactWord, w: CompactWord, c: int, mask: int) -> CompactWord:
    """Replace ``tail`` by the reduced product ``tail * w^-1 * c * w``, and
    return it.

    ``tail`` and ``w`` are reduced compact words of one width and ``c`` a
    letter code.  Letters cancel only at the seams, which are scanned one
    integer at a time as far as they cancel; the rest is copied in bulk.
    """
    # tail * w^-1: the end of tail may cancel against the end of w
    j = len(w)
    while j and tail and tail[-1] == w[j - 1]:
        tail.pop()
        j -= 1
    if j:
        if type(tail) is bytearray:
            tail += w[j - 1::-1].translate(FLIP)
        else:
            tail += array("i", map(invert, w[j - 1::-1]))
    if tail and tail[-1] == c ^ mask:
        tail.pop()
    else:
        tail.append(c)
    # * w: the start of w may cancel against the end of tail
    i, n = 0, len(w)
    while i < n and tail and tail[-1] == w[i] ^ mask:
        tail.pop()
        i += 1
    tail += w[i:] if i else w
    return tail


def decode(word: CompactWord, codes: Mapping[str, int], mask: int) -> GroupWord:
    """The compact ``word`` as a tuple of shared signed letters.

    ``codes`` is the codebook the word was built with, name -> code of the
    name with exponent +1.
    """
    if not word:
        return EMPTY
    table: dict[int, SignedLetter] = {}
    for name, code in codes.items():
        table[code] = pos = INVERSE[name, -1]
        table[code ^ mask] = INVERSE[pos]
    if len(word) == 1:  # itemgetter of one item returns the item itself
        return (table[word[0]],)
    return itemgetter(*word)(table)


# ---------------------------------------------------------------------------
# Concrete syntax, written only: space-separated tokens "y1", "y1^-1", "x",
# "x^-1"; the empty word is spelled "e".  JSON form: [[letter, exponent], ...],
# written for any word and read back for generator words only.
# ---------------------------------------------------------------------------

def render(word: GroupWord) -> str:
    if not word:
        return "e"
    return " ".join(l if e == 1 else f"{l}^-1" for l, e in word)


def to_json(word: GroupWord) -> list[list]:
    return [[l, e] for l, e in word]


def from_json(data: object) -> GroupWord:
    """Read a JSON word whose letters are generators only."""
    if not isinstance(data, list):
        raise ValueError("word must be a JSON array of [letter, exponent] pairs")
    names: dict[str, str] = {}  # spelling -> letter, each checked once
    out: list[SignedLetter] = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"bad word entry {entry!r}")
        l, e = entry
        if not isinstance(l, str) or type(e) is not int or e not in (1, -1):
            raise ValueError(f"bad word entry {entry!r}")
        name = names.get(l)
        if name is None:
            if not is_gen(l):
                raise ValueError(f"expected a generator letter, got {l!r}")
            name = names[l] = gen(gen_index(l))  # as the term parser reads it: y01 is y1, y0 is rejected
        out.append((name, e))
    return tuple(out)
