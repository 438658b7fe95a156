"""Free-group words over the term alphabet.

A word is a tuple of ``(letter, exponent)`` pairs with exponent +1 or -1;
runs are not compressed.  The empty tuple is the identity.  A word is reduced
when no adjacent pair is mutually inverse; every word has a unique reduced
form, so equality in the free group is structural equality after ``reduce``.

Signed letters built here (``letter``, ``inv``) are shared objects, one per
signed letter of the alphabet, so a word costs one pointer per letter.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .terms import X, check_letter, is_gen, letter_key

SignedLetter = tuple[str, int]
GroupWord = tuple[SignedLetter, ...]

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


def extend_reduced(out: list[SignedLetter], part: Sequence[SignedLetter]) -> None:
    """Append ``part`` to ``out`` in place, cancelling across the seam.

    Precondition: both are reduced; then ``out`` stays reduced.  Letters can
    cancel only at the seam, so it is scanned only as far as it cancels and
    the rest of ``part`` is copied unchanged.
    """
    k = 0
    while k < len(part) and out and out[-1] == INVERSE[part[k]]:
        out.pop()
        k += 1
    out.extend(part[k:] if k else part)


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
# Concrete syntax: space-separated tokens "y1", "y1^-1", "x", "x^-1"; the
# empty word is spelled "e".  JSON form: [[letter, exponent], ...].
# ---------------------------------------------------------------------------

def render(word: GroupWord) -> str:
    if not word:
        return "e"
    return " ".join(l if e == 1 else f"{l}^-1" for l, e in word)


def parse(text: str, n: int | None = None) -> GroupWord:
    text = text.strip()
    if text == "e" or not text:
        return EMPTY
    out: list[SignedLetter] = []
    for token in text.split():
        if token.endswith("^-1"):
            name, e = token[:-3], -1
        elif token.endswith("^1"):
            name, e = token[:-2], 1
        else:
            name, e = token, 1
        if n is not None:
            check_letter(name, n)
        elif not (name in (X, "x0", "x1") or is_gen(name)):
            raise ValueError(f"bad word token {token!r}")
        out.append((name, e))
    return tuple(out)


def to_json(word: GroupWord) -> list[list]:
    return [[l, e] for l, e in word]


def from_json(data: object, generators_only: bool = False) -> GroupWord:
    if not isinstance(data, list):
        raise ValueError("word must be a JSON array of [letter, exponent] pairs")
    out: list[SignedLetter] = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"bad word entry {entry!r}")
        l, e = entry
        if not isinstance(l, str) or e not in (1, -1):
            raise ValueError(f"bad word entry {entry!r}")
        if generators_only and not is_gen(l):
            raise ValueError(f"expected a generator letter, got {l!r}")
        elif not generators_only and not (l in (X, "x0", "x1") or is_gen(l)):
            raise ValueError(f"unknown letter {l!r}")
        out.append((l, e))
    return tuple(out)


def sort_key(word: GroupWord) -> tuple:
    return (len(word), tuple((letter_key(l), -e) for l, e in word))
