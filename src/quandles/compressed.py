"""Equality of terms past the cap on compact tails, decided without
expanding the normal forms.

A tail can have 2^(k-1) - 1 letters for a term of k atoms, so
``translate.compact_keys`` and ``translate.text_keys`` give up past
``translate.LETTERS_PER_NODE`` letters per node.  ``equal`` then compares
two other forms of the normal forms, each one ``fold`` of the translation
in a group given by its operations, a few of them per distinct subterm, with
the quandle keys taken by ``translate.quotient``.  ``model_keys`` evaluates
them in SL2(F_p), a homomorphic image of the free group: keys that differ
there prove the terms unequal, keys that agree prove nothing.  Where they
agree, ``compressed_keys`` decides, at a cost polynomial in the size of the
terms, with keys that agree exactly when the normal forms do.

In ``compressed_keys`` every word is a single integer, the top *symbol* of
a hierarchy that a ``Table`` hash-conses, and two words are equal exactly
when their top symbols are.  This is the deterministic-signature method
(Mehlhorn, Sundar and Uhrig, Algorithmica 1997); with it, the compressed
word problem of a free group takes polynomial time (Lohrey, SIAM J. Comput.
2006).

The hierarchy of a word is fixed by the word alone.  Level 0 holds its
letters.  An even level is cut into maximal runs, each of two or more of
which becomes a symbol ``(base, count)`` one level up, while a run of one
goes up as the symbol it is; an odd level, where no two neighbours are
equal, is cut into blocks, each starting at the first position or at a
local minimum of a hashed priority of ``(level, symbol)``, and each block
becomes a symbol one level up.  A local minimum has larger neighbours on
both sides, so no two are adjacent, and since the last position is never
cut, a block step leaves at most half of a word of two or more symbols,
rounded up.  The first level of a single symbol is the top.  Symbols are
keyed with their level, so equal keys are equal strings at equal levels.
An odd level may hold symbols made one level lower, which spell themselves
there, so a word cut into whole symbols is kept as a stack of them tagged
with their level in the hierarchy, not with their own.

Whether a position is cut depends on its neighbours only, so the hierarchy
of a concatenation differs from those of its parts only near the seam.  A
product ``A * B`` of reduced words cancels the longest common prefix of
``A^-1`` and ``B``, whose length is found by comparing symbols top-down; the
hierarchy of ``A[:-n] * B[n:]`` is then rebuilt from the symbols of ``A``
and ``B`` that the seam does not reach, re-parsing a window of a few symbols
per level.  A hierarchy is not the mirror image of its inverse's, so every
word is carried as the pair of its top and its inverse's top.  A conjugate
``w^-1 c w`` by a letter ``c`` needs no search for what cancels: with the
leading run of ``c`` or ``c^-1`` read off ``w``'s first symbol of level 1,
it is ``u^-1 c u`` for the rest ``u`` of ``w``, rebuilt in one pass around
the letter, and so is its inverse ``u^-1 c^-1 u``.  Nothing is cached
between calls.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .terms import Node, Term
from .translate import G, quotient


def equal(s: Term, t: Term, theory: str) -> bool:
    """Whether ``s`` and ``t`` are provably equal in the free ``theory``:
    not where their ``model_keys`` differ, else exactly where their
    ``compressed_keys`` agree."""
    key_s, key_t = model_keys((s, t), theory)
    if key_s != key_t:
        return False
    key_s, key_t = compressed_keys((s, t), theory)
    return key_s == key_t


def fold(terms: Sequence[Term], one: G, letter: Callable[[str, int], G],
         product: Callable[[G, G], G], conjugate: Callable[[G, G], G]) -> list[tuple[str, G]]:
    """The rack normal forms ``(head, tail)`` of ``terms``, with each tail an
    element of a group given by its identity ``one``, the image
    ``letter(name, sign)`` of a signed letter, its ``product``, and
    ``conjugate(w, c)``, the conjugate ``w^-1 c w`` of a letter's image ``c``.

    An atom goes to ``(atom, one)`` and ``s |>^e t`` to ``(head(s), tail(s) *
    tail(t)^-1 * head(t)^e * tail(t))``: at most one conjugate and one
    product per node.  The walk is a loop over an explicit stack; it numbers
    every subterm by ``(sign, left, right)``, so structurally equal subterms,
    within a term or across terms, share one image, and no term is hashed.
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
                    if w is not one:  # an atom's tail: conjugating by it changes nothing
                        c = conjugate(w, c)
                    images.append((head, product(tail, c)))
                else:
                    images.append((key, one))
            numbered[id(u)] = number
        out.append(images[numbered[id(t)]])
    return out


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


def _conjugate(m: Matrix, c: Matrix) -> Matrix:
    """``m^-1 c m``, two products."""
    return _product(_product(_inverse(m), c), m)


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
    letters = _LetterMatrices()
    letter = lambda name, sign: letters[name][sign < 0]
    return quotient(fold(terms, _IDENTITY, letter, _product, _conjugate), theory, letter, _conjugate)


# --- the group of compressed words ------------------------------------------

Entry = tuple[int, int]  # a symbol and a repeat count
Stack = list[tuple[int, list[Entry]]]  # (level in the hierarchy, entries), the seam's level last
Word = tuple[int, int]  # a word's top symbol and its inverse's; 0 is the empty word

EMPTY: Word = (0, 0)

_MASK = (1 << 64) - 1


def _priority(level: int, symbol: int) -> int:
    """A hashed priority, one-to-one in ``symbol`` at each level (splitmix64)."""
    z = (symbol + level * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Table:
    """The symbols of one computation.  Symbol 0 is the empty word."""

    def __init__(self) -> None:
        self._symbols: dict[tuple, int] = {}
        self.level = [0]
        self.length = [0]
        self.parts: list[tuple[Entry, ...]] = [()]  # what a symbol spells, one level down
        self.priority = [0]

    def _symbol(self, key: tuple, level: int, parts: tuple[Entry, ...]) -> int:
        symbol = self._symbols.get(key)
        if symbol is None:
            symbol = self._symbols[key] = len(self.level)
            self.level.append(level)
            length = self.length
            length.append(sum(length[s] * k for s, k in parts) if parts else 1)
            self.parts.append(parts)
            self.priority.append(_priority(level, symbol))
        return symbol

    def letter(self, name: str, exponent: int = 1) -> Word:
        """The one-letter word ``name^exponent``."""
        return self._symbol((0, name, exponent), 0, ()), self._symbol((0, name, -exponent), 0, ())

    # --- products --------------------------------------------------------

    def product(self, a: Word, b: Word) -> Word:
        """The reduced product of the reduced words ``a`` and ``b``."""
        x, x_inv = a
        y, y_inv = b
        if not x:
            return b
        if not y:
            return a
        n = self._common_prefix(x_inv, y)
        kept_x, kept_y = self.length[x] - n, self.length[y] - n
        top = self._join(self._cut(x, kept_x)[0], self._cut(y, n)[1], [])
        inverse = self._join(self._cut(y_inv, kept_y)[0], self._cut(x_inv, n)[1], [])
        return top, inverse

    def conjugate(self, w: Word, c: Word) -> Word:
        """The reduced conjugate ``w^-1 c w`` of the reduced word ``w`` by the
        one-letter word ``c``.

        ``w`` is ``c^k u``, with ``c^k`` its leading run of ``c`` or ``c^-1``,
        so the conjugate is ``u^-1 c u``, reduced as it stands.  Its top and
        its inverse's, of ``u^-1 c^-1 u``, are each one join of the same two
        cuts around the letter.
        """
        x, x_inv = w
        k = self._leading_run(x, c)
        n = self.length[x] - k
        if not n:
            return c
        top = self._join(self._cut(x_inv, n)[0], self._cut(x, k)[1], [(c[0], 1)])
        inverse = self._join(self._cut(x_inv, n)[0], self._cut(x, k)[1], [(c[1], 1)])
        return top, inverse

    def _leading_run(self, x: int, c: Word) -> int:
        """The length of the leading run of the letter of ``c`` or of its
        inverse in the word of ``x``: the count of the word's first symbol at
        level 1, a maximal run of one letter, or 0 if that letter is another."""
        level, parts = self.level, self.parts
        while level[x] > 1:
            x = parts[x][0][0]
        base, k = parts[x][0] if level[x] else (x, 1)
        return k if base in c else 0

    def _common_prefix(self, x: int, y: int) -> int:
        """How many letters the words of the symbols ``x`` and ``y`` share at
        their start.

        Both are unfolded from the left, one copy of a symbol at a time, and
        a symbol common to both is skipped whole; where they differ, the one
        of the higher level is unfolded, or both at one level.
        """
        level, length, parts = self.level, self.length, self.parts
        fx = [(x, 1)] if x else []
        fy = [(y, 1)] if y else []
        n = 0
        while fx and fy:
            a, ka = fx[-1]
            b, kb = fy[-1]
            if a == b:
                k = ka if ka < kb else kb
                n += k * length[a]
                if ka == k:
                    fx.pop()
                else:
                    fx[-1] = (a, ka - k)
                if kb == k:
                    fy.pop()
                else:
                    fy[-1] = (b, kb - k)
                continue
            la, lb = level[a], level[b]
            if not (la or lb):
                break
            if la >= lb:
                fx.pop()
                if ka > 1:
                    fx.append((a, ka - 1))
                fx.extend(reversed(parts[a]))
            if lb >= la:
                fy.pop()
                if kb > 1:
                    fy.append((b, kb - 1))
                fy.extend(reversed(parts[b]))
        return n

    # --- the hierarchy of a cut and joined word --------------------------

    def _cut(self, symbol: int, p: int) -> tuple[Stack, Stack]:
        """The letters of ``symbol`` before its position ``p`` and those from
        it on, each as whole symbols of its hierarchy, by level, highest
        first; each level of the second is stored last to first."""
        level, length, parts = self.level, self.length, self.parts
        h = level[symbol]
        whole = [(h, [(symbol, 1)])]
        if not p:
            return [], whole
        if p == length[symbol]:
            return whole, []
        before: Stack = []
        after: Stack = []
        while p:
            h -= 1
            if level[symbol] == h:  # a run of one: the symbol itself, one level down
                continue
            spelled = parts[symbol]
            for j, (c, k) in enumerate(spelled):
                size = length[c]
                if p < size * k:
                    break
                p -= size * k
            i, p = divmod(p, size)
            left = list(spelled[:j])
            if i:
                left.append((c, i))
            right = list(spelled[:j:-1])
            rest = k - i - (1 if p else 0)
            if rest:
                right.append((c, rest))
            if left:
                before.append((h, left))
            if right:
                after.append((h, right))
            symbol = c
        return before, after

    def _join(self, left: Stack, right: Stack, window: list[Entry]) -> int:
        """The top of the word spelled by ``left``, the letters ``window``
        and then ``right``.

        ``left`` and ``right`` hold whole symbols of the hierarchies of the
        words they were cut from.  Level by level, the window takes that
        level's symbols from both sides and is parsed one level up.  Where a
        side has more, the window first takes enough of its symbols for the
        cuts at the window's ends to be those of the side's own hierarchy:
        two on the left before a block step, whose cut at a position looks at
        the next one, and one otherwise.
        """
        if not (left or right or window):
            return 0
        h = 0
        while True:
            left_part = self._take(left, h, 1 + (h & 1), False)
            right_part = self._take(right, h, 1, True)
            window = left_part + window + right_part[::-1]
            if not (left or right) and len(window) == 1 and window[0][1] == 1:
                return window[0][0]
            h += 1
            window = self._blocks(window, h) if h & 1 == 0 else self._runs(window, h)

    def _take(self, stack: Stack, h: int, need: int, backwards: bool) -> list[Entry]:
        """The entries of level ``h`` at the seam end of ``stack``, and then,
        while they are fewer than ``need``, those that its next symbol spells
        at level ``h``, unfolded one copy and one level at a time.
        ``backwards`` for a right-hand stack, whose entries are stored last to
        first."""
        level, parts = self.level, self.parts
        taken = stack.pop()[1] if stack and stack[-1][0] == h else []
        while len(taken) < need and stack:
            g, entries = stack[-1]
            if g == h:
                taken = entries + taken
                stack.pop()
                continue
            s, k = entries[-1]
            if k > 1:
                entries[-1] = (s, k - 1)
            else:
                entries.pop()
                if not entries:
                    stack.pop()
            g -= 1
            if level[s] == g:  # a run of one: the symbol itself, one level down
                stack.append((g, [(s, 1)]))
            else:
                stack.append((g, list(reversed(parts[s]) if backwards else parts[s])))
        return taken

    def _runs(self, window: list[Entry], level: int) -> list[Entry]:
        """Each maximal run of ``window`` as one symbol of ``level``, but a
        run of one as its own symbol."""
        out = []
        base, count = window[0]
        for s, k in window[1:]:
            if s == base:
                count += k
            else:
                out.append(self._run(base, count, level))
                base, count = s, k
        out.append(self._run(base, count, level))
        return out

    def _run(self, base: int, count: int, level: int) -> Entry:
        if count == 1:
            return base, 1
        return self._symbol((level, base, count), level, ((base, count),)), 1

    def _blocks(self, window: list[Entry], level: int) -> list[Entry]:
        """``window`` cut before each local minimum of priority, each block
        as one symbol of ``level``.  The last position is never cut.  Where
        the word goes on past the window, the next symbol starts a block, so
        the last one is larger than it and no local minimum; where the word
        ends, a cut there would leave a block of one, and a word of two
        symbols would not shrink."""
        symbols = [s for s, _ in window]
        priority = [self.priority[s] for s in symbols]
        out = []
        start = 0
        for j in range(1, len(symbols) - 1):
            if priority[j - 1] > priority[j] < priority[j + 1]:
                out.append(self._block(symbols[start:j], level))
                start = j
        out.append(self._block(symbols[start:], level))
        return out

    def _block(self, symbols: list[int], level: int) -> Entry:
        key = (level, *symbols)
        symbol = self._symbols.get(key)
        if symbol is None:  # most blocks are met again: spell out the parts of new ones only
            symbol = self._symbol(key, level, tuple((s, 1) for s in symbols))
        return symbol, 1


def compressed_keys(terms: Sequence[Term], theory: str) -> list[tuple[str, int]]:
    """Keys of ``terms`` that agree exactly when the terms are provably equal
    in ``theory``, over one table: the head and the top symbol of the tail,
    for quandles of the conjugate ``tail^-1 head tail`` instead."""
    table = Table()
    images = fold(terms, EMPTY, table.letter, table.product, table.conjugate)
    return [(head, word[0]) for head, word in quotient(images, theory, table.letter, table.conjugate)]
