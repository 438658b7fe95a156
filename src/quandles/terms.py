"""Closed terms over the two self-distributive operations.

A term is either an atom (a named constant) or a binary node applying one of
the two operations, spelled ``|>`` (sign +1) and ``|>~`` (sign -1) in concrete
syntax.  Both operators have equal precedence and associate to the left, so
``x |> y1 |>~ y2`` parses as ``(x |> y1) |>~ y2``.

Atoms come from a fixed alphabet: the distinguished constant ``x``, two
auxiliary constants ``x0``/``x1`` used when checking that a term commutes with
the operations, and numbered generators ``y1``, ``y2``, ...  Letters are plain
strings; structural equality of letters is string equality.

``Atom`` and ``Node`` are immutable classes with ``__slots__``, written by
hand rather than as dataclasses: building a node is the parser's inner step,
and importing ``dataclasses`` would put ``inspect`` on every launch.
"""

from __future__ import annotations

import functools
import random
import re
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

X = "x"
X0 = "x0"
X1 = "x1"

OP_SYMBOLS = {1: "|>", -1: "|>~"}


class TermSyntaxError(ValueError):
    """Malformed term text; ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(ValueError):
    """A generator atom ``y<k>`` whose index is outside 1..n."""

    def __init__(self, index: int, n: int):
        super().__init__(f"generator y{index} is out of range for n={n}")
        self.index = index
        self.n = n


def gen(i: int) -> str:
    """The i-th generator letter (1-based)."""
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return f"y{i}"


def is_gen(letter: str) -> bool:
    """Whether ``letter`` is ``y`` followed by one or more ASCII digits."""
    digits = letter[1:]
    return letter[:1] == "y" and digits.isascii() and digits.isdigit()


def gen_index(letter: str) -> int:
    if not is_gen(letter):
        raise ValueError(f"not a generator letter: {letter!r}")
    return int(letter[1:])


def letter_key(letter: str) -> tuple[int, int]:
    """Sort key realizing the fixed letter order x < x0 < x1 < y1 < y2 < ..."""
    if letter == X:
        return (0, 0)
    if letter == X0:
        return (1, 0)
    if letter == X1:
        return (2, 0)
    return (3, gen_index(letter))


def standard_alphabet(n: int, include_x: bool = True) -> tuple[str, ...]:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    letters: list[str] = []
    if include_x:
        letters.append(X)
    letters.extend(gen(i) for i in range(1, n + 1))
    return tuple(letters)


class _Frozen:
    """Immutability for the term classes: their slots are set once, in
    ``__init__``, through the slot descriptors, and every later assignment
    or deletion raises ``AttributeError``.  ``__reduce__`` rebuilds an
    instance from its constructor's arguments, the fields that
    ``__match_args__`` lists, so ``pickle`` and ``copy`` never assign."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Atom(_Frozen):
    """A named constant."""

    __slots__ = ("letter",)
    __match_args__ = ("letter",)

    def __init__(self, letter: str) -> None:
        _set_letter(self, letter)

    def __repr__(self) -> str:
        return f"Atom({self.letter!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not Atom:
            return NotImplemented
        return self.letter == other.letter

    def __hash__(self) -> int:
        return hash((self.letter,))


class Node(_Frozen):
    """An operation applied to two terms: ``left |> right`` (sign +1) or
    ``left |>~ right`` (sign -1)."""

    __slots__ = ("sign", "left", "right")
    __match_args__ = ("sign", "left", "right")

    def __init__(self, sign: int, left: "Term", right: "Term") -> None:
        _set_sign(self, sign)
        _set_left(self, left)
        _set_right(self, right)

    def __repr__(self) -> str:
        """``Node(sign, left, right)``, written from ``_spelling``: a sign
        opens a node, and a finished child closes it with ``)`` if it was
        the node's second, else is followed by ``, ``."""
        pieces: list[str] = []
        spelled: list[int] = []  # for each open node, how many children are written
        for item in _spelling(self):
            if type(item) is int:
                pieces.append(f"Node({item:+d}, ")
                spelled.append(0)
                continue
            pieces.append(f"Atom({item!r})")
            while spelled and spelled[-1] == 1:
                spelled.pop()
                pieces.append(")")
            if spelled:
                spelled[-1] = 1
                pieces.append(", ")
        return "".join(pieces)

    def __eq__(self, other: object) -> bool:
        """Structural equality, compared over an explicit stack of subterm
        pairs, so terms of any depth compare."""
        if type(other) is not Node:
            return NotImplemented
        pairs: list[tuple[Term, Term]] = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            if type(a) is Atom:
                if a.letter != b.letter:
                    return False
            elif a.sign != b.sign:
                return False
            else:
                pairs.append((a.right, b.right))
                pairs.append((a.left, b.left))
        return True

    def __hash__(self) -> int:
        """The hash of the term's prefix spelling, ``_spelling``.  Equal terms
        spell alike."""
        return hash(tuple(_spelling(self)))


Term = Union[Atom, Node]

_set_letter = Atom.letter.__set__
_set_sign = Node.sign.__set__
_set_left = Node.left.__set__
_set_right = Node.right.__set__


def _spelling(t: Term) -> list[Union[int, str]]:
    """The term's signs and letters in pre-order.

    Each left spine is walked in a loop, with the right children waiting on
    an explicit stack, so terms of any depth are spelled.
    """
    spelling: list[Union[int, str]] = []
    todo: list[Term] = [t]
    while todo:
        t = todo.pop()
        while type(t) is Node:
            spelling.append(t.sign)
            todo.append(t.right)
            t = t.left
        spelling.append(t.letter)
    return spelling


def size(t: Term) -> int:
    """Number of constructors (atoms and nodes) in the term: the length of
    its ``_spelling``."""
    return len(_spelling(t))


def left_of(t: Term) -> str:
    """The leftmost atom of the term."""
    while isinstance(t, Node):
        t = t.left
    return t.letter


def atoms_of(t: Term) -> set[str]:
    """The letters of the atoms in the term, read from its ``_spelling``."""
    return {item for item in _spelling(t) if type(item) is str}


def subst(t: Term, s: Term, target: str) -> Term:
    """Replace every atom named ``target`` in ``t`` by the term ``s``."""
    return subst_many(t, {target: s})


def subst_many(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Simultaneously replace atoms per ``mapping`` (unlisted atoms stay).

    Each left spine is walked down to its head atom in a loop and rebuilt
    bottom-up; while a composite right child is substituted, its spine and
    the image built so far wait on an explicit stack, so terms of any depth
    are substituted.  A node whose children come back unchanged is kept as
    it is.
    """
    suspended: list[tuple[list[Node], int, Term]] = []
    while True:
        spine: list[Node] = []
        while isinstance(t, Node):
            spine.append(t)
            t = t.left
        done = mapping.get(t.letter, t)
        k = len(spine)
        while True:
            if k:
                k -= 1
                t = spine[k].right
                if isinstance(t, Node):
                    suspended.append((spine, k, done))
                    break
                right = mapping.get(t.letter, t)
            elif suspended:
                right = done
                spine, k, done = suspended.pop()
            else:
                return done
            node = spine[k]
            if done is not node.left or right is not node.right:
                node = Node(node.sign, done, right)
            done = node


# ---------------------------------------------------------------------------
# Concrete syntax
# ---------------------------------------------------------------------------

# what stands between a left operand and an atom, or a parenthesised operand
_SEP = {sign: f" {symbol} " for sign, symbol in OP_SYMBOLS.items()}
_OPEN = {sign: f" {symbol} (" for sign, symbol in OP_SYMBOLS.items()}


def render(t: Term) -> str:
    """Canonical spelling with minimal parentheses under left associativity.

    Left children never need parentheses; composite right children always do.
    The pieces are produced last to first: each left spine is walked in a
    loop, and while a composite right child is spelled its operator and left
    sibling wait on an explicit stack, so terms of any depth render.
    """
    backwards: list[str] = []
    waiting: list[Union[Term, str]] = [t]
    while waiting:
        item = waiting.pop()
        while isinstance(item, Node):
            right = item.right
            if isinstance(right, Node):
                backwards.append(")")
                waiting.append(item.left)
                waiting.append(_OPEN[item.sign])
                item = right
            else:
                backwards.append(right.letter)
                backwards.append(_SEP[item.sign])
                item = item.left
        backwards.append(item if isinstance(item, str) else item.letter)
    backwards.reverse()
    return "".join(backwards)


# One token per match: an operator, a parenthesis, an atom ("x" or "y" and
# its ASCII digits), or any other non-space character, which is an error.
# Whitespace is skipped; re's \s is str.isspace.
_TOKEN = re.compile(r"\|>~|\|>|[()]|[xy][0-9]*|\S")
_SIGNS = {"|>": 1, "|>~": -1}
_OP_NAMES = {"|>": "+", "|>~": "-"}  # how error messages name the operators


class _Malformed(Exception):
    """A syntax error located by token index; ``parse`` maps it to a position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


T = TypeVar("T")  # what ``_build`` builds: a term, or a normal form


def _build(tokens: list[str], atom: Callable[[str], T], node: Callable[[int, T, T], T]) -> T:
    """Shift-reduce the token list in the algebra given by ``atom``, which
    checks an atom token and returns its value, and ``node(sign, left,
    right)``, which combines two values: ``parse`` builds a term with
    ``Node``, ``translate.text_keys`` a normal form.  ``evaluate`` runs the
    same algebra over a term already built.

    ``left`` is the value built so far at the current parenthesis depth and
    ``sign`` the operator waiting for its right operand; ``(`` saves both on
    ``stack`` and ``)`` restores them.  Errors come in the order a
    left-to-right recursive descent would meet them.
    """
    stack: list[tuple[T | None, int]] = []
    left: T | None = None
    sign = 0
    i = 0
    end = len(tokens)
    while True:
        # expect a factor: an atom or "("
        if i == end:
            raise _Malformed("unexpected end of input", i)
        tok = tokens[i]
        i += 1
        if tok == "(":
            stack.append((left, sign))
            left = None
            continue
        if tok[0] not in "xy":
            raise _Malformed(f"expected an atom or '(', got {_OP_NAMES.get(tok, tok)!r}", i - 1)
        try:
            factor = atom(tok)
        except _Malformed as exc:
            exc.index = i - 1
            raise
        # a factor is complete: attach it, then close parentheses until an
        # operator or the end
        while True:
            left = factor if left is None else node(sign, left, factor)
            if i == end:
                if stack:
                    raise _Malformed("expected ')'", i)
                return left
            tok = tokens[i]
            i += 1
            if tok in _SIGNS:
                sign = _SIGNS[tok]
                break
            if not stack:
                raise _Malformed(f"trailing input {tok!r}", i - 1)
            if tok != ")":
                raise _Malformed("expected ')'", i - 1)
            factor = left
            left, sign = stack.pop()


def evaluate(t: Term, atom: Callable[[str], T], node: Callable[[int, T, T], T]) -> T:
    """The value of the built term ``t`` in the algebra of ``_build``:
    ``atom(letter)`` for an atom, ``node(sign, left, right)`` for a node, in
    the order ``_build`` calls them on ``render(t)``, left before right.

    Each left spine is walked down to its head atom in a loop and folded
    bottom-up; while a composite right child is evaluated, its spine and the
    value built so far wait on an explicit stack, so terms of any depth are
    evaluated.
    """
    suspended: list[tuple[list[Node], int, T]] = []
    while True:
        spine: list[Node] = []
        while type(t) is Node:
            spine.append(t)
            t = t.left
        value = atom(t.letter)
        k = len(spine)
        while True:
            if k:
                k -= 1
                t = spine[k].right
                if type(t) is Node:
                    suspended.append((spine, k, value))
                    break
                right = atom(t.letter)
            elif suspended:
                right = value
                spine, k, value = suspended.pop()
            else:
                return value
            value = node(spine[k].sign, value, right)


def _letter(tok: str, n: int, allow_aux: bool) -> str:
    """Check one atom token and return its letter; ``y`` indices are
    normalised (``y01`` is ``y1``).  An error has index -1, for the caller
    to set."""
    if tok == X:
        return X
    if tok in (X0, X1):
        if not allow_aux:
            raise _Malformed(f"auxiliary atom {tok!r} not allowed", -1)
        return tok
    if tok[0] == "y" and len(tok) > 1:
        try:
            i = int(tok[1:])
        except ValueError:  # more digits than int() converts
            raise _Malformed(f"generator index of {len(tok) - 1} digits is too long", -1) from None
        if not 1 <= i <= n:
            raise UnknownGeneratorError(i, n)
        return gen(i)
    raise _Malformed(f"bad atom {tok!r}", -1)


@functools.lru_cache(maxsize=16)
def _atom(n: int, allow_aux: bool, value: Callable[[str], T]) -> Callable[[str], T]:
    """The atom check for ``n`` and ``allow_aux``: a function from an atom
    token to ``value`` of its letter (``_letter``).

    It remembers the last 1024 tokens that passed, and is itself remembered
    for the last 16 keys, so a token is checked once, not once per call; an
    error is raised anew each time.
    """
    return functools.lru_cache(maxsize=1024)(lambda tok: value(_letter(tok, n, allow_aux)))


def parse(text: str, n: int, allow_aux: bool = True) -> Term:
    """Parse term text over the alphabet with ``n`` generators.

    The grammar is  term := factor { ("|>" | "|>~") factor },
    factor := atom | "(" term ")",  atom := "x" | "x0" | "x1" | "y" digits,
    with ASCII digits and both operators left-associative at equal
    precedence.

    One regular-expression scan splits the text into tokens and one loop
    with an explicit stack builds the term, so nesting has no depth limit.
    An atom spelling that passed its check is remembered across calls (for
    the same ``n`` and ``allow_aux``), so it is checked once, not once per
    call.  A character that starts no token (``§``, or a digit that is not
    ASCII, as in ``y²``) is reported before any other error, wherever it is;
    the term is built once, and only a failed build scans the text again.
    """
    try:
        return _build(_TOKEN.findall(text), _atom(n, allow_aux, Atom), Node)
    except (_Malformed, UnknownGeneratorError) as exc:
        error = exc
    starts: list[int] = []
    for match in _TOKEN.finditer(text):
        tok = match.group()
        if not (tok in _SIGNS or tok in "()" or tok[0] in "xy"):
            raise TermSyntaxError(f"unexpected character {tok!r}", match.start())
        starts.append(match.start())
    if not isinstance(error, _Malformed):
        raise error
    at = starts[error.index] if error.index < len(starts) else len(text)
    raise TermSyntaxError(error.message, at)


# ---------------------------------------------------------------------------
# Enumeration and random generation
# ---------------------------------------------------------------------------

def _letters(alphabet: Iterable[str], max_size: int) -> list[str]:
    """The distinct letters of ``alphabet`` in ``letter_key`` order, once the
    bounds are checked to give at least one term."""
    letters = sorted(set(alphabet), key=letter_key)
    if not letters:
        raise ValueError("alphabet must be nonempty")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    return letters


def enumerate_terms(alphabet: Iterable[str], max_size: int,
                    builders: Callable[[int], Callable] | None = None) -> Iterator:
    """Yield every term with atoms from ``alphabet`` and size <= max_size.

    Deterministic order: ascending size; within a size, by left-subterm size,
    then recursively by this same order on left and right, with ``|>`` before
    ``|>~``.  Only odd sizes occur (a node adds 1 to two odd-sized children).

    Each size below the largest is kept as a table, shared by the terms built
    from it.  Nothing is built on the largest size, which holds most of the
    terms, so it is yielded as it is built and never stored.

    ``builders``, if given, maps a size k to the function that builds the
    entries of that size, which are yielded and kept in the tables in place
    of the terms: ``builders(1)(letter)`` for an atom, and
    ``builders(k)(sign, left, right)`` from the entries of the two children.
    So an entry can carry a value folded from its children's, read by
    position in the tables, or keep its children to fold later.
    """
    build = builders or (lambda k: Node if k > 1 else Atom)
    atom = build(1)
    by_size: dict[int, list] = {1: [atom(l) for l in _letters(alphabet, max_size)]}
    yield from by_size[1]
    for k in range(3, max_size + 1, 2):
        node = build(k)
        level = (
            node(sign, left, right)
            for i in range(1, k - 1, 2)
            for left in by_size[i]
            for right in by_size[k - 1 - i]
            for sign in (1, -1)
        )
        if k + 2 > max_size:
            yield from level
        else:
            by_size[k] = list(level)
            yield from by_size[k]


def count_terms(alphabet: Iterable[str], max_size: int) -> int:
    """How many terms ``enumerate_terms(alphabet, max_size)`` yields, counted
    by the recurrence on sizes, without building any."""
    by_size = {1: len(_letters(alphabet, max_size))}
    for k in range(3, max_size + 1, 2):
        by_size[k] = sum(2 * by_size[i] * by_size[k - 1 - i] for i in range(1, k - 1, 2))
    return sum(by_size.values())


def random_term(rng: random.Random, alphabet: tuple[str, ...], max_size: int) -> Term:
    """A random term of odd size <= max_size (uniform size, then structure)."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    sizes = list(range(1, max_size + 1, 2))
    return _random_term_of_size(rng, alphabet, rng.choice(sizes))


def _random_term_of_size(rng: random.Random, alphabet: tuple[str, ...], k: int) -> Term:
    if k == 1:
        return Atom(rng.choice(alphabet))
    i = rng.choice(range(1, k - 1, 2))
    sign = rng.choice((1, -1))
    left = _random_term_of_size(rng, alphabet, i)
    right = _random_term_of_size(rng, alphabet, k - 1 - i)
    return Node(sign, left, right)
