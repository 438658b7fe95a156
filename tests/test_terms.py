import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quandles import terms
from quandles.terms import X, X0, X1, Atom, Node, TermSyntaxError, UnknownGeneratorError, gen, gen_index, is_gen


def _terms_strategy(letters=("x", "y1", "y2")):
    atoms = st.sampled_from([Atom(l) for l in letters])
    return st.recursive(
        atoms,
        lambda sub: st.builds(Node, st.sampled_from((1, -1)), sub, sub),
        max_leaves=8,
    )


def _tokenize_reference(text):
    # token kinds: "op" (value "+"/"-"), "atom", "(", ")"
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            tokens.append(("(", "(", i))
            i += 1
        elif c == ")":
            tokens.append((")", ")", i))
            i += 1
        elif text.startswith("|>~", i):
            tokens.append(("op", "-", i))
            i += 3
        elif text.startswith("|>", i):
            tokens.append(("op", "+", i))
            i += 2
        elif c in ("x", "y"):
            j = i + 1
            while j < len(text) and text[j] in "0123456789":
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_reference(text, n, allow_aux=True):
    """Reference: a character-by-character tokenizer and a recursive-descent
    parser, independent of the regex scan and shift-reduce loop of ``parse``."""
    tokens = _tokenize_reference(text)
    pos = 0

    def error(message):
        at = tokens[pos][2] if pos < len(tokens) else len(text)
        return TermSyntaxError(message, at)

    def parse_factor():
        nonlocal pos
        if pos >= len(tokens):
            raise error("unexpected end of input")
        kind, value, at = tokens[pos]
        if kind == "atom":
            pos += 1
            if value == X or (value[0] == "y" and value[1:].isdigit() and len(value) > 1):
                pass
            elif value in (X0, X1):
                if not allow_aux:
                    raise TermSyntaxError(f"auxiliary atom {value!r} not allowed", at)
            else:
                raise TermSyntaxError(f"bad atom {value!r}", at)
            if is_gen(value):
                if 0 < sys.get_int_max_str_digits() < len(value) - 1:
                    raise TermSyntaxError(f"generator index of {len(value) - 1} digits is too long", at)
                i = gen_index(value)
                if not 1 <= i <= n:
                    raise UnknownGeneratorError(i, n)
                value = gen(i)  # normalizes e.g. y01 -> y1
            return Atom(value)
        if kind == "(":
            pos += 1
            inner = parse_term()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                raise error("expected ')'")
            pos += 1
            return inner
        raise error(f"expected an atom or '(', got {value!r}")

    def parse_term():
        nonlocal pos
        t = parse_factor()
        while pos < len(tokens) and tokens[pos][0] == "op":
            sign = 1 if tokens[pos][1] == "+" else -1
            pos += 1
            t = Node(sign, t, parse_factor())
        return t

    result = parse_term()
    if pos < len(tokens):
        raise error(f"trailing input {tokens[pos][1]!r}")
    return result


def _outcome(parser, text, n, allow_aux):
    try:
        return parser(text, n, allow_aux)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n", "\u2003"])


@st.composite
def _spelled_terms(draw):
    """Text of a random term with random whitespace and redundant parentheses."""
    t = draw(_terms_strategy(letters=("x", "x0", "y1", "y2", "y3")))
    pieces = []
    todo = [(t, False)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        u, needs_parens = item
        extra = draw(st.integers(0, 2))
        opening = needs_parens + extra
        if isinstance(u, Atom):
            letter = u.letter if not is_gen(u.letter) else draw(st.sampled_from(["y", "y0"])) + u.letter[1:]
            todo.append(")" * opening + draw(_SPACE))
            todo.append(letter)
        else:
            todo.append(")" * opening + draw(_SPACE))
            todo.append((u.right, isinstance(u.right, Node)))
            todo.append(draw(_SPACE) + terms.OP_SYMBOLS[u.sign] + draw(_SPACE))
            todo.append((u.left, False))
        todo.append(draw(_SPACE) + "(" * opening)
    return t, "".join(pieces)


# arbitrary text over the term characters, and arbitrary token sequences
_FUZZ_TEXT = st.one_of(
    st.text(alphabet=list("xy0123456789|>~() ²٣\u2003"), max_size=24),
    st.lists(
        st.sampled_from(["x", "y", "y1", "y2", "y4", "y0", "x0", "x1", "x2", "|>", "|>~", "(", ")", " ", "²", "٣"]),
        max_size=24,
    ).map("".join),
)


# --- parsing ---------------------------------------------------------------

@given(_spelled_terms())
def test_parse_matches_reference_on_spelled_terms(case):
    t, text = case
    assert terms.parse(text, 3) == parse_reference(text, 3) == t


@settings(max_examples=300)
@given(_FUZZ_TEXT, st.booleans())
def test_parse_matches_reference_on_arbitrary_text(text, allow_aux):
    assert _outcome(terms.parse, text, 3, allow_aux) == _outcome(parse_reference, text, 3, allow_aux)


@pytest.mark.parametrize(
    "text",
    ["", " ", "x |>", "(x |> y1", "x )", "x2", "y", "x |> |> y1", "x y1", "x |>> y1", "x | y1",
     "x |>~~ y1", "y0", "y4", "x00", "x |> (", "()", "(x) (y1)", "x |> y1)", "((x |> y1)", "( y3 ) ) )",
     "|> x", "x |>~", "x |> y01", "x0 |> x1", "x1 |> x0 |> z", "y1 \x1c |>\u2003y2",
     "y²", "x²", "y1²", "x0²", "x y²", "x |> ² y1", "y٣ |> y٠", "y1_2", "xy1", "yx", "x )) z",
     "y4 |> ) z", "(((x |> y1 )) |> (y2 |> (y4)))", "x |> y9 |> (", "y1 |> y2 y3 )", "y" + "9" * 5000],
)
def test_parse_errors_match_reference(text):
    for allow_aux in (True, False):
        assert _outcome(terms.parse, text, 3, allow_aux) == _outcome(parse_reference, text, 3, allow_aux)


@pytest.mark.parametrize("text, position", [("y²", 1), ("y٣", 1), ("x |> y1²", 7), ("y0٣", 2)])
def test_generator_digits_are_ascii(text, position):
    with pytest.raises(TermSyntaxError) as exc:
        terms.parse(text, 3)
    assert exc.value.position == position
    assert not is_gen(text.split()[-1])


def test_overlong_generator_index_is_a_syntax_error():
    for text, position in (("y" + "9" * 5000, 0), ("x |> y" + "0" * 4300 + "1", 5)):
        with pytest.raises(TermSyntaxError) as exc:
            terms.parse(text, 3)
        assert exc.value.position == position


def test_parse_deep_parentheses():
    text = "(" * 3000 + "x |> (y1)" + ")" * 3000
    assert terms.render(terms.parse(text, 1)) == "x |> y1"
    with pytest.raises(TermSyntaxError) as exc:
        terms.parse(text[:-1], 1)
    assert exc.value.position == len(text) - 1


def test_parse_and_render_deep_chains():
    left = "x" + " |> y1 |>~ y2" * 1500
    right = "y1 |> (" * 2998 + "y1 |> y2" + ")" * 2998
    for text in (left, right):
        assert terms.render(terms.parse(text, 2)) == text
    t = Atom("x")
    for i in range(3000):
        t = Node(1 if i % 3 else -1, t, Atom("y1"))
    assert terms.render(terms.parse(terms.render(t), 1)) == terms.render(t)



def test_parse_left_associative():
    assert terms.parse("x |> y1 |>~ y2", 2) == Node(-1, Node(1, Atom("x"), Atom("y1")), Atom("y2"))


def test_parse_single_atom():
    assert terms.parse("x", 0) == Atom("x")


def test_parse_out_of_range_generator():
    with pytest.raises(UnknownGeneratorError) as exc:
        terms.parse("y3", 2)
    assert exc.value.index == 3
    with pytest.raises(UnknownGeneratorError):
        terms.parse("y0", 2)


def test_parse_parentheses():
    t = terms.parse("x |> (y1 |> y2)", 2)
    assert t == Node(1, Atom("x"), Node(1, Atom("y1"), Atom("y2")))


def test_parse_whitespace_insignificant():
    assert terms.parse("x|>y1", 1) == terms.parse("  x  |>  y1  ", 1)


@pytest.mark.parametrize(
    "text",
    ["", "x |>", "(x |> y1", "x )", "z", "x2", "y", "x |> |> y1", "x y1"],
)
def test_parse_errors_report_position(text):
    with pytest.raises(TermSyntaxError) as exc:
        terms.parse(text, 2)
    assert exc.value.position >= 0


@pytest.mark.parametrize("text, position", [("y9 |> §", 6), (") §", 2)])
def test_a_stray_character_is_reported_before_an_earlier_error(text, position):
    with pytest.raises(TermSyntaxError, match="unexpected character '§'") as exc:
        terms.parse(text, 3)
    assert exc.value.position == position


def test_an_unknown_generator_is_reported_before_a_later_syntax_error():
    with pytest.raises(UnknownGeneratorError) as exc:
        terms.parse("y9 |> )", 3)
    assert (exc.value.index, exc.value.n) == (9, 3)


def test_parse_rejects_aux_when_asked():
    assert terms.parse("x0 |> x1", 0) == Node(1, Atom("x0"), Atom("x1"))
    with pytest.raises(TermSyntaxError):
        terms.parse("x0 |> x1", 0, allow_aux=False)


def test_atoms_remembered_across_calls_are_checked_again():
    # an atom that passed once must not pass under another count or setting
    assert terms.parse("y3", 3) == Atom("y3")
    with pytest.raises(UnknownGeneratorError):
        terms.parse("y3", 2)
    assert terms.parse("x0", 1) == Atom("x0")
    with pytest.raises(TermSyntaxError) as exc:
        terms.parse("x0", 1, allow_aux=False)
    assert exc.value.position == 0
    assert terms.parse("y01", 1) == terms.parse("y1", 1) == Atom("y1")
    # an error is raised anew, at its own position, each time
    for _ in range(2):
        with pytest.raises(TermSyntaxError) as exc:
            terms.parse("y1 |> (x |> x0 |> y1", 1, allow_aux=False)
        assert str(exc.value) == "auxiliary atom 'x0' not allowed (at position 12)"
    for _ in range(2):
        with pytest.raises(TermSyntaxError) as exc:
            terms.parse("x |> y1 |>", 1)
        assert str(exc.value) == "unexpected end of input (at position 10)"


# --- letters ---------------------------------------------------------------

def test_letter_order_and_generator_indices():
    letters = ["y10", "x1", "y2", "x", "y1", "x0"]
    assert sorted(letters, key=terms.letter_key) == ["x", "x0", "x1", "y1", "y2", "y10"]
    assert (terms.letter_key(X0), terms.letter_key(X1)) == ((1, 0), (2, 0))
    assert gen_index("y10") == 10
    with pytest.raises(ValueError, match="not a generator letter: 'x'"):
        gen_index(X)


def test_repr_spells_out_the_tree():
    t = Node(-1, Node(1, Atom("x"), Atom("y1")), Atom("y2"))
    assert repr(t) == "Node(-1, Node(+1, Atom('x'), Atom('y1')), Atom('y2'))"


# --- rendering -------------------------------------------------------------

def test_render_examples():
    assert terms.render(Node(1, Atom("x"), Atom("y1"))) == "x |> y1"
    assert terms.render(Node(1, Atom("x"), Node(1, Atom("y1"), Atom("y2")))) == "x |> (y1 |> y2)"
    assert terms.render(Atom("x0")) == "x0"


def test_round_trip_all_small_terms():
    for t in terms.enumerate_terms(("x", "y1", "y2"), 7):
        assert terms.parse(terms.render(t), 2) == t


@given(_terms_strategy())
def test_round_trip_random(t):
    assert terms.parse(terms.render(t), 2) == t


# --- substitution ----------------------------------------------------------

def test_subst_examples():
    s = Node(1, Atom("x"), Atom("y2"))
    assert terms.subst(Atom("x"), s, "x") == s
    assert terms.subst(Atom("y1"), s, "x") == Atom("y1")
    assert terms.subst(Node(1, Atom("x"), Atom("y1")), s, "x") == Node(1, s, Atom("y1"))


@given(_terms_strategy())
def test_subst_identity(t):
    assert terms.subst(t, Atom("x"), "x") == t


@given(_terms_strategy(), _terms_strategy(letters=("x", "y1")), _terms_strategy(letters=("y2",)))
def test_subst_composition(t, s, r):
    # s avoids y2, so substituting y2 first or last agrees
    lhs = terms.subst(terms.subst(t, s, "x"), r, "y2")
    rhs = terms.subst(terms.subst(t, r, "y2"), terms.subst(s, r, "y2"), "x")
    assert lhs == rhs


@given(_terms_strategy(), _terms_strategy())
def test_leftmost_after_substitution(t, s):
    expected = terms.left_of(s) if terms.left_of(t) == "x" else terms.left_of(t)
    assert terms.left_of(terms.subst(t, s, "x")) == expected


def test_left_of_examples():
    assert terms.left_of(Atom("y2")) == "y2"
    assert terms.left_of(terms.parse("(x |> y1) |>~ y2", 2)) == "x"
    assert terms.left_of(terms.parse("y1 |> x", 1)) == "y1"


def subst_reference(t, s, target):
    """Reference: substitution by structural recursion."""
    if isinstance(t, Atom):
        return s if t.letter == target else t
    return Node(t.sign, subst_reference(t.left, s, target), subst_reference(t.right, s, target))


def subst_many_reference(t, mapping):
    """Reference: simultaneous substitution by structural recursion."""
    if isinstance(t, Atom):
        return mapping.get(t.letter, t)
    return Node(t.sign, subst_many_reference(t.left, mapping), subst_many_reference(t.right, mapping))


_TARGETS = st.sampled_from(("x", "x0", "y1", "y2", "y3"))


@given(_terms_strategy(letters=("x", "x0", "y1", "y2")), _terms_strategy(letters=("x", "y1", "y3")), _TARGETS)
def test_subst_matches_reference(t, s, target):
    assert terms.subst(t, s, target) == subst_reference(t, s, target)


@given(
    _terms_strategy(letters=("x", "x0", "y1", "y2")),
    st.dictionaries(_TARGETS, _terms_strategy(letters=("x", "y1", "y3")), max_size=4),
)
def test_subst_many_matches_reference(t, mapping):
    assert terms.subst_many(t, mapping) == subst_many_reference(t, mapping)


def test_subst_deep_terms():
    chain, nested = Atom("x"), Atom("x")
    for i in range(3000):
        chain = Node(1 if i % 3 else -1, chain, Atom("y1"))
        nested = Node(1, Atom("y1"), nested)
    s = Node(1, Atom("y2"), Atom("x"))
    # x stands left in the chain and right in the nested term; Node equality
    # recurses, so the deep results are compared as text
    for t, spelled in ((chain, "y2 |> x"), (nested, "(y2 |> x)")):
        assert terms.render(terms.subst(t, s, "x")) == terms.render(t).replace("x", spelled)
        assert terms.subst_many(t, {"y2": s}) is t


# Node's dataclass-generated __eq__ and __hash__ recurse; strict, so that
# the marker must go when they stop recursing (ROADMAP item 6, Step A)
@pytest.mark.xfail(raises=RecursionError, strict=True)
def test_hash_and_equality_of_deep_terms():
    text = "x" + " |> y1" * 3000
    t, again = terms.parse(text, 1), terms.parse(text, 1)
    assert hash(t) == hash(again)
    assert t == again
    assert t != terms.parse(text + " |> y1", 1)


def size_reference(t):
    """Reference: size by structural recursion."""
    return 1 if isinstance(t, Atom) else 1 + size_reference(t.left) + size_reference(t.right)


def atoms_reference(t):
    """Reference: atom letters by structural recursion."""
    return {t.letter} if isinstance(t, Atom) else atoms_reference(t.left) | atoms_reference(t.right)


@given(_terms_strategy(letters=("x", "x0", "y1", "y2")))
def test_size_and_atoms_of_match_reference(t):
    assert terms.size(t) == size_reference(t)
    assert terms.atoms_of(t) == atoms_reference(t)


def test_size_and_atoms_of_deep_terms():
    chain, nested = Atom("x"), Atom("x")
    for i in range(3000):
        chain = Node(1 if i % 3 else -1, chain, Atom("y1"))
        nested = Node(1, Atom(f"y{1 + i % 2}"), nested)
    assert terms.size(chain) == terms.size(nested) == 6001
    assert terms.atoms_of(chain) == {"x", "y1"}
    assert terms.atoms_of(nested) == {"x", "y1", "y2"}


@given(_terms_strategy(letters=("x", "y1", "y2")))
def test_subst_keeps_unchanged_subterms(t):
    assert terms.subst(t, Atom("x"), "y3") is t
    image = terms.subst_many(t, {"y1": Atom("y2")})
    if isinstance(t, Node) and isinstance(image, Node):
        for old, new in ((t.left, image.left), (t.right, image.right)):
            assert (new is old) == ("y1" not in terms.atoms_of(old))


def test_subst_many_is_simultaneous():
    t = terms.parse("y1 |> y2", 2)
    swapped = terms.subst_many(t, {"y1": Atom("y2"), "y2": Atom("y1")})
    assert swapped == terms.parse("y2 |> y1", 2)


# --- enumeration -----------------------------------------------------------

def _count_by_recurrence(alphabet_size, max_size):
    counts = {1: alphabet_size}
    for k in range(3, max_size + 1, 2):
        counts[k] = sum(2 * counts[i] * counts[k - 1 - i] for i in range(1, k - 1, 2))
    return sum(counts.values())


def test_enumerate_smallest():
    assert list(terms.enumerate_terms(("x",), 1)) == [Atom("x")]
    assert list(terms.enumerate_terms(("x",), 3)) == [
        Atom("x"),
        Node(1, Atom("x"), Atom("x")),
        Node(-1, Atom("x"), Atom("x")),
    ]


@pytest.mark.parametrize("letters", [("y1",), ("x", "y1"), ("x", "y1", "y2")])
@pytest.mark.parametrize("max_size", [1, 3, 5, 7])
def test_enumerate_counts_match_recurrence(letters, max_size):
    out = list(terms.enumerate_terms(letters, max_size))
    assert len(out) == _count_by_recurrence(len(letters), max_size)
    assert len(set(out)) == len(out)
    assert all(terms.size(t) <= max_size for t in out)


def test_enumerate_count_frozen_values():
    # 1 + 2 + 8 terms of sizes 1, 3, 5 over one letter
    assert len(list(terms.enumerate_terms(("y1",), 5))) == 11


def test_enumerate_deterministic():
    a = list(terms.enumerate_terms(("x", "y1"), 5))
    b = list(terms.enumerate_terms(("y1", "x"), 5))
    assert a == b


def test_enumerate_rejects_bounds_that_give_no_term():
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        list(terms.enumerate_terms((), 3))
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        list(terms.enumerate_terms(("x",), 0))


def test_random_term_rejects_max_size_below_one():
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        terms.random_term(random.Random(7), ("x", "y1"), 0)


def test_random_term_reproducible():
    a = [terms.random_term(random.Random(7), ("x", "y1"), 5) for _ in range(20)]
    b = [terms.random_term(random.Random(7), ("x", "y1"), 5) for _ in range(20)]
    assert a == b
    assert all(terms.size(t) in (1, 3, 5) for t in a)
