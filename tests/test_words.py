import itertools
from array import array

import pytest
from hypothesis import given, strategies as st

from quandles import words
from quandles.terms import X, X0, X1, gen


def naive_reduce(word):
    """Oracle: delete one cancelling pair at a time until none is left."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]:
                del w[i : i + 2]
                changed = True
                break
    return tuple(w)


def _signed(letters=("y1", "y2"), max_size=8):
    return st.lists(
        st.tuples(st.sampled_from(letters), st.sampled_from((1, -1))), max_size=max_size
    ).map(tuple)


Y1 = ("y1", 1)
Y1I = ("y1", -1)
Y2 = ("y2", 1)
Y2I = ("y2", -1)


# --- reduction -------------------------------------------------------------

def test_reduce_examples():
    assert words.reduce((Y1, Y1I)) == ()
    assert words.reduce((Y1, Y2, Y2I, Y1I, Y1)) == naive_reduce((Y1, Y2, Y2I, Y1I, Y1)) == (Y1,)
    assert words.reduce((("x", 1), Y1)) == (("x", 1), Y1)


@given(_signed())
def test_reduce_matches_oracle(w):
    assert words.reduce(w) == naive_reduce(w)


@given(_signed())
def test_reduce_idempotent_and_shrinking(w):
    r = words.reduce(w)
    assert words.reduce(r) == r
    assert len(r) <= len(w)
    assert words.is_reduced(r)


def test_all_short_words_reduce_like_oracle():
    letters = [("y1", 1), ("y1", -1), ("y2", 1), ("y2", -1)]
    for n in range(0, 5):
        for w in itertools.product(letters, repeat=n):
            assert words.reduce(w) == naive_reduce(w)


# --- group operations ------------------------------------------------------

def test_mul_examples():
    assert words.mul((Y1,), (Y1I,)) == ()
    assert words.mul((), (Y1, Y1I, Y2)) == (Y2,)
    assert words.mul((Y1, Y2), (Y2I, Y1)) == (Y1, Y1)


def test_letter_rejects_an_exponent_other_than_one():
    with pytest.raises(ValueError, match=r"exponent must be \+1 or -1, got 2"):
        words.letter("y1", 2)


def test_inv_examples():
    assert words.inv((Y1, Y2I)) == (Y2, Y1I)
    assert words.inv(()) == ()
    assert words.inv((("x", 1), ("x", 1))) == (("x", -1), ("x", -1))


def test_group_laws_exhaustive():
    universe = list(words.enumerate_reduced(("y1", "y2"), 3))
    assert len(universe) == 1 + 4 + 12 + 36
    for u, v in itertools.product(universe, repeat=2):
        assert words.mul(words.mul(u, v), words.inv(v)) == u
    for u, v, w in itertools.product(universe, repeat=3):
        assert words.mul(words.mul(u, v), w) == words.mul(u, words.mul(v, w))
    for u in universe:
        assert words.mul(u, ()) == u == words.mul((), u)
        assert words.mul(u, words.inv(u)) == ()


def _compact(word, codes):
    """``word`` as a compact word, numbering new names down from the top of
    the code range, so that the codes use every byte."""
    out = array("i")
    for name, e in word:
        if name not in codes:
            codes[name] = 2**31 - 1 - len(codes)
        out.append(codes[name] if e == 1 else ~codes[name])
    return out


@given(
    _signed(letters=("x", "y1", "y2"), max_size=24).map(words.reduce),
    _signed(letters=("x", "y1", "y2"), max_size=24).map(words.reduce),
    st.tuples(st.sampled_from(("x", "y1", "y2")), st.sampled_from((1, -1))),
)
def test_conjugate_onto_matches_mul(tail, w, signed):
    codes = {}
    compact_tail, compact_w = _compact(tail, codes), _compact(w, codes)
    (c,) = _compact((signed,), codes)
    words.conjugate_onto(compact_tail, compact_w, c)
    assert words.decode(compact_tail, codes) == words.mul(tail, words.inv(w), (signed,), w)
    assert words.decode(compact_w, codes) == w


def test_letter_codes_are_indices_and_invert_by_the_mask():
    # the mask is all 32 bits: the inverse of code i is ~i
    for index in (0, 1, 127, 128, 2**31 - 1):
        tail, w, c = array("i"), array("i", [index]), 0 if index else 1
        words.conjugate_onto(tail, w, c)  # w^-1 is inverted in bulk
        assert list(tail) == [~index, c, index]
        assert ~index != index == ~~index
    assert array("i").itemsize == 4


@given(_signed())
def test_inverse_cancels(w):
    assert words.mul(w, words.inv(w)) == ()
    assert words.mul(words.inv(w), w) == ()


# --- substitution ----------------------------------------------------------

def test_subst_examples():
    assert words.subst((("x", 1),), (Y1, Y2), "x") == (Y1, Y2)
    assert words.subst((("x", -1),), (Y1,), "x") == (Y1I,)
    conjugator = (Y1I, ("x", 1), Y1)
    assert words.subst((Y1, ("x", 1), Y1I), conjugator, "x") == (("x", 1),)


@given(_signed(letters=("x", "y1")), _signed())
def test_subst_commutes_with_inverse(u, v):
    assert words.inv(words.subst(u, v, "x")) == words.subst(words.inv(u), v, "x")


# --- reduced-word structure ------------------------------------------------

def test_single_positive_x_when_substitutions_commute():
    # If s[x1/x] * s[conj/x] equals s[x0/x] * s[x1/x] in the free group,
    # s can mention x at most once, positively.
    conj = ((X1, -1), (X0, 1), (X1, 1))
    holders = 0
    for s in words.enumerate_reduced((X, gen(1)), 6):
        lhs = words.mul(words.subst(s, ((X1, 1),), X), words.subst(s, conj, X))
        rhs = words.mul(words.subst(s, ((X0, 1),), X), words.subst(s, ((X1, 1),), X))
        if lhs == rhs:
            holders += 1
            occurrences = [(l, e) for l, e in s if l == X]
            assert len(occurrences) <= 1
            assert all(e == 1 for _, e in occurrences)
    assert holders > 0


XP = (X, 1)
XI = (X, -1)


@pytest.mark.parametrize(
    "word, z, rest",
    [
        ((XP, XP, Y1, XI), 2, (Y1, XI)),  # a positive run
        ((XI, XI, XI, Y2), -3, (Y2,)),  # a negative run
        ((Y1, XP, XP), 0, (Y1, XP, XP)),  # no leading run
        ((XI, XI), -2, ()),  # the whole word is the run
        ((), 0, ()),
        ((Y1, Y2I), 0, (Y1, Y2I)),  # the target does not occur
    ],
)
def test_split_leading_run(word, z, rest):
    assert words.split_leading_run(word, X) == (z, rest)


# --- syntax and JSON -------------------------------------------------------

def test_word_render():
    assert words.render(()) == "e"
    assert words.render((Y1, Y1I, ("x", 1), ("x", -1))) == "y1 y1^-1 x x^-1"


def test_word_json_round_trip():
    w = (Y1, Y2, Y2, Y1I)
    assert words.from_json(words.to_json(w)) == w
    with pytest.raises(ValueError):
        words.from_json([["y1", 2]])
    with pytest.raises(ValueError):
        words.from_json([["x", 1]])
    with pytest.raises(ValueError, match="bad word entry"):
        words.from_json([["y1"]])
    # each spelling is read as the term parser reads it, however often it recurs
    assert words.from_json([["y01", 1], ["y1", -1], ["y01", -1]]) == (Y1, Y1I, Y1I)
    with pytest.raises(ValueError, match="generator index must be >= 1"):
        words.from_json([["y1", 1], ["y0", 1]])
    for exponent in (True, 1.0, -1.0):  # equal to 1 or -1, but not the int
        with pytest.raises(ValueError, match="bad word entry"):
            words.from_json([["y1", exponent]])


def test_enumerate_reduced_is_reduced_and_complete():
    out = list(words.enumerate_reduced(("y1",), 4))
    assert all(words.is_reduced(w) for w in out)
    # over one letter: e, y1^k and y1^-k for k = 1..4
    assert len(out) == 9
