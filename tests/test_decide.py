import os
import random
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st
from test_rewrite import _positions_reference, _replace_at_reference
from test_translate import recursive_rack_image

from quandles import compressed, decide, rewrite, terms, translate, words
from quandles.decide import QUANDLE, RACK
from quandles.terms import X, Atom, Node, enumerate_terms, gen, parse, random_term, render


def q(text, n=2):
    return parse(text, n)


def test_quandle_idempotence_and_cancellation():
    assert decide.quandle_equal(q("y1 |> y1"), q("y1"))
    assert decide.quandle_equal(q("(x |> y1) |>~ y1"), q("x"))
    assert not decide.quandle_equal(q("x |> y1"), q("x |> y2"))


def test_self_distributivity_is_right_handed():
    # (a |> b) |> c = (a |> c) |> (b |> c) holds in both theories; the
    # left-handed variant a |> (b |> c) = (a |> b) |> (a |> c) does not hold
    # under the conjugation-style operations.
    lhs = q("(x |> y1) |> y2")
    rhs = q("(x |> y2) |> (y1 |> y2)")
    assert decide.quandle_equal(lhs, rhs)
    assert decide.rack_equal(lhs, rhs)
    left_lhs = q("x |> (y1 |> y2)")
    left_rhs = q("(x |> y1) |> (x |> y2)")
    assert not decide.quandle_equal(left_lhs, left_rhs)
    assert not decide.rack_equal(left_lhs, left_rhs)


def test_rack_rejects_idempotence_but_keeps_cancellation():
    assert not decide.rack_equal(q("y1 |> y1", 1), q("y1", 1))
    assert decide.rack_equal(q("(x |> y1) |>~ y1"), q("x"))
    assert decide.rack_equal(q("x |> x |>~ x", 0), q("x", 0))


def test_axiom_soundness_sample():
    rng = random.Random(0)
    alphabet = (gen(1), gen(2), gen(3))
    for _ in range(200):
        a = random_term(rng, alphabet, 6)
        b = random_term(rng, alphabet, 6)
        c = random_term(rng, alphabet, 6)
        for sign in (1, -1):
            dist_l = Node(sign, Node(sign, a, b), c)
            dist_r = Node(sign, Node(sign, a, c), Node(sign, b, c))
            assert decide.quandle_equal(dist_l, dist_r)
            assert decide.rack_equal(dist_l, dist_r)
        assert decide.quandle_equal(Node(-1, Node(1, a, b), b), a)
        assert decide.rack_equal(Node(1, Node(-1, a, b), b), a)
        assert decide.quandle_equal(Node(1, a, a), a)
        assert not decide.rack_equal(Node(1, a, a), a)
        assert not decide.rack_equal(Node(-1, a, a), a)


def test_equality_is_a_congruence():
    rng = random.Random(1)
    alphabet = (gen(1), gen(2))
    for theory in (QUANDLE, RACK):
        checked = 0
        for _ in range(40):
            a = random_term(rng, alphabet, 5)
            c = random_term(rng, alphabet, 5)
            for b in rewrite.rewrite_closure(a, theory, 2):
                assert decide.term_equal(a, b, theory)
                for sign in (1, -1):
                    assert decide.term_equal(Node(sign, a, c), Node(sign, b, c), theory)
                    assert decide.term_equal(Node(sign, c, a), Node(sign, c, b), theory)
                checked += 1
        assert checked > 30  # non-vacuity: closures really produced equal pairs


def test_rack_equality_implies_quandle_equality():
    rng = random.Random(2)
    alphabet = (gen(1), gen(2))
    pairs = 0
    for _ in range(40):
        a = random_term(rng, alphabet, 5)
        for b in rewrite.rewrite_closure(a, RACK, 2):
            assert decide.quandle_equal(a, b)
            pairs += 1
    for s in enumerate_terms(alphabet, 5):
        for t in enumerate_terms(alphabet, 3):
            if decide.rack_equal(s, t):
                assert decide.quandle_equal(s, t)
                pairs += 1
    assert pairs > 50


# --- agreement with the recursive reference, over small and large alphabets --

# Alphabets whose letters need one, two and four bytes each in a compact
# encoding of seven bits per byte (up to 128, 16,384 and 2^28 letters).
ALPHABETS = {n: (X,) + tuple(gen(i) for i in range(1, n)) for n in (4, 200, 20000)}


def _cover(alphabet):
    """``x |> a1 |>~ a1 |> a2 |>~ a2 ...`` through the rest of the alphabet,
    which is ``x`` by the cancellation axiom."""
    chain = Atom(X)
    for letter in alphabet[1:]:
        chain = Node(-1, Node(1, chain, Atom(letter)), Atom(letter))
    return chain


COVERS = {n: _cover(letters) for n, letters in ALPHABETS.items()}


def _padded(t, cover):
    """``t`` with its head atom h replaced by ``(h |> cover) |>~ x``.

    The cover equals ``x``, so the replacement is ``(h |> x) |>~ x = h`` by
    the cancellation axiom, in both theories, and the padded term has the
    reference key of ``t``.  A left-to-right walk meets every letter of the
    cover before the right children of ``t``.
    """
    spine = []
    while isinstance(t, Node):
        spine.append(t)
        t = t.left
    t = Node(-1, Node(1, t, cover), Atom(X))
    for node in reversed(spine):
        t = Node(node.sign, t, node.right)
    return t


def _reference_key(t, theory):
    """The key of the structural-recursion reference: the rack normal form,
    whose tail for quandles loses its leading run of the head."""
    head, tail = recursive_rack_image(t)
    if theory == QUANDLE:
        i = 0
        while i < len(tail) and tail[i][0] == head:
            i += 1
        tail = tail[i:]
    return head, tail


@st.composite
def _balanced_terms(draw, letters, max_leaves=40):
    """A term over ``letters`` whose every node puts between a quarter and
    three quarters of its leaves on the left, so that its depth is
    logarithmic and the recursive reference stays shallow."""
    leaves = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=max_leaves))

    def build(lo, hi):
        if hi - lo == 1:
            return Atom(leaves[lo])
        margin = max(1, (hi - lo) // 4)
        cut = draw(st.integers(lo + margin, hi - margin))
        return Node(draw(st.sampled_from((1, -1))), build(lo, cut), build(cut, hi))

    return build(0, len(leaves))


def _check_against_reference(data, alphabet_size):
    letters, cover = ALPHABETS[alphabet_size], COVERS[alphabet_size]
    theory = data.draw(st.sampled_from((QUANDLE, RACK)))
    s = data.draw(_balanced_terms(letters))
    if data.draw(st.booleans()):
        # an equal pair: up to three axiom steps away
        t = s
        for _ in range(data.draw(st.integers(1, 3))):
            steps = rewrite.rewrite_steps(t, theory)
            if steps:
                t = steps[data.draw(st.integers(0, len(steps) - 1))][1]
        assert _reference_key(s, theory) == _reference_key(t, theory)
    else:
        t = data.draw(_balanced_terms(letters))
    key_s, key_t = _reference_key(s, theory), _reference_key(t, theory)
    assert translate.normal_form(s, theory) == key_s
    assert translate.normal_form(t, theory) == key_t
    # padded first, so that in one call the letters of both terms come
    # after the whole alphabet in the order a walk meets them
    padded = _padded(s, cover)
    assert translate.normal_form(padded, theory) == key_s
    named = decide.quandle_equal if theory == QUANDLE else decide.rack_equal
    equal = data.draw(st.sampled_from((named, lambda a, b: decide.term_equal(a, b, theory))))
    assert equal(padded, t) == (key_s == key_t)


@pytest.mark.parametrize("alphabet_size", [4, 200])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deciders_match_recursive_reference(alphabet_size, data):
    _check_against_reference(data, alphabet_size)


# few examples: each padded walk meets 20,000 names
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_deciders_match_recursive_reference_on_a_wide_alphabet(data):
    _check_against_reference(data, 20000)


# --- the head's code, after the names of the tails -------------------------

def _chain(head, signed):
    """``head |>^e1 l1 |>^e2 l2 ...`` for ``signed`` = [(l1, e1), ...]; its
    rack tail is ``l1^e1 l2^e2 ...``, the letters a walk meets in order."""
    t = Atom(head)
    for letter, sign in signed:
        t = Node(sign, t, Atom(letter))
    return t


@pytest.mark.parametrize("tail_names", [128, 127])
def test_the_head_takes_a_code_at_the_width_boundary(tail_names):
    # The tails meet their names first, so the head is the last name to get
    # a code: the 129th when the tails use 128.  Read as the inverse of the
    # first name met, a^-1, which s uses, the head would make the quandle
    # keys of s and of t, whose tail is a^-1 * tail(s), agree.
    a, *rest = [gen(i) for i in range(1, tail_names + 1)]
    head = gen(tail_names + 1)
    tail = [(a, -1)] + [(name, 1) for name in rest]
    s, t = _chain(head, tail), _chain(head, [(a, -1)] + tail)
    idempotent = _chain(head, [(head, 1)] + tail)  # equal to s in the free quandle only
    for theory in (QUANDLE, RACK):
        for u in (s, t, idempotent):
            assert translate.normal_form(u, theory) == _reference_key(u, theory)
        for u in (t, idempotent):
            equal = _reference_key(s, theory) == _reference_key(u, theory)
            assert equal == (theory == QUANDLE and u is idempotent)
            named = decide.quandle_equal if theory == QUANDLE else decide.rack_equal
            assert named(s, u) == decide.term_equal(s, u, theory) == equal
    assert translate.rack_image(s) == recursive_rack_image(s)


# --- right-nested terms, whose normal forms double with each level ----------

def right_nested(k, inner_sign=1):
    """``y1 |> (y2 |> (... |> yk))``, the innermost operation of sign
    ``inner_sign``; its rack tail has 2^(k-1) - 1 letters."""
    t = Node(inner_sign, Atom(gen(k - 1)), Atom(gen(k)))
    for i in range(k - 2, 0, -1):
        t = Node(1, Atom(gen(i)), t)
    return t


@pytest.mark.parametrize("theory, k", [(QUANDLE, 24), (RACK, 25)])
def test_deep_right_nested_terms(theory, k):
    t = right_nested(k)
    assert decide.term_equal(t, Node(-1, Node(1, t, Atom(gen(1))), Atom(gen(1))), theory)
    assert not decide.term_equal(t, right_nested(k, inner_sign=-1), theory)


# --- one term against many, in one pass -------------------------------------

def _near_miss(t, data):
    """``t`` with one node's sign flipped or one atom's letter changed."""
    path, u = data.draw(st.sampled_from(list(_positions_reference(t))))
    if isinstance(u, Node):
        return _replace_at_reference(t, path, Node(-u.sign, u.left, u.right))
    others = [letter for letter in ALPHABETS[4] if letter != u.letter]
    return _replace_at_reference(t, path, Atom(data.draw(st.sampled_from(others))))


@pytest.mark.parametrize("theory", [QUANDLE, RACK])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_to_answers_as_term_equal_pair_by_pair(theory, data):
    letters = ALPHABETS[4]
    t = data.draw(_balanced_terms(letters, max_leaves=8))
    terms = [t, t]  # t itself, and the same object again
    for _ in range(data.draw(st.integers(0, 4))):  # partners a few axiom steps away
        u = t
        for _ in range(data.draw(st.integers(1, 3))):
            steps = rewrite.rewrite_steps(u, theory)
            if steps:
                u = steps[data.draw(st.integers(0, len(steps) - 1))][1]
        terms += [u, _near_miss(u, data)]
    terms += data.draw(st.lists(_balanced_terms(letters, max_leaves=8), max_size=3))
    past_the_cap = data.draw(st.booleans())
    if past_the_cap:
        terms.append(right_nested(24))
    terms = data.draw(st.permutations(terms))
    # with the right-nested term, the one pass gives up and each pair is decided alone
    assert _gives_up(translate.compact_keys, (t, *terms), theory) == past_the_cap
    assert decide.equal_to(t, terms, theory) == [decide.term_equal(t, u, theory) for u in terms]
    assert decide.equal_to(t, iter(terms), theory) == decide.equal_to(t, terms, theory)
    assert decide.equal_to(t, [], theory) == []


def test_threads_answer_as_a_serial_run():
    rng = random.Random(2026)
    pairs = []
    for letters in (ALPHABETS[4], ALPHABETS[200]):
        for _ in range(20):
            s = random_term(rng, letters, 15)
            pairs += [(s, random_term(rng, letters, 15)), (s, _rewritten(s, QUANDLE, rng, 3))]
    deep = right_nested(24)  # past the wall: decided through the model and the compressed forms
    deep_pairs = [
        (deep, Node(-1, Node(1, deep, Atom(gen(1))), Atom(gen(1)))),
        (deep, right_nested(24, inner_sign=-1)),
    ]

    def answers():
        return [decide.term_equal(s, t, theory) for s, t in pairs + deep_pairs for theory in (QUANDLE, RACK)] + [
            translate.normal_form(t, theory) for pair in pairs for t in pair for theory in (QUANDLE, RACK)
        ]

    start = threading.Barrier(4)

    def together():
        start.wait(timeout=10)
        return answers()

    with ThreadPoolExecutor(4) as pool:
        threaded = [f.result() for f in [pool.submit(together) for _ in range(4)]]
    serial = answers()
    assert serial[len(pairs) * 2 :][:4] == [True, True, False, False]
    assert all(result == serial for result in threaded)


def test_threads_parse_as_a_serial_run():
    # four threads fill the parser's atom caches at once, for terms and for
    # the text pass; keyed together, the parsed terms meet more than 128
    # names
    rng = random.Random(2027)
    texts = [render(random_term(rng, ALPHABETS[200], 31)) for _ in range(40)] + [
        "y1 |>", "(y1 |> y2", "y1 |> |> y2", "y1 ) y2", "y1 |> y²", "x |> q", "y0 |> x", "y201 |> y1",
        "x |> y" + "9" * 5000,
    ]

    def answers():
        out, parsed = [], []
        for text in texts:
            try:
                parsed.append(parse(text, 200))
            except ValueError as exc:
                out.append((type(exc).__name__, str(exc), getattr(exc, "position", None)))
            else:
                out.append(render(parsed[-1]))
        decided = [_outcome(decide.text_equal, s, t, 200, theory) for s, t in zip(texts, texts[1:])
                   for theory in (QUANDLE, RACK)]
        return out, [translate.compact_keys(parsed, theory) for theory in (QUANDLE, RACK)], decided

    start = threading.Barrier(4)

    def together():
        start.wait(timeout=10)
        return answers()

    terms._atom.cache_clear()
    with ThreadPoolExecutor(4) as pool:
        threaded = [f.result() for f in [pool.submit(together) for _ in range(4)]]
    serial = answers()
    rendered, keys, decided = serial
    assert decided == [_outcome(_parsed_and_decided, s, t, 200, theory) for s, t in zip(texts, texts[1:])
                       for theory in (QUANDLE, RACK)]
    assert rendered[:40] == texts[:40]
    kinds = ["TermSyntaxError"] * 6 + ["UnknownGeneratorError"] * 2 + ["TermSyntaxError"]
    assert [answer[0] for answer in rendered[40:]] == kinds
    assert all(type(tail) is array and tail.typecode == "i" for theory_keys in keys for _, tail in theory_keys)
    assert all(result == serial for result in threaded)


# --- deciding from text: one pass, or parse and term_equal -----------------

def _outcome(decider, *args):
    """What ``decider(*args)`` gives: its verdict, or the type, message and
    position of the ``ValueError`` it raises."""
    try:
        return decider(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _parsed_and_decided(s, t, n, theory, allow_aux=True):
    return decide.term_equal(parse(s, n, allow_aux), parse(t, n, allow_aux), theory)


@pytest.fixture(scope="module")
def term_fragments():
    # imported here, not at the top: test_cli_fuzz imports test_cli, which imports this module
    from test_cli_fuzz import TERM_FRAGMENTS

    return TERM_FRAGMENTS


def _past_128_names():
    """Two chains that meet a 129th name in their tails, as texts over 130
    generators: t ends in y1^-1 where s has y129."""
    tail = [(gen(i), 1) for i in range(1, 129)]
    return render(_chain(gen(130), tail + [(gen(129), 1)])), render(_chain(gen(130), tail + [(gen(1), -1)]))


@st.composite
def _text_pairs(draw, fragments):
    """Two term texts and a generator count: random terms over 4 or 200
    names, the second equal to the first, a near miss of it or another term;
    ``fragments`` glued together, most of them malformed; right-nested
    terms, which cross the cap from k = 13 on; or two chains that meet a
    129th name in their tails."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("names", "fragments", "right-nested", "129 names")))
    if kind == "129 names":
        return (*_past_128_names(), 130)
    if kind == "fragments":
        glued = st.lists(st.sampled_from(fragments), max_size=8).map("".join)
        return draw(glued), draw(glued), draw(st.integers(0, 3))
    if kind == "right-nested":
        k = draw(st.integers(2, 18))
        s = right_nested(k)
        others = (s, right_nested(k, inner_sign=-1), Node(-1, Node(1, s, Atom(gen(1))), Atom(gen(1))))
        return render(s), render(draw(st.sampled_from(others))), k
    letters = draw(st.sampled_from((ALPHABETS[4], ALPHABETS[200])))
    s = draw(_balanced_terms(letters))
    others = (s, _rewritten(s, RACK, rng, 2), _flipped(s, rng), Node(1, s, s), draw(_balanced_terms(letters)))
    t = draw(st.sampled_from(others))
    if letters is ALPHABETS[200] and draw(st.booleans()):
        s = _padded(s, COVERS[200])  # past the 128 names of one-byte codes
    return render(s), render(t), draw(st.sampled_from((len(letters) - 2, len(letters))))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_text_equal_answers_as_parse_and_term_equal(term_fragments, data):
    # the same verdict, or the same error with the same message and position
    s, t, n = data.draw(_text_pairs(term_fragments))
    args = (s, t, n, data.draw(st.sampled_from((QUANDLE, RACK))), data.draw(st.booleans()))
    assert _outcome(decide.text_equal, *args) == _outcome(_parsed_and_decided, *args)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_text_equal_answers_as_the_recursive_reference(term_fragments, data):
    # the text pass and the term walk share one node step, so the check on
    # the text pass must come from outside it
    s, t, n = data.draw(_text_pairs(term_fragments))
    try:
        parsed = parse(s, n), parse(t, n)
    except ValueError:
        return
    theory = data.draw(st.sampled_from((QUANDLE, RACK)))
    expected = _reference_key(parsed[0], theory) == _reference_key(parsed[1], theory)
    assert decide.text_equal(s, t, n, theory) == expected


def test_the_text_pass_takes_a_129th_name_without_parsing(monkeypatch):
    def parsed(*args):
        raise AssertionError("the texts were parsed")

    monkeypatch.setattr(decide, "parse", parsed)
    s, t = _past_128_names()
    for theory in (QUANDLE, RACK):
        assert not decide.text_equal(s, t, 130, theory)
        assert decide.text_equal(s, s, 130, theory)
        assert decide.text_equal(t, t, 130, theory)


def _gives_up(keys, *args):
    try:
        keys(*args)
    except translate.TailTooLong:
        return True
    return False


def test_the_text_pass_gives_up_where_the_term_walk_does():
    # the tail of a right-nested term doubles with each level; both walks
    # give up at the same depth, and there text_equal falls back
    seen = set()
    for k in range(2, 19):
        t = right_nested(k)
        gives_up = _gives_up(translate.compact_keys, (t,), RACK)
        assert _gives_up(translate.text_keys, (render(t),), k, True, RACK) == gives_up
        seen.add(gives_up)
    assert seen == {True, False}
    # the cap counts the nodes attached so far: a conjugate of 4,095 letters
    # attached at the 12th node is past it, however many nodes come after
    early = render(Node(1, Atom(X), right_nested(12)))
    for m in (0, 5, 20, 40):
        text = early + " |> y1 |>~ y2" * m
        assert _gives_up(translate.compact_keys, (parse(text, 12),), RACK)
        assert _gives_up(translate.text_keys, (text,), 12, True, RACK)


@pytest.mark.parametrize("theory", [QUANDLE, RACK])
def test_text_equal_past_the_cap_walks_no_built_term(monkeypatch, theory):
    # where the text pass gives up on a long tail, the parsed terms go
    # straight past the cap, with no second capped walk over them
    walks = []
    walk = translate._compact_images

    def counted(terms, capped=False):
        walks.append(capped)
        return walk(terms, capped)

    monkeypatch.setattr(translate, "_compact_images", counted)
    t = right_nested(24)
    cancelled = Node(-1, Node(1, t, Atom(gen(1))), Atom(gen(1)))
    for u, equal in ((cancelled, True), (right_nested(24, inner_sign=-1), False)):
        assert _gives_up(translate.text_keys, (render(t), render(u)), 24, True, theory)
        assert decide.text_equal(render(t), render(u), 24, theory) == equal
    assert walks == []


# --- the model in SL2(F_p), and the deciders' stop ---------------------------

SMALL_TERMS = list(enumerate_terms((X, gen(1), gen(2)), 5))


@pytest.mark.parametrize("theory", [QUANDLE, RACK])
def test_model_separates_exactly_the_unequal_small_terms(theory):
    # one walk numbers the letters of every term alike
    model = compressed.model_keys(SMALL_TERMS, theory)
    pairs = {(translate.normal_form(t, theory), m) for t, m in zip(SMALL_TERMS, model)}
    assert len(SMALL_TERMS) == 237
    assert len({key for key, _ in pairs}) == len(pairs) == len({m for _, m in pairs})


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_axiom_steps_keep_the_model_key(data):
    theory = data.draw(st.sampled_from((QUANDLE, RACK)))
    t = data.draw(_balanced_terms(ALPHABETS[4], max_leaves=12))
    for _, u in rewrite.rewrite_steps(t, theory):
        key_t, key_u = compressed.model_keys((t, u), theory)
        assert key_t == key_u


def test_rack_model_tells_a_self_operation_from_its_atom():
    s, t = q("y1 |> y1", 1), q("y1", 1)
    key_s, key_t = compressed.model_keys((s, t), RACK)
    assert key_s != key_t
    key_s, key_t = compressed.model_keys((s, t), QUANDLE)
    assert key_s == key_t


def test_the_stop_hands_over_to_the_model(monkeypatch):
    calls = []
    model = compressed.model_keys

    def counted(terms, theory):
        calls.append(theory)
        return model(terms, theory)

    monkeypatch.setattr(compressed, "model_keys", counted)
    s, t = q("x |> (y1 |> y2)"), q("x |> (y1 |>~ y2)")
    assert not decide.rack_equal(s, t)
    assert not calls  # a tail of one letter per node is under the cap
    monkeypatch.setattr(translate, "LETTERS_PER_NODE", 0)
    assert not decide.rack_equal(s, t)
    assert decide.quandle_equal(s, Node(1, s, s))
    assert calls == [RACK, QUANDLE]


# every call on a term with a composite right child takes the model path
@pytest.mark.parametrize("alphabet_size", [4, 200])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deciders_through_the_model_match_recursive_reference(alphabet_size, data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translate, "LETTERS_PER_NODE", 0)
        _check_against_reference(data, alphabet_size)


@pytest.mark.parametrize("theory, k", [(QUANDLE, 24), (RACK, 25)])
def test_deep_terms_when_the_model_always_agrees(monkeypatch, theory, k):
    # "equal" and "not-equal" then both come from the compressed normal forms
    monkeypatch.setattr(compressed, "model_keys", lambda terms, theory: [None] * len(terms))
    test_deep_right_nested_terms(theory, k)


def _forbid_the_uncapped_walk(monkeypatch):
    # a full normal form past the wall has at least 2^31 letters: fail, not build it
    walk = translate._compact_images

    def capped_only(terms, capped=False):
        assert capped, "the full normal forms were built"
        return walk(terms, capped)

    monkeypatch.setattr(translate, "_compact_images", capped_only)


@pytest.mark.parametrize("theory, k", [(QUANDLE, 32), (QUANDLE, 64), (RACK, 33), (RACK, 65)])
def test_near_misses_past_the_expansion_wall(monkeypatch, theory, k):
    _forbid_the_uncapped_walk(monkeypatch)
    s, t = right_nested(k), right_nested(k, inner_sign=-1)
    start = time.perf_counter()
    assert not decide.term_equal(s, t, theory)
    assert time.perf_counter() - start < 0.1


# --- compressed normal forms ---------------------------------------------------

def _uncancelled(t, rng):
    """``t`` with a random subterm ``s`` replaced by ``(s |>~e b) |>e b``:
    a cancellation step backwards, which ``rewrite_steps`` leaves out."""
    above = []
    while isinstance(t, Node) and rng.random() < 0.8:
        side = rng.randint(0, 1)
        above.append((t, side))
        t = t.right if side else t.left
    e, b = rng.choice((1, -1)), Atom(gen(rng.randint(1, 3)))
    t = Node(e, Node(-e, t, b), b)
    for node, side in reversed(above):
        t = Node(node.sign, node.left, t) if side else Node(node.sign, t, node.right)
    return t


def _rewritten(t, theory, rng, steps):
    """``t`` after ``steps`` random axiom steps, in either direction."""
    for _ in range(steps):
        neighbours = rewrite.rewrite_steps(t, theory)
        t = rng.choice(neighbours)[1] if neighbours and rng.random() < 0.7 else _uncancelled(t, rng)
    return t


@pytest.mark.parametrize(
    "theory, k", [(QUANDLE, 40), (QUANDLE, 56), (QUANDLE, 64), (RACK, 41), (RACK, 57), (RACK, 65)]
)
def test_equal_past_the_expansion_wall(monkeypatch, theory, k):
    _forbid_the_uncapped_walk(monkeypatch)
    t = right_nested(k)
    rng = random.Random(f"{theory}-{k}")
    cancelled = Node(-1, Node(1, t, Atom(gen(1))), Atom(gen(1)))
    for u in (cancelled, _rewritten(t, theory, rng, rng.randint(2, 5))):
        assert decide.term_equal(t, u, theory)


@pytest.mark.parametrize("theory", [QUANDLE, RACK])
def test_compressed_keys_match_the_expanded_ones(theory):
    rng = random.Random(theory)
    for k in range(2, 19):
        t = right_nested(k)
        u = _rewritten(t, theory, rng, rng.randint(1, 5))
        near_miss = _rewritten(right_nested(k, inner_sign=-1), theory, rng, rng.randint(1, 5))
        for v, equal in ((u, True), (near_miss, False)):
            assert (translate.normal_form(t, theory) == translate.normal_form(v, theory)) == equal
            key_t, key_v = compressed.compressed_keys((t, v), theory)
            assert (key_t == key_v) == equal


# every pair is decided by the compressed keys
@pytest.mark.parametrize("alphabet_size", [4, 200])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deciders_through_the_compressed_keys_match_recursive_reference(alphabet_size, data):
    def stop(terms, theory):
        raise translate.TailTooLong

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide, "compact_keys", stop)
        patch.setattr(compressed, "model_keys", lambda terms, theory: [None] * len(terms))
        _check_against_reference(data, alphabet_size)


def test_deciding_under_the_cap_leaves_the_compressed_forms_unimported():
    # a start without a bytecode cache compiles every module it imports
    program = (
        "import sys, quandles\n"
        "s, t = quandles.parse('(x |> y1) |>~ y1', 1), quandles.parse('x', 1)\n"
        "print(quandles.term_equal(s, t, 'quandle'), 'quandles.compressed' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(compressed.__file__)))
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True False\n", "")


def _compressed_images(table, terms):
    """The rack normal forms of ``terms`` as compressed words of ``table``."""
    return compressed.fold(terms, compressed.EMPTY, table.letter, table.product, table.conjugate)


def _expand(table, symbol):
    """The letters that ``symbol`` of ``table`` spells, read from the parts
    of each symbol down to the letters that the level-0 keys name."""
    letters = {s: key[1:] for key, s in table._symbols.items() if key[0] == 0}
    out = []
    todo = [symbol] if symbol else []
    while todo:
        s = todo.pop()
        if s in letters:
            out.append(letters[s])
            continue
        for c, k in reversed(table.parts[s]):
            todo.extend([c] * k)
    return tuple(out)


def test_compressed_tails_of_right_nested_terms_expand_to_the_rack_tails():
    # the reader where tails double with each level, on the rack tails and
    # the quandle keys' conjugates
    for k in range(2, 19):
        t = right_nested(k)
        table = compressed.Table()
        ((head, tail),) = rack = _compressed_images(table, [t])
        assert (head, _expand(table, tail[0])) == translate.rack_image(t)
        ((_, conjugate),) = translate.quotient(rack, QUANDLE, table.letter, table.conjugate)
        assert _expand(table, conjugate[0]) == translate.quandle_image(t)


def _spelled(table, word):
    """The compressed ``word``, built letter by letter."""
    built = compressed.EMPTY
    for name, exponent in word:
        built = table.product(built, table.letter(name, exponent))
    return built


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compressed_words_are_canonical(data):
    # a word built letter by letter has the top of the one the walk built
    t = data.draw(_balanced_terms(ALPHABETS[4]))
    table = compressed.Table()
    ((head, tail),) = _compressed_images(table, [t])
    spelled = _expand(table, tail[0])
    assert (head, spelled) == translate.rack_image(t)
    assert _expand(table, tail[1]) == words.inv(spelled)
    assert _spelled(table, spelled) == tail


RUNS = st.lists(st.tuples(st.sampled_from((gen(1), gen(2))), st.sampled_from((1, -1)), st.integers(1, 6)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(left=RUNS, right=RUNS, letter=st.sampled_from((gen(1), gen(2))), i=st.integers(1, 9), j=st.integers(1, 9))
# w^-5 * w^8 for w = y1^-1 y2^-1 y1^-1, where the common prefix of the two
# unfolds a repeated symbol on the right-hand side
@example(left=[(gen(1), 1, 1), (gen(2), 1, 1)] + [(gen(1), 1, 2), (gen(2), 1, 1)] * 4,
         right=[(gen(2), -1, 1), (gen(1), -1, 2)] * 7 + [(gen(2), -1, 1), (gen(1), -1, 1)],
         letter=gen(1), i=1, j=1)
def test_compressed_products_cancel_runs(left, right, letter, i, j):
    # u * v with u ending in letter^i and v starting in letter^-j
    u = words.mul(*(words.run(name, e * k) for name, e, k in left), words.run(letter, i))
    v = words.mul(words.run(letter, -j), *(words.run(name, e * k) for name, e, k in right))
    table = compressed.Table()
    product = table.product(_spelled(table, u), _spelled(table, v))
    assert _expand(table, product[0]) == words.mul(u, v)
    assert product == _spelled(table, words.mul(u, v))


SIGNED = st.tuples(st.sampled_from((gen(1), gen(2), gen(3))), st.sampled_from((1, -1)))


@settings(max_examples=60, deadline=None)
@given(c=SIGNED, lead=st.integers(-6, 6), rest=st.lists(SIGNED, max_size=200))
@example(c=(gen(1), 1), lead=0, rest=[])
@example(c=(gen(1), -1), lead=5, rest=[])
@example(c=(gen(1), 1), lead=-3, rest=[(gen(1), -1)])
def test_a_conjugate_is_two_products(c, lead, rest):
    # w = c^lead * rest: the empty word, a run of c or c^-1 alone, or a word
    # starting with one, whose run the conjugate strips
    w = words.mul(words.run(c[0], lead), rest)
    table = compressed.Table()
    letter, word = table.letter(*c), _spelled(table, w)
    conjugate = table.conjugate(word, letter)
    assert conjugate == table.product(table.product((word[1], word[0]), letter), word)
    assert _expand(table, conjugate[0]) == words.mul(words.inv(w), (c,), w)
    if w == words.run(c[0], lead):
        assert conjugate == letter


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_trees_build_the_hierarchy_of_the_word(data):
    # the hierarchy is a function of the word alone, however it was
    # multiplied, and no run of one is a symbol of its own
    runs = st.lists(st.tuples(SIGNED, st.sampled_from((1, 2, 5, 30))), max_size=10)
    pieces = [words.mul(*(words.run(name, e * k) for (name, e), k in piece))
              for piece in data.draw(st.lists(runs, max_size=8))]
    table = compressed.Table()
    built = [_spelled(table, piece) for piece in pieces]
    while len(built) > 1:
        i = data.draw(st.integers(0, len(built) - 2))
        built[i:i + 2] = [table.product(built[i], built[i + 1])]
    assert (built[0] if built else compressed.EMPTY) == _spelled(table, words.mul(*pieces))
    assert all(key[0] % 2 == 0 or key[2] > 1 for key in table._symbols)  # a run's key: (odd level, base, count)


def _flipped(t, rng):
    """``t`` with the sign of one operation on a random path flipped."""
    above = []
    while isinstance(t, Node) and rng.random() < 0.7:
        side = rng.randint(0, 1)
        above.append((t, side))
        t = t.right if side else t.left
    t = Node(-t.sign, t.left, t.right) if isinstance(t, Node) else Node(-1, t, Atom(gen(1)))
    for node, side in reversed(above):
        t = Node(node.sign, node.left, t) if side else Node(node.sign, t, node.right)
    return t


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_three_quandle_keys_are_one_quotient(data):
    # each quandle key is the conjugate tail^-1 head tail, in its own group
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    s = data.draw(_balanced_terms(ALPHABETS[4]))
    image = translate.quandle_image(s)
    near_miss = _flipped(s, rng)
    others = (_rewritten(s, QUANDLE, rng, rng.randint(1, 4)), _rewritten(near_miss, QUANDLE, rng, 2),
              data.draw(_balanced_terms(ALPHABETS[4])))
    for u in others:
        pair = (s, u)
        equal = image == translate.quandle_image(u)
        compact = translate.compact_keys(pair, QUANDLE)
        assert (compact[0] == compact[1]) == equal
        codes, _ = translate._compact_images(pair, capped=True)  # the codebook compact_keys used
        assert words.decode(compact[0][1], codes) == image
        compressed_s, compressed_u = compressed.compressed_keys(pair, QUANDLE)
        assert (compressed_s == compressed_u) == equal
        model_s, model_u = compressed.model_keys(pair, QUANDLE)
        assert model_s == model_u or not equal


def test_compressed_keys_of_a_deep_left_chain():
    # no recursion over the term and no hashing of its nodes; the tail
    # starts with a run of the head, y1^1000, which the quandle key's
    # conjugate absorbs: the chain without those operations has the same
    # quandle key and another rack key
    rng = random.Random(3)
    steps = [(1, gen(1))] * 1000 + [(rng.choice((1, -1)), gen(rng.randint(1, 3))) for _ in range(2000)]
    chains = []
    for first in (0, 1000):
        t = Atom(gen(1))
        for sign, letter in steps[first:]:
            t = Node(sign, t, Atom(letter))
        chains.append(t)
    t = chains[0]
    head, tail = translate.rack_image(t)
    assert words.split_leading_run(tail, head)[0] == 1000
    table = compressed.Table()
    rack = _compressed_images(table, chains)  # one fold, as compressed_keys makes
    quandle = translate.quotient(rack, QUANDLE, table.letter, table.conjugate)
    assert _expand(table, rack[0][1][0]) == tail
    assert _expand(table, quandle[0][1][0]) == translate.quandle_image(t)
    assert rack[0] != rack[1]
    assert quandle[0] == quandle[1]


@pytest.mark.parametrize("theory", [QUANDLE, RACK])
def test_compressed_keys_join_twice_per_node(monkeypatch, theory):
    # a top and its inverse's per product or conjugate: a conjugate made of
    # two products would join four times
    t = right_nested(12)
    pair = (t, Node(-1, Node(1, t, Atom(gen(1))), Atom(gen(1))))
    nodes = set()
    todo = list(pair)
    while todo:
        u = todo.pop()
        if isinstance(u, Node) and u not in nodes:
            nodes.add(u)
            todo += (u.left, u.right)
    join, joins = compressed.Table._join, []

    def counted(table, *args):
        joins.append(args)
        return join(table, *args)

    monkeypatch.setattr(compressed.Table, "_join", counted)
    key_t, key_u = compressed.compressed_keys(pair, theory)
    assert key_t == key_u
    assert len(joins) <= 2 * len(nodes) + (2 * len(pair) if theory == QUANDLE else 0)


def test_compressed_blocks_are_keyed_with_their_level():
    # The block of symbols 1, 2, 3 at level 2 and the run of symbol 2 three
    # times at level 1 would share the key (1, 2, 3) without the level.
    # Products never build that pair, because the symbols of both lie one
    # level below them and runs and blocks sit at levels of opposite parity,
    # so the table's own steps are called.
    table = compressed.Table()
    table.letter(gen(1))
    table.letter(gen(2))
    run, _ = table._run(2, 3, 1)
    assert (run, table.level[run], table.length[run]) == (5, 1, 3)
    block, _ = table._block([1, 2, 3], 2)
    assert (block, table.level[block], table.length[block]) == (6, 2, 3)
