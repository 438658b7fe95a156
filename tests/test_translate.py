import random
from collections import Counter

from hypothesis import given, strategies as st

from quandles import compressed, translate, words
from quandles.terms import (
    X,
    X0,
    X1,
    Atom,
    Node,
    enumerate_terms,
    gen,
    left_of,
    parse,
    random_term,
    subst,
)
from quandles.translate import RackNF


def q(text, n=2):
    return parse(text, n)


def paper_quandle_image(t):
    """Reference: the paper's direct translation, s |> t -> T^-1 S T and
    s |>~ t -> T S T^-1, reducing every product in full."""
    if isinstance(t, Atom):
        return words.letter(t.letter)
    s = paper_quandle_image(t.left)
    w = paper_quandle_image(t.right)
    if t.sign == 1:
        return words.mul(words.inv(w), s, w)
    return words.mul(w, s, words.inv(w))


def recursive_rack_image(t):
    """Reference: the rack translation by structural recursion, one full
    product per node: (head(S), tail(S) * tail(T)^-1 * head(T)^eps * tail(T))."""
    if isinstance(t, Atom):
        return RackNF(t.letter, ())
    head, s = recursive_rack_image(t.left)
    h2, w = recursive_rack_image(t.right)
    return RackNF(head, words.mul(s, words.inv(w), words.letter(h2, t.sign), w))


def _terms(letters=(X, gen(1), gen(2)), max_leaves=31):
    atoms = st.sampled_from([Atom(l) for l in letters])
    return st.recursive(
        atoms,
        lambda sub: st.builds(Node, st.sampled_from((1, -1)), sub, sub),
        max_leaves=max_leaves,
    )


def test_rack_image_matches_recursive_translation_exhaustive():
    universe = list(enumerate_terms((X, gen(1), gen(2)), 7))
    assert len(universe) == 3477
    for t in universe:
        assert translate.rack_image(t) == recursive_rack_image(t)


@given(_terms(letters=(X, X0, gen(1), gen(2), gen(3))))
def test_rack_image_matches_recursive_translation_random(t):
    assert translate.rack_image(t) == recursive_rack_image(t)


def _conjugate(w, c):
    """``w^-1 c w`` in the group of reduced words."""
    return words.mul(words.inv(w), c, w)


@given(st.lists(_terms(letters=(X, X0, gen(1), gen(2), gen(3))), min_size=1, max_size=4))
def test_fold_over_group_words_matches_recursive_translation(ts):
    # a third group, beside the compact and the compressed words
    images = compressed.fold(ts, words.EMPTY, words.letter, words.mul, _conjugate)
    assert images == [recursive_rack_image(t) for t in ts]


def _right_nested(k):
    t = Atom(gen(k))
    for i in range(k - 1, 0, -1):
        t = Node(1, Atom(gen(i)), t)
    return t


def test_fold_translates_each_distinct_subterm_once():
    # the second term of the pair is built apart from the first, but all of
    # it except its two outer nodes is the first again; a node costs at most
    # one product and one conjugate
    t, u = _right_nested(10), Node(-1, Node(1, _right_nested(10), Atom(gen(1))), Atom(gen(1)))

    def operations(terms):
        calls = Counter()

        def product(a, b):
            calls["product"] += 1
            return words.mul(a, b)

        def conjugate(w, c):
            calls["conjugate"] += 1
            return _conjugate(w, c)

        compressed.fold(terms, words.EMPTY, words.letter, product, conjugate)
        return calls

    alone = operations([t])
    assert alone["conjugate"] and max(alone.values()) <= 9
    assert max((operations([t, u]) - alone).values()) <= 2


def test_rack_image_of_deep_terms():
    chain = Atom(X)
    spelled = []
    for i in range(3000):
        letter = gen(1 + i % 2)
        chain = Node(1 if i % 3 else -1, chain, Atom(letter))
        spelled.append((letter, chain.sign))
    assert translate.rack_image(chain) == RackNF(X, words.reduce(spelled))
    nested = Atom(gen(1))
    for _ in range(3000):
        nested = Node(1, Atom(gen(1)), nested)
    assert translate.rack_image(nested) == RackNF(gen(1), words.letter(gen(1)))
    assert translate.quandle_image(nested) == words.letter(gen(1))


def test_quandle_image_examples():
    assert translate.quandle_image(Atom(X)) == ((X, 1),)
    assert translate.quandle_image(q("x |> y1")) == (("y1", -1), (X, 1), ("y1", 1))
    assert translate.quandle_image(q("(x |> y1) |>~ y1")) == ((X, 1),)


def test_rack_image_examples():
    assert translate.rack_image(Atom(X)) == RackNF(X, ())
    assert translate.rack_image(q("x |> y1")) == RackNF(X, (("y1", 1),))
    assert translate.rack_image(q("x |> x")) == RackNF(X, ((X, 1),))
    assert translate.rack_image(q("y1 |>~ x")) == RackNF("y1", ((X, -1),))


def test_quandle_image_matches_paper_translation_exhaustive():
    universe = list(enumerate_terms((X, gen(1), gen(2)), 7))
    assert len(universe) == 3477
    for t in universe:
        assert translate.quandle_image(t) == paper_quandle_image(t)


def test_rack_image_distinguishes_self_application():
    assert translate.rack_image(q("x |> x")) != translate.rack_image(Atom(X))


def test_head_conjugate_examples():
    assert translate.head_conjugate(Atom(X)) == ((X, 1),)
    assert translate.head_conjugate(q("x |> y1")) == (("y1", -1), (X, 1), ("y1", 1))
    assert translate.head_conjugate(q("x |> x")) == ((X, 1),)


def test_substitution_law_for_quandle_image():
    rng = random.Random(11)
    small = (X, gen(1), gen(2))
    big = (X, gen(1), gen(2), gen(3))
    for _ in range(300):
        t = random_term(rng, small, 6)
        s = random_term(rng, big, 6)
        lhs = translate.quandle_image(subst(t, s, X))
        rhs = words.subst(translate.quandle_image(t), translate.quandle_image(s), X)
        assert lhs == rhs


def test_head_is_leftmost_atom_exhaustive():
    for t in enumerate_terms((X, gen(1), gen(2)), 6):
        assert translate.rack_image(t).head == left_of(t)


def test_rack_image_after_substituting_operation_for_x():
    rng = random.Random(12)
    alphabet = (X, gen(1), gen(2))
    cases = [
        (1, words.letter(X1), ((X1, -1), (X0, 1), (X1, 1))),
        (-1, words.letter(X1, -1), ((X1, 1), (X0, 1), (X1, -1))),
    ]
    for _ in range(300):
        t = random_term(rng, alphabet, 6)
        head, tail = translate.rack_image(t)
        for sign, prefix, inner in cases:
            got = translate.rack_image(subst(t, Node(sign, Atom(X0), Atom(X1)), X))
            expected_tail = words.subst(tail, inner, X)
            if head == X:
                assert got.head == X0
                assert got.tail == words.mul(prefix, expected_tail)
            else:
                assert got.head == head
                assert got.tail == expected_tail


def test_chains_translate_letterwise():
    rng = random.Random(13)
    alphabet = (X, gen(1), gen(2))
    for _ in range(300):
        head = rng.choice(alphabet)
        t = Atom(head)
        spelled = []
        for _ in range(rng.randint(0, 6)):
            sign = rng.choice((1, -1))
            letter = rng.choice(alphabet)
            t = Node(sign, t, Atom(letter))
            spelled.append((letter, sign))
        assert translate.rack_image(t) == RackNF(head, words.reduce(spelled))


def test_chain_substitution_composes_tails():
    rng = random.Random(14)
    alphabet = (X, gen(1), gen(2))

    def chain_from_x():
        t = Atom(X)
        for _ in range(rng.randint(0, 5)):
            t = Node(rng.choice((1, -1)), t, Atom(rng.choice(alphabet)))
        return t

    def force_left_x(t):
        if isinstance(t, Atom):
            return Atom(X)
        return Node(t.sign, force_left_x(t.left), t.right)

    for _ in range(300):
        t = chain_from_x()
        t_prime = force_left_x(random_term(rng, alphabet, 5))
        got = translate.rack_image(subst(t, t_prime, X))
        tail_p = translate.rack_image(t_prime).tail
        tail_t = translate.rack_image(t).tail
        assert got.head == X
        assert got.tail == words.mul(
            tail_p, words.subst(tail_t, translate.head_conjugate(t_prime), X)
        )
