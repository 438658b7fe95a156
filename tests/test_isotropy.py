import itertools

import pytest
from hypothesis import given, strategies as st

from quandles import decide, isotropy, rewrite, suites, translate, words
from quandles.isotropy import (
    QUANDLE_IDENTITY,
    RACK_IDENTITY,
    ArityMismatchError,
    QuandleElem,
    RackElem,
)
from quandles.terms import X, Atom, Node, gen, parse, render, subst, subst_many

Y1 = ("y1", 1)
Y1I = ("y1", -1)
Y2 = ("y2", 1)
Y2I = ("y2", -1)


def q(text, n=2):
    return parse(text, n)


# --- canonical element invariants -------------------------------------------

def test_elem_words_must_be_reduced_generator_words():
    with pytest.raises(ValueError):
        QuandleElem(((X, 1),))
    with pytest.raises(ValueError):
        QuandleElem((Y1, Y1I))
    with pytest.raises(ValueError):
        RackElem(0, (("x0", 1),))


# --- generic commutation -----------------------------------------------------

def test_commutes_generically_examples():
    assert isotropy.commutes_generically(q("x |> y1", 1), "quandle")
    assert isotropy.commutes_generically(q("x", 0), "rack")
    assert not isotropy.commutes_generically(q("y1 |> x", 1), "quandle")


# --- canonicalization --------------------------------------------------------

def test_quandle_canon_examples():
    assert isotropy.quandle_canon(q("x", 0)) == QUANDLE_IDENTITY
    assert isotropy.quandle_canon(q("(x |> y1) |>~ y2")) == QuandleElem((Y1, Y2I))
    assert isotropy.quandle_canon(q("y1 |> x", 1)) is None
    assert isotropy.quandle_canon(q("(x |> y1) |> (y2 |>~ y2)")) == QuandleElem((Y1, Y2))


def test_rack_canon_examples():
    assert isotropy.rack_canon(q("x", 0)) == RACK_IDENTITY
    assert isotropy.rack_canon(q("x |> x", 0)) == RackElem(1, ())
    assert isotropy.rack_canon(q("(x |>~ x) |> y1", 1)) == RackElem(-1, (Y1,))
    assert isotropy.rack_canon(q("y1 |> x", 1)) is None
    assert isotropy.rack_canon(q("x |> y1 |> x", 1)) is None


def test_elem_to_term_examples():
    assert isotropy.elem_to_term(QuandleElem((Y1, Y2I))) == q("(x |> y1) |>~ y2")
    assert isotropy.elem_to_term(RackElem(-1, (Y1,))) == q("(x |>~ x) |> y1")
    assert isotropy.elem_to_term(RACK_IDENTITY) == Atom(X)


def test_canon_inverts_elem_to_term():
    gens = ("y1", "y2")
    for w in words.enumerate_reduced(gens, 3):
        elem = QuandleElem(w)
        assert isotropy.quandle_canon(isotropy.elem_to_term(elem)) == elem
        for z in (-2, 0, 2):
            relem = RackElem(z, w)
            assert isotropy.rack_canon(isotropy.elem_to_term(relem)) == relem


# --- group structure ---------------------------------------------------------

def test_quandle_mul_examples():
    w = QuandleElem((Y2, Y1I))
    assert isotropy.mul(QUANDLE_IDENTITY, w) == w
    assert isotropy.mul(QuandleElem((Y1,)), QuandleElem((Y2,))) == QuandleElem((Y2, Y1))
    assert isotropy.mul(QuandleElem((Y1,)), QuandleElem((Y1I,))) == QUANDLE_IDENTITY


def test_rack_mul_examples():
    g = RackElem(2, (Y2,))
    assert isotropy.mul(RACK_IDENTITY, g) == g
    assert isotropy.mul(RackElem(1, (Y1,)), RackElem(2, (Y2,))) == RackElem(3, (Y2, Y1))
    assert isotropy.mul(RackElem(1, ()), RackElem(-1, ())) == RACK_IDENTITY


def test_mul_agrees_with_term_substitution():
    a = RackElem(1, (Y1,))
    b = RackElem(2, (Y2,))
    substituted = subst(isotropy.elem_to_term(a), isotropy.elem_to_term(b), X)
    assert isotropy.rack_canon(substituted) == isotropy.mul(a, b)

    qa = QuandleElem((Y1, Y2))
    qb = QuandleElem((Y2I,))
    substituted = subst(isotropy.elem_to_term(qa), isotropy.elem_to_term(qb), X)
    assert isotropy.quandle_canon(substituted) == isotropy.mul(qa, qb)


def test_invert_examples():
    assert isotropy.invert(QuandleElem((Y1, Y2I))) == QuandleElem((Y2, Y1I))
    assert isotropy.invert(QUANDLE_IDENTITY) == QUANDLE_IDENTITY
    assert isotropy.invert(RackElem(2, (Y1,))) == RackElem(-2, (Y1I,))
    for w in words.enumerate_reduced(("y1", "y2"), 2):
        elem = QuandleElem(w)
        assert isotropy.mul(elem, isotropy.invert(elem)) == QUANDLE_IDENTITY
        relem = RackElem(-1, w)
        assert isotropy.mul(relem, isotropy.invert(relem)) == RACK_IDENTITY


def test_group_laws_on_elements():
    elems = [QuandleElem(w) for w in words.enumerate_reduced(("y1", "y2"), 2)]
    for a, b, c in itertools.product(elems[:8], repeat=3):
        assert isotropy.mul(isotropy.mul(a, b), c) == isotropy.mul(a, isotropy.mul(b, c))


# --- embeddings ---------------------------------------------------------------

def test_quandle_embed_examples():
    assert isotropy.quandle_embed((Y1,)) == QuandleElem((Y1,))
    assert isotropy.quandle_embed((Y1, Y2)) == QuandleElem((Y2, Y1))
    assert isotropy.quandle_embed(()) == QUANDLE_IDENTITY


def test_quandle_embed_is_homomorphism():
    for u in words.enumerate_reduced(("y1", "y2"), 2):
        for v in words.enumerate_reduced(("y1", "y2"), 2):
            assert isotropy.quandle_embed(words.mul(u, v)) == isotropy.mul(
                isotropy.quandle_embed(u), isotropy.quandle_embed(v)
            )


def test_rack_embed_examples():
    assert isotropy.rack_embed(0, (Y1,)) == RackElem(0, (Y1,))
    assert isotropy.rack_embed(3, ()) == RackElem(3, ())


def test_rack_embed_anti_law_via_substitution():
    lhs = isotropy.rack_embed(2, (Y1, Y2))
    rhs = isotropy.mul(isotropy.rack_embed(1, (Y2,)), isotropy.rack_embed(1, (Y1,)))
    assert lhs == rhs
    # independently: multiply by substituting the canonical terms
    t1 = isotropy.elem_to_term(isotropy.rack_embed(1, (Y2,)))
    t2 = isotropy.elem_to_term(isotropy.rack_embed(1, (Y1,)))
    assert isotropy.rack_canon(subst(t1, t2, X)) == lhs


# --- action -------------------------------------------------------------------

def test_apply_inner_examples():
    got = isotropy.apply_inner(QuandleElem((Y1,)), [q("y2")], q("y1"))
    assert got == q("y1 |> y2")

    got = isotropy.apply_inner(QUANDLE_IDENTITY, [q("y1")], q("y1 |> y1"))
    assert decide.quandle_equal(got, q("y1 |> y1"))

    got = isotropy.apply_inner(RackElem(1, ()), [], q("y1", 1))
    assert got == q("y1 |> y1", 1)


def reference_apply_inner(a, images, q):
    """The element's canonical term with the images substituted for the
    generators, then ``q`` for ``x``: the definition ``apply_inner`` builds
    directly."""
    t = subst_many(isotropy.elem_to_term(a), {gen(i + 1): img for i, img in enumerate(images)})
    return subst(t, q, X)


def _small_terms(letters):
    return st.recursive(
        st.sampled_from([Atom(l) for l in letters]),
        lambda sub: st.builds(Node, st.sampled_from((1, -1)), sub, sub),
        max_leaves=6,
    )


_GENS3 = ("y1", "y2", "y3")


@given(
    st.integers(-3, 3),
    st.lists(st.tuples(st.sampled_from(_GENS3), st.sampled_from((1, -1))), max_size=8).map(words.reduce),
    st.lists(_small_terms(("x",) + _GENS3), min_size=3, max_size=3),
    _small_terms(("x", "y1", "y2")),
    st.sampled_from(("quandle", "rack")),
)
def test_apply_inner_matches_substitution_reference(z, word, images, q, theory):
    # images may contain x, which gets q as well; rack elements carry z
    a = isotropy.element(theory, z, word)
    assert render(isotropy.apply_inner(a, images, q)) == render(reference_apply_inner(a, images, q))


def test_apply_inner_on_long_words():
    word = ((("y1", 1), ("y2", -1)) * 1500)
    for a in (QuandleElem(word), RackElem(-2000, word)):
        got = isotropy.apply_inner(a, [q("y2 |> x"), q("x |>~ y1")], q("y1"))
        assert render(got).count("|>") == 2 * len(word) + abs(a.z)


def test_apply_inner_arity_check():
    with pytest.raises(ArityMismatchError):
        isotropy.apply_inner(QuandleElem((Y2,)), [q("y1")], q("y1"))


def test_apply_hom_is_simultaneous():
    swapped = isotropy.apply_hom(q("y1 |> y2"), [q("y2"), q("y1")])
    assert swapped == q("y2 |> y1")
    with pytest.raises(ArityMismatchError):
        isotropy.apply_hom(q("y1 |> y2"), [q("y1")])


# --- inner witnesses ------------------------------------------------------------

def test_quandle_inner_witness_examples():
    assert isotropy.quandle_inner_witness([q("y1 |> y2"), q("y2 |> y2")], 2) == QuandleElem((Y2,))
    assert isotropy.quandle_inner_witness([q("y1"), q("y2")], 2) == QUANDLE_IDENTITY
    assert isotropy.quandle_inner_witness([q("y2"), q("y1")], 2) is None


def test_rack_inner_witness_examples():
    assert isotropy.rack_inner_witness([q("y1 |> y1", 1)], 1) == RackElem(1, ())
    assert isotropy.rack_inner_witness([q("y1"), q("y2")], 2) == RACK_IDENTITY
    assert isotropy.rack_inner_witness([q("y1 |> y2"), q("y2")], 2) is None


def test_witness_round_trip_small():
    gens = [Atom("y1"), Atom("y2")]
    for w in words.enumerate_reduced(("y1", "y2"), 2):
        elem = QuandleElem(w)
        images = [isotropy.apply_inner(elem, gens, g) for g in gens]
        assert isotropy.quandle_inner_witness(images, 2) == elem
        relem = RackElem(-1, w)
        images = [isotropy.apply_inner(relem, gens, g) for g in gens]
        assert isotropy.rack_inner_witness(images, 2) == relem


def test_witness_rejects_inconsistent_third_image():
    gens = [Atom("y1"), Atom("y2"), Atom("y3")]
    elem = QuandleElem((Y2, Y1I))
    images = [isotropy.apply_inner(elem, gens, g) for g in gens[:2]] + [q("y3 |> y1", 3)]
    assert isotropy.quandle_inner_witness(images, 3) is None
    relem = RackElem(1, (Y2, Y1I))
    images = [isotropy.apply_inner(relem, gens, g) for g in gens[:2]] + [q("y3 |> y3 |> y1", 3)]
    assert isotropy.rack_inner_witness(images, 3) is None


def test_witness_with_long_leading_y1_run():
    gens = [Atom("y1"), Atom("y2")]
    word = (Y1,) * 5 + (Y2,)
    elem = QuandleElem(word)
    images = [isotropy.apply_inner(elem, gens, g) for g in gens]
    assert isotropy.quandle_inner_witness(images, 2) == elem
    relem = RackElem(-2, word)
    images = [isotropy.apply_inner(relem, gens, g) for g in gens]
    assert isotropy.rack_inner_witness(images, 2) == relem


def test_witness_arity_check():
    with pytest.raises(ArityMismatchError):
        isotropy.quandle_inner_witness([q("y1")], 2)


def test_rack_witness_single_generator_reproduces_endomorphism():
    # with one generator the split is not unique; the returned witness must
    # still induce the same endomorphism
    image = q("(y1 |> y1) |> y1", 1)
    witness = isotropy.rack_inner_witness([image], 1)
    assert witness is not None
    got = isotropy.apply_inner(witness, [Atom("y1")], Atom("y1"))
    assert decide.rack_equal(got, image)


# --- JSON ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_inner_suite_catches_a_wrong_witness(monkeypatch, n):
    # the wrong witness applies y1 once more: for n = 1 a quandle cannot tell
    # (y1 commutes with itself), a rack can (one more self-application)
    honest = isotropy.inner_witness

    def wrong(images, n, theory):
        witness = honest(images, n, theory)
        return None if witness is None else isotropy.mul(witness, isotropy.element(theory, 1, (Y1,)))

    monkeypatch.setattr(isotropy, "inner_witness", wrong)
    report = suites.run_suite("inner", max_len=2, max_z=1, n=n)
    failed = [c.label for c in report.checks if not c.ok]
    if n == 2:
        assert failed == ["quandle witnesses recovered exactly", "rack witnesses recovered exactly"]
    else:
        assert failed == ["rack witnesses induce the same images"]


def test_elem_json_round_trip():
    for elem in (QuandleElem((Y1, Y2I)), QUANDLE_IDENTITY, RackElem(-2, (Y2,)), RACK_IDENTITY):
        data = isotropy.elem_to_json(elem)
        assert isotropy.elem_from_json(data) == elem
        assert isotropy.elem_to_json(isotropy.elem_from_json(data)) == data


def test_elem_json_validation():
    with pytest.raises(ValueError):
        isotropy.elem_from_json({"theory": "group", "word": []})
    with pytest.raises(ValueError):
        isotropy.elem_from_json({"theory": "quandle", "word": [["x", 1]]})
    with pytest.raises(ValueError):
        isotropy.elem_from_json({"theory": "quandle", "z": 1, "word": []})
    with pytest.raises(ValueError):
        isotropy.elem_from_json({"theory": "rack", "z": True, "word": []})
    with pytest.raises(ValueError):
        isotropy.elem_from_json(["quandle"])


# --- unknown theories -----------------------------------------------------------

@pytest.mark.parametrize(
    "call",
    [
        lambda: isotropy.canon(parse("x |> x", 0), "bogus"),
        lambda: isotropy.canon(parse("y1", 1), "bogus"),
        lambda: isotropy.element("bogus", 0, ()),
        lambda: isotropy.inner_witness([parse("y2", 2), parse("y1", 2)], 2, "bogus"),
        lambda: isotropy.commutes_generically(parse("x", 0), "bogus"),
        lambda: translate.normal_form(parse("x", 0), "bogus"),
        lambda: decide.term_equal(parse("x", 0), parse("x", 0), "bogus"),
        lambda: rewrite.rewrite_closure(parse("x |> x", 0), "bogus", 2),
        lambda: rewrite.rewrite_closure(parse("x", 0), "bogus", 0),
        lambda: rewrite.rewrite_neighbors(parse("x", 0), "bogus"),
        lambda: rewrite.axioms("bogus"),
        *[lambda name=name: suites.run_suite(name, theory="bogus") for name in ("global", "axioms", "inner")],
    ],
)
def test_unknown_theory_is_rejected(call):
    with pytest.raises(ValueError, match="unknown theory 'bogus'"):
        call()


def test_apply_hom_on_a_deep_left_chain():
    chain = Atom(X)
    for i in range(3000):
        chain = Node(1 if i % 3 else -1, chain, Atom(gen(1)))
    image = isotropy.apply_hom(chain, [q("y2 |> y1")])
    # Node equality recurses, so the deep result is compared as text
    assert render(image) == render(chain).replace("y1", "(y2 |> y1)")
    with pytest.raises(ArityMismatchError):
        isotropy.apply_hom(chain, [])
