"""The membership oracle that ``theorem2`` and ``theorem5`` check the
canonical forms against, and the suites that split their terms over
worker processes."""

import os
import tracemalloc

import pytest

from quandles import cli, decide, isotropy, suites, translate, words
from quandles.decide import QUANDLE, RACK
from quandles.terms import X, Atom, Node, enumerate_terms, gen, parse, render, standard_alphabet
from quandles.words import EMPTY

TWINS = {QUANDLE: suites.quandle_member_by_definition, RACK: suites.rack_member_by_definition}


@pytest.mark.parametrize(
    "text, quandle, rack",
    [
        ("((x |> x) |> x) |> y1", True, True),  # rack z = 2
        ("((x |>~ x) |>~ x) |>~ y2", True, True),  # rack z = -2
        ("(x |>~ x) |> (y1 |> y2)", True, True),
        ("x |> y1", True, True),
        ("y1", False, False),  # commutes generically in quandles, but its head is y1
        ("y1 |> x", False, False),
        ("x |> y1 |> x", False, False),
    ],
)
def test_member_by_definition(text, quandle, rack):
    t = parse(text, 2)
    for theory, want in ((QUANDLE, quandle), (RACK, rack)):
        assert suites.member_by_definition(t, theory) is want, theory
        assert TWINS[theory](t) is want, theory


def test_terms_that_do_not_commute_generically_are_not_members():
    t = parse("x |> (x |> y1)", 2)
    for theory in (QUANDLE, RACK):
        assert not isotropy.commutes_generically(t, theory)
        assert not suites.member_by_definition(t, theory)


@pytest.mark.parametrize("text", ["(x |> y1) |> x", "x |> (y1 |> x)", "(x |>~ x) |> (x |> y1)"])
def test_the_decider_rejects_a_tail_that_holds_x_after_its_leading_run(monkeypatch, text):
    # the oracle assumes no word-level lemma about such tails; with generic
    # commutation forced, the candidate reaches the decider and fails there
    t = parse(text, 1)
    monkeypatch.setattr(isotropy, "commutes_generically", lambda t, theory: True)
    for theory in (QUANDLE, RACK):
        head, tail = translate.normal_form(t, theory)
        _, rest = words.split_leading_run(tail, X)
        assert head == X and any(l == X for l, _ in rest), theory
        assert suites.member_by_definition(t, theory) is False, theory


def test_the_oracle_never_reads_the_canonical_forms(monkeypatch):
    universe = list(enumerate_terms((X, gen(1)), 5))
    want = {theory: [isotropy.canon(t, theory) is not None for t in universe] for theory in (QUANDLE, RACK)}

    def refuse(*args):
        raise AssertionError("the oracle read the canonical forms")

    for name in ("canon", "quandle_canon", "rack_canon"):
        monkeypatch.setattr(isotropy, name, refuse)
    for theory in (QUANDLE, RACK):
        assert [suites.member_by_definition(t, theory) for t in universe] == want[theory], theory


# the suites that split their terms over workers, at small bounds; oracle
# covers both theories, theorem2 is the quandle statement and theorem5 the rack one
SPLIT = [
    ("oracle", {"max_size": 3, "max_steps": 2, "n": 2}),
    ("theorem2", {"max_size": 5, "n": 2}),
    ("theorem5", {"max_size": 5, "n": 1}),
]


def without_elapsed(report):
    data = report.to_json()
    del data["elapsed"]
    return data


@pytest.mark.parametrize("name, bounds", SPLIT)
def test_split_reports_match_a_serial_run(name, bounds):
    serial = without_elapsed(suites.run_suite(name, **bounds))
    for workers in (2, 3):
        assert without_elapsed(suites.run_suite(name, workers=workers, **bounds)) == serial, workers


def test_split_reports_list_discrepancies_in_enumeration_order(monkeypatch):
    universe = list(enumerate_terms(standard_alphabet(2), 5))
    real_canon, real_invert = isotropy.canon, isotropy.invert
    canonized = []

    def patched_canon(t, theory):
        canonized[:] = [t]
        elem = real_canon(t, theory)
        if t not in flip:
            return elem
        return None if elem is not None else isotropy.element(theory, 0, EMPTY)

    def patched_invert(a):
        # the identity is no inverse of the picked members, whose elements are not the identity
        return isotropy.element(QUANDLE, 0, EMPTY) if canonized[0] in bad_inverse else real_invert(a)

    monkeypatch.setattr(isotropy, "canon", patched_canon)
    monkeypatch.setattr(isotropy, "invert", patched_invert)
    # indices that are multiples of 6 fall in stride 0 for 2 and 3 workers,
    # so each set but the first gives that stride more than five failures
    cases = [
        ((3, 4, 9, 10, 17, 30, 41, 42), ()),
        ((0, 1, 6, 12, 13, 18, 24, 30, 36), ()),
        ((), (6, 7, 37, 42, 54, 132, 138, 150, 156)),
        ((4, 5), (6, 42, 54, 132, 138, 150, 156, 162)),
    ]
    for flipped, inverted in cases:
        flip = {universe[i] for i in flipped}  # read by the patches when they are called
        bad_inverse = {universe[i] for i in inverted}
        serial = suites.run_suite("theorem2", max_size=5, n=2)
        membership, inverses = serial.checks
        first_flipped = [render(universe[i]) for i in flipped[:5]]
        assert membership.ok is (not flipped)
        assert membership.detail.endswith(f" {len(flipped)} discrepancies" + (f": {first_flipped}" if flipped else ""))
        first_inverted = [render(universe[i]) for i in inverted[:5]]
        assert inverses.ok is (not inverted)
        assert inverses.detail.endswith(" members checked" + (f", failures: {first_inverted}" if inverted else ""))
        for workers in (2, 3):
            assert without_elapsed(suites.run_suite("theorem2", max_size=5, n=2, workers=workers)) == without_elapsed(
                serial
            ), (flipped, inverted, workers)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sweeps split only by forking")
def test_a_split_sweep_keeps_nothing_per_term_in_the_parent():
    def parent_peak(max_size):
        tracemalloc.start()
        try:
            suites.run_suite("theorem2", max_size=max_size, n=1, workers=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    parent_peak(5)  # the first split sweep loads the process machinery
    # the universe grows from 74 terms to 7,882
    assert parent_peak(9) - parent_peak(5) < 32 * 1024


def test_a_crashing_worker_is_an_internal_error_and_leaves_no_process(monkeypatch, capsys):
    # the first equation member_by_definition decides for x |> y1
    poison = Node(1, Node(-1, Atom(X), Atom(gen(1))), Atom(gen(1)))
    real = decide.term_equal

    def exploding(a, b, theory):
        if a == poison:
            raise RuntimeError("boom")
        return real(a, b, theory)

    monkeypatch.setattr(decide, "term_equal", exploding)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    assert cli.main(["verify", "theorem2", "--max-size", "3", "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert "internal error: RuntimeError: boom" in captured.err
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus'; choose from axioms, oracle, "):
        suites.run_suite("bogus")


def test_run_suite_makes_no_process_by_default(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_suite made a process")

    monkeypatch.setattr(os, "fork", refuse)
    for name, bounds in SPLIT:
        assert suites.run_suite(name, **bounds).ok, name


def failed_checks(report):
    return [c.label for c in report.checks if not c.ok]


@pytest.mark.parametrize("name, law, product", [
    ("iso-f_n", "homomorphism law", "canonical product = substitution then canonicalization"),
    ("iso-zxf_n", "anti-homomorphism law", "closed product formula = substitution then canonicalization"),
], ids=["iso-f_n", "iso-zxf_n"])
def test_iso_suites_catch_a_product_with_its_operands_unswapped(monkeypatch, name, law, product):
    def unswapped(a, b):
        return isotropy.element(a.theory, a.z + b.z, words.mul(a.word, b.word))

    monkeypatch.setattr(isotropy, "mul", unswapped)
    assert failed_checks(suites.run_suite(name)) == [law, product]


def test_lemmas_catch_a_word_substitution_that_ignores_exponents(monkeypatch):
    def sign_blind(word, value, target):
        return words.reduce([p for l, e in word for p in (value if l == target else [(l, e)])])

    monkeypatch.setattr(words, "subst", sign_blind)
    failed = failed_checks(suites.run_suite("lemmas", samples=20))
    assert "commuting substitution forces at most one positive x" in failed
    assert "conjugate substitution endings follow the case table" in failed
