"""The membership oracle that ``theorem2`` and ``theorem5`` check the
canonical forms against, and the suites that split their terms over
worker processes."""

import multiprocessing

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
    picked = (3, 4, 9, 10, 17, 30, 41, 42)
    wrong = {universe[i] for i in picked}
    real = isotropy.canon

    def flipped(t, theory):
        elem = real(t, theory)
        if t not in wrong:
            return elem
        return None if elem is not None else isotropy.element(theory, 0, EMPTY)

    monkeypatch.setattr(isotropy, "canon", flipped)
    serial = suites.run_suite("theorem2", max_size=5, n=2)
    first = [render(universe[i]) for i in picked[:5]]
    assert serial.checks[0].detail.endswith(f" members, 8 discrepancies: {first}")
    assert without_elapsed(suites.run_suite("theorem2", max_size=5, n=2, workers=2)) == without_elapsed(serial)


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
    assert multiprocessing.active_children() == []


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'bogus'; choose from axioms, oracle, "):
        suites.run_suite("bogus")


def test_run_suite_makes_no_process_by_default(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_suite made a process")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    for name, bounds in SPLIT:
        assert suites.run_suite(name, **bounds).ok, name
