"""The membership oracle that ``theorem2`` and ``theorem5`` check the
canonical forms against."""

import pytest

from quandles import isotropy, suites
from quandles.decide import QUANDLE, RACK
from quandles.terms import X, enumerate_terms, gen, parse

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


def test_the_oracle_never_reads_the_canonical_forms(monkeypatch):
    universe = list(enumerate_terms((X, gen(1)), 5))
    want = {theory: [isotropy.canon(t, theory) is not None for t in universe] for theory in (QUANDLE, RACK)}

    def refuse(*args):
        raise AssertionError("the oracle read the canonical forms")

    for name in ("canon", "quandle_canon", "rack_canon"):
        monkeypatch.setattr(isotropy, name, refuse)
    for theory in (QUANDLE, RACK):
        assert [suites.member_by_definition(t, theory) for t in universe] == want[theory], theory
