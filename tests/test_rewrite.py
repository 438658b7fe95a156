import random

import pytest

from quandles import decide, rewrite
from quandles.decide import QUANDLE, RACK
from quandles.terms import Atom, Node, enumerate_terms, gen, parse, random_term, size


def q(text, n=2):
    return parse(text, n)


def test_closure_of_a_deep_term_holds_the_term():
    deep = parse("x" + " |> y1" * 3000, 1)
    assert rewrite.rewrite_closure(deep, RACK, 0) == {deep}


def test_neighbors_cancellation():
    assert q("y1") in rewrite.rewrite_neighbors(q("(y1 |> y2) |>~ y2"), RACK)
    assert q("y1") in rewrite.rewrite_neighbors(q("(y1 |>~ y2) |> y2"), RACK)


def test_neighbors_idempotence_only_for_quandles():
    neighbors = rewrite.rewrite_neighbors(q("y1"), QUANDLE)
    assert q("y1 |> y1") in neighbors
    assert q("y1 |>~ y1") in neighbors
    rack_neighbors = rewrite.rewrite_neighbors(q("y1"), RACK)
    assert q("y1 |> y1") not in rack_neighbors
    assert rack_neighbors == frozenset()


def test_neighbors_distributivity_both_directions():
    folded = q("(y1 |> y2) |> y1")
    unfolded = q("(y1 |> y1) |> (y2 |> y1)")
    assert unfolded in rewrite.rewrite_neighbors(folded, RACK)
    assert folded in rewrite.rewrite_neighbors(unfolded, RACK)


def test_no_fresh_subterm_synthesis():
    # un-cancelling would need an arbitrary partner term; it must not occur
    for t in rewrite.rewrite_neighbors(q("y1"), RACK):
        assert size(t) == 1
    steps = rewrite.rewrite_steps(q("y1 |> y2"), RACK)
    assert all(step.axiom in rewrite.RACK_AXIOMS for step, _ in steps)


def test_steps_record_positions():
    t = q("(y1 |> y1) |> y2")
    hits = [
        (step, result)
        for step, result in rewrite.rewrite_steps(t, QUANDLE)
        if step.axiom == rewrite.IDEM_POS and step.direction == "lr"
    ]
    assert (rewrite.RewriteStep(rewrite.IDEM_POS, "lr", (0,)), q("y1 |> y2")) in hits


def test_closure_examples():
    assert rewrite.rewrite_closure(q("y1"), QUANDLE, 0) == {q("y1")}
    assert q("y1") in rewrite.rewrite_closure(q("y1 |> y1"), QUANDLE, 1, 8)
    assert q("y1") in rewrite.rewrite_closure(q("(y1 |> y2) |>~ y2"), RACK, 1, 8)


def test_closure_monotone_in_steps():
    rng = random.Random(5)
    for _ in range(20):
        t = random_term(rng, (gen(1), gen(2)), 5)
        prev = {t}
        for steps in range(3):
            cur = rewrite.rewrite_closure(t, QUANDLE, steps)
            assert prev <= cur
            prev = cur


def closure_levels_reference(t, theory, max_steps, max_size=None):
    """Reference: the closures of ``t`` within 0..max_steps rewrites, searched
    one level at a time over ``rewrite_neighbors``, pruned at ``max_size``
    (default 2*size(t)+4)."""
    bound = 2 * size(t) + 4 if max_size is None else max_size
    seen, frontier = {t}, {t}
    levels = [set(seen)]
    for _ in range(max_steps):
        frontier = {v for u in frontier for v in rewrite.rewrite_neighbors(u, theory) if size(v) <= bound} - seen
        seen |= frontier
        levels.append(set(seen))
    return levels


def test_closure_matches_a_level_by_level_search_over_neighbors():
    for theory in (QUANDLE, RACK):
        for t in enumerate_terms((gen(1), gen(2)), 5):
            for steps, want in enumerate(closure_levels_reference(t, theory, 3)):
                assert rewrite.rewrite_closure(t, theory, steps) == want, (theory, t, steps)


@pytest.mark.parametrize("slack", [-2, 0, 2])
def test_closure_at_a_tight_size_bound_matches_the_reference(slack):
    # the budget each term leaves is exact: one size more or less shows here
    for theory in (QUANDLE, RACK):
        for t in enumerate_terms((gen(1), gen(2)), 5):
            max_size = size(t) + slack
            for steps, want in enumerate(closure_levels_reference(t, theory, 3, max_size)):
                assert rewrite.rewrite_closure(t, theory, steps, max_size) == want, (theory, t, steps)


def test_closure_rejects_a_negative_step_count():
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        rewrite.rewrite_closure(q("y1"), QUANDLE, -1)


def test_closure_respects_size_bound():
    for u in rewrite.rewrite_closure(q("y1 |> y2"), QUANDLE, 3):
        assert size(u) <= 2 * 3 + 4


def test_rewriting_is_sound():
    rng = random.Random(6)
    for theory in (QUANDLE, RACK):
        for _ in range(30):
            t = random_term(rng, (gen(1), gen(2)), 5)
            for u in rewrite.rewrite_neighbors(t, theory):
                assert decide.term_equal(t, u, theory)


def test_cross_validate_single_letter():
    report = rewrite.cross_validate(QUANDLE, (gen(1),), 4, 3)
    assert report.ok
    assert report.terms_checked == 3
    assert not report.violations


def test_cross_validate_rack_over_x():
    report = rewrite.cross_validate(RACK, ("x",), 5, 3)
    assert report.ok
    # self-application is not collapsible in racks
    assert Atom("x") not in rewrite.rewrite_closure(Node(1, Atom("x"), Atom("x")), RACK, 3)
    assert not decide.rack_equal(Node(1, Atom("x"), Atom("x")), Atom("x"))


def test_cross_validate_deterministic():
    a = rewrite.cross_validate(RACK, (gen(1), gen(2)), 3, 2)
    b = rewrite.cross_validate(RACK, (gen(1), gen(2)), 3, 2)
    assert a == b
    assert a.ok


def _replace_at_reference(t, path, new):
    if not path:
        return new
    if path[0] == 0:
        return Node(t.sign, _replace_at_reference(t.left, path[1:], new), t.right)
    return Node(t.sign, t.left, _replace_at_reference(t.right, path[1:], new))


def _positions_reference(t, path=()):
    yield path, t
    if isinstance(t, Node):
        yield from _positions_reference(t.left, path + (0,))
        yield from _positions_reference(t.right, path + (1,))


def rewrite_steps_reference(t, theory):
    """Reference: subterms in recursive pre-order, each rewrite rebuilt
    recursively along its path."""
    idempotent = theory == QUANDLE
    return [
        (rewrite.RewriteStep(axiom, direction, path), _replace_at_reference(t, path, new_sub))
        for path, u in _positions_reference(t)
        for axiom, direction, new_sub in rewrite._local_rewrites(u, idempotent)
    ]


def test_rewrite_steps_match_reference_exhaustive():
    for theory in (QUANDLE, RACK):
        for t in enumerate_terms((gen(1), gen(2)), 7):
            assert rewrite.rewrite_steps(t, theory) == rewrite_steps_reference(t, theory)
