"""Brute-force equational rewriting, independent of the translation deciders.

Neighbors of a term are everything reachable by one axiom application, in
either direction, at any subterm position.  Directions that would have to
invent a fresh subterm (un-cancelling ``a -> (a |> b) |>~ b`` for an arbitrary
``b``) are omitted; all other directions apply wherever their pattern matches
syntactically.  Bounded closures of this relation give a sound proof search:
everything connected really is provably equal, so any disagreement with the
deciders is a bug.  No completeness is claimed for the bounded search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

from . import decide, strides, translate
from .decide import QUANDLE, RACK
from .terms import Node, Term, enumerate_terms, render, size
from .translate import check_theory

DIST_POS = "dist+"      # (a |> b) |> c  =  (a |> c) |> (b |> c)
DIST_NEG = "dist-"      # same for |>~
CANCEL_POS = "cancel+"  # (a |> b) |>~ b  =  a
CANCEL_NEG = "cancel-"  # (a |>~ b) |> b  =  a
IDEM_POS = "idem+"      # a |> a  =  a
IDEM_NEG = "idem-"      # a |>~ a  =  a

RACK_AXIOMS = (DIST_POS, DIST_NEG, CANCEL_POS, CANCEL_NEG)
QUANDLE_AXIOMS = RACK_AXIOMS + (IDEM_POS, IDEM_NEG)


def axioms(theory: str) -> tuple[str, ...]:
    """The axioms of ``theory``; raises ValueError for an unknown theory."""
    check_theory(theory)
    return QUANDLE_AXIOMS if theory == QUANDLE else RACK_AXIOMS


@dataclass(frozen=True)
class RewriteStep:
    axiom: str
    direction: str  # "lr" or "rl"
    path: tuple[int, ...]  # 0 = left child, 1 = right child


def _local_rewrites(u: Term, idempotent: bool, budget: int | None = None) -> list[tuple[str, str, Term]]:
    """The rewrites of ``u`` itself.  Only ``dist`` left to right (by
    size(c)+1) and ``idem`` right to left (by size(u)+1) make a term larger;
    given a ``budget``, those are left out when they would grow it by more."""
    out: list[tuple[str, str, Term]] = []
    if isinstance(u, Node):
        s = u.sign
        dist = DIST_POS if s == 1 else DIST_NEG
        if isinstance(u.left, Node) and u.left.sign == s and (budget is None or size(u.right) < budget):
            a, b, c = u.left.left, u.left.right, u.right
            out.append((dist, "lr", Node(s, Node(s, a, c), Node(s, b, c))))
        if (
            isinstance(u.left, Node)
            and isinstance(u.right, Node)
            and u.left.sign == s == u.right.sign
            and u.left.right == u.right.right
        ):
            a, c = u.left.left, u.left.right
            b = u.right.left
            out.append((dist, "rl", Node(s, Node(s, a, b), c)))
        if isinstance(u.left, Node) and u.left.sign == -s and u.left.right == u.right:
            cancel = CANCEL_POS if s == -1 else CANCEL_NEG
            out.append((cancel, "lr", u.left.left))
        if idempotent and u.left == u.right:
            out.append((IDEM_POS if s == 1 else IDEM_NEG, "lr", u.left))
    if idempotent and (budget is None or size(u) < budget):
        out.append((IDEM_POS, "rl", Node(1, u, u)))
        out.append((IDEM_NEG, "rl", Node(-1, u, u)))
    return out


def rewrite_steps(t: Term, theory: str, budget: int | None = None) -> list[tuple[RewriteStep, Term]]:
    """All single axiom applications in ``t`` with the resulting terms; given
    a ``budget``, only those that make ``t`` at most that much larger.

    Subterms are visited in pre-order (a node, then its left subtree, then
    its right one) from an explicit stack that holds each subterm with its
    path and the nodes above it; a rewrite rebuilds only those nodes.  A
    rewrite grows the whole term by what it grows its subterm, so one
    outside the budget is dropped before anything is built for it.
    """
    idempotent = IDEM_POS in axioms(theory)
    out: list[tuple[RewriteStep, Term]] = []
    todo: list[tuple[tuple[int, ...], Term, tuple[Node, ...]]] = [((), t, ())]
    while todo:
        path, u, above = todo.pop()
        for axiom, direction, new in _local_rewrites(u, idempotent, budget):
            for node, side in zip(reversed(above), reversed(path)):
                new = Node(node.sign, new, node.right) if side == 0 else Node(node.sign, node.left, new)
            out.append((RewriteStep(axiom, direction, path), new))
        if isinstance(u, Node):
            above += (u,)
            todo.append((path + (1,), u.right, above))
            todo.append((path + (0,), u.left, above))
    return out


def rewrite_neighbors(t: Term, theory: str) -> frozenset[Term]:
    return frozenset(new for _, new in rewrite_steps(t, theory))


def rewrite_closure(
    t: Term, theory: str, max_steps: int, max_size: int | None = None
) -> set[Term]:
    """Terms reachable from ``t`` in at most ``max_steps`` rewrites.

    Terms larger than ``max_size`` (default 2*size(t)+4) are pruned; the
    start term is always included.  Each level takes its neighbours straight
    from ``rewrite_steps``, with the room ``max_size - size(u)`` that each
    term ``u`` leaves as the budget, so a neighbour that would be pruned is
    never built, and only ``seen`` hashes the others; the set found does
    not depend on the order they come in.  A start term larger than
    ``max_size`` leaves no room, so its neighbours are sized one by one.
    """
    check_theory(theory)
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if max_size is None:
        max_size = 2 * size(t) + 4
    seen = {t}
    frontier = [t]
    for _ in range(max_steps):
        next_frontier: list[Term] = []
        for u in frontier:
            room = max_size - size(u)
            for _, v in rewrite_steps(u, theory, room):
                if v not in seen and (room >= 0 or size(v) <= max_size):
                    seen.add(v)
                    next_frontier.append(v)
        if not next_frontier:
            break
        frontier = next_frontier
    return seen


@dataclass
class CrossValidationReport:
    terms_checked: int = 0
    pairs_checked: int = 0
    violations: list[tuple[str, str]] = field(default_factory=list)
    equal_pairs: int = 0
    connected_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _closure_facts(
    theory: str, index: dict[Term, int], max_steps: int, stride: Iterable[tuple[int, Term]]
) -> list[tuple[int, tuple[int, list[str], set[int]]]]:
    """What ``cross_validate`` keeps of the closure of each ``t`` in
    ``stride``, by its index: the closure's size, the rendered members the
    decider tells apart from ``t``, sorted, and the indices of its members
    that lie in the universe ``index`` numbers."""
    facts = []
    for i, t in stride:
        closure = rewrite_closure(t, theory, max_steps)
        disagreeing = sorted(render(u) for u in closure if not decide.term_equal(t, u, theory))
        members = {j for u in closure if (j := index.get(u)) is not None}
        facts.append((i, (len(closure), disagreeing, members)))
    return facts


def cross_validate(
    theory: str, alphabet: tuple[str, ...], max_size: int, max_steps: int, workers: int = 1
) -> CrossValidationReport:
    """Check the deciders against bounded rewriting over a whole term universe.

    Every term rewrite-connected to ``t`` must be decided equal to it (the
    soundness half).  Additionally counts how many decider-equal pairs within
    the enumeration the bounded search managed to connect.  The closures are
    split over ``workers`` processes by ``strides.strided_fold``; the report
    does not depend on it.
    """
    report = CrossValidationReport()
    universe = list(enumerate_terms(alphabet, max_size))
    index = {t: i for i, t in enumerate(universe)}
    folded = strides.strided_fold(partial(_closure_facts, theory, index, max_steps), universe, workers)
    facts = [f for _, f in sorted(pair for stride in folded for pair in stride)]  # indices are distinct
    report.terms_checked = len(universe)
    for t, (closure_size, disagreeing, _) in zip(universe, facts):
        report.pairs_checked += closure_size
        report.violations.extend((render(t), u) for u in disagreeing)

    by_class: dict[tuple, list[int]] = {}
    for i, t in enumerate(universe):
        by_class.setdefault(translate.normal_form(t, theory), []).append(i)
    for group in by_class.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                report.equal_pairs += 1
                a, b = group[i], group[j]
                if b in facts[a][2] or a in facts[b][2]:
                    report.connected_pairs += 1
    return report
