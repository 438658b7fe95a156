"""Named verification sweeps: exhaustive and randomized structural checks.

Each suite re-derives a structural statement by brute force (enumeration,
random instantiation, explicit substitution) and compares the outcome against
the fast implementations.  Suites return a ``SuiteReport`` whose checks carry
counts, so a passing run documents how much ground it covered.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

from . import decide, isotropy, translate, words
from .decide import QUANDLE, RACK
from .isotropy import RackElem
from .terms import (
    X,
    X0,
    X1,
    Atom,
    Node,
    Term,
    count_terms,
    enumerate_terms,
    evaluate,
    gen,
    is_gen,
    left_of,
    random_term,
    render,
    standard_alphabet,
    subst,
)
from .translate import TailTooLong, check_theory
from .words import EMPTY, CompactWord, GroupWord


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(label, ok, detail))

    def to_text(self) -> str:
        lines = [f"suite {self.suite}:"]
        for c in self.checks:
            status = "ok  " if c.ok else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  {status} - {c.label}{detail}")
        verdict = "pass" if self.ok else "FAIL"
        lines.append(f"suite {self.suite}: {verdict} in {self.elapsed:.2f}s")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "elapsed": self.elapsed,
            "checks": [
                {"label": c.label, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Membership by unwound definition (used to cross-check the canonical forms)
# ---------------------------------------------------------------------------

def member_by_definition(t: Term, theory: str) -> bool:
    """Membership decided from invertibility plus generic commutation only.

    Never consults the canonical-shape test: the head is the term's leftmost
    atom, and the tail is read from ``translate.normal_form``, not from the
    rack image that ``isotropy.canon`` splits.  A term whose leftmost atom is
    not ``x`` keeps it under every substitution, so it cannot be invertible,
    and the other tests are left out for it; every test here is free of
    side effects, so their order does not change the answer.  Otherwise an
    inverse's translation is forced by the single substitution equation: for
    a tail ``x^z * w``, the candidate is ``x``, then |z| self-applications of
    the opposite sign, then one operation per letter of ``w^-1``, and both
    equations are checked with the decider.  The quandle normal form has
    already dropped the head's leading run, so there ``z`` is 0.  No lemma
    on words answers for a ``w`` that holds ``x``: its candidate is built
    the same way, ``x`` letters included, and the decider judges it.
    """
    if left_of(t) != X or not isotropy.commutes_generically(t, theory):
        return False
    _, tail = translate.normal_form(t, theory)
    return _two_sided_inverse(t, _forced_inverse(*words.split_leading_run(tail, X)), theory)


def _forced_inverse(z: int, rest: GroupWord) -> Term:
    """The only possible inverse of a term whose normal-form tail is
    ``x^z * rest``: ``x``, then |z| self-applications of the opposite sign,
    then one operation per letter of ``rest^-1``."""
    candidate: Term = Atom(X)
    for _ in range(abs(z)):
        candidate = Node(-1 if z > 0 else 1, candidate, Atom(X))
    for l, e in words.inv(rest):
        candidate = Node(e, candidate, Atom(l))
    return candidate


def _two_sided_inverse(t: Term, u: Term, theory: str) -> bool:
    """Whether ``t[u/x] = x`` and ``u[t/x] = x``, decided in that order."""
    return decide.term_equal(subst(t, u, X), Atom(X), theory) and decide.term_equal(
        subst(u, t, X), Atom(X), theory
    )


# kept for `bench/tracing.py` `WRAPPED`; delete when the tracer reads counters (ROADMAP item 2)
def quandle_member_by_definition(t: Term) -> bool:
    return member_by_definition(t, QUANDLE)


def rack_member_by_definition(t: Term) -> bool:
    return member_by_definition(t, RACK)


# ---------------------------------------------------------------------------
# Random generation helpers
# ---------------------------------------------------------------------------

def random_reduced_word(rng: random.Random, letters: tuple[str, ...], max_len: int) -> GroupWord:
    length = rng.randint(0, max_len)
    out: list[tuple[str, int]] = []
    while len(out) < length:
        l = rng.choice(letters)
        e = rng.choice((1, -1))
        if out and out[-1] == (l, -e):
            continue
        out.append((l, e))
    return tuple(out)


def _force_leftmost(t: Term, letter: str) -> Term:
    spine: list[Node] = []
    while isinstance(t, Node):
        spine.append(t)
        t = t.left
    t = Atom(letter)
    for node in reversed(spine):
        t = Node(node.sign, t, node.right)
    return t


def _random_chain(rng: random.Random, letters: tuple[str, ...], max_links: int, head: str | None = None) -> Term:
    t: Term = Atom(head if head is not None else rng.choice(letters))
    for _ in range(rng.randint(0, max_links)):
        t = Node(rng.choice((1, -1)), t, Atom(rng.choice(letters)))
    return t


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _require_at_least(low: int, **bounds: int) -> None:
    """Reject bounds under which a suite would check nothing."""
    for name, value in bounds.items():
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def suite_axioms(seed: int, samples: int, max_size: int, n: int) -> SuiteReport:
    """Every axiom instance is decided equal by its own theory's decider;
    idempotence instances are decided not-equal by the rack decider."""
    _require_at_least(1, samples=samples, max_size=max_size, n=n)
    report = SuiteReport("axioms")
    rng = random.Random(seed)
    alphabet = standard_alphabet(n, include_x=False)

    def instances(build: Callable[[Term, Term, Term], tuple[Term, Term]]):
        for _ in range(samples):
            a = random_term(rng, alphabet, max_size)
            b = random_term(rng, alphabet, max_size)
            c = random_term(rng, alphabet, max_size)
            yield build(a, b, c)

    shared = {
        "self-distributivity of |>": lambda a, b, c: (
            Node(1, Node(1, a, b), c),
            Node(1, Node(1, a, c), Node(1, b, c)),
        ),
        "self-distributivity of |>~": lambda a, b, c: (
            Node(-1, Node(-1, a, b), c),
            Node(-1, Node(-1, a, c), Node(-1, b, c)),
        ),
        "cancellation (a |> b) |>~ b": lambda a, b, c: (Node(-1, Node(1, a, b), b), a),
        "cancellation (a |>~ b) |> b": lambda a, b, c: (Node(1, Node(-1, a, b), b), a),
    }
    idem = {
        "idempotence a |> a": lambda a, b, c: (Node(1, a, a), a),
        "idempotence a |>~ a": lambda a, b, c: (Node(-1, a, a), a),
    }

    for theory in (QUANDLE, RACK):
        axiom_set = dict(shared)
        if theory == QUANDLE:
            axiom_set.update(idem)
        for label, build in axiom_set.items():
            bad = sum(1 for lhs, rhs in instances(build) if not decide.term_equal(lhs, rhs, theory))
            report.add(f"{theory}: {label}", bad == 0, f"{samples} instances, {bad} failures")
    for label, build in idem.items():
        wrongly_equal = sum(1 for lhs, rhs in instances(build) if decide.term_equal(lhs, rhs, RACK))
        report.add(
            f"rack rejects {label}", wrongly_equal == 0, f"{samples} instances, {wrongly_equal} decided equal"
        )
    return report


def suite_oracle(max_size: int, max_steps: int, n: int, workers: int = 1) -> SuiteReport:
    """Bounded rewriting never connects terms the deciders distinguish."""
    from . import rewrite  # here, so that the other suites start without compiling it

    report = SuiteReport("oracle")
    alphabet = standard_alphabet(n, include_x=False)
    for theory in (QUANDLE, RACK):
        r = rewrite.cross_validate(theory, alphabet, max_size, max_steps, workers)
        report.add(
            f"{theory}: rewriting agrees with decider",
            r.ok,
            f"{r.terms_checked} terms, {r.pairs_checked} pairs, {len(r.violations)} violations; "
            f"{r.connected_pairs}/{r.equal_pairs} equal pairs connected",
        )
    return report


MEMBER, NON_MEMBER, MISMATCH, BAD_INVERSE = "member", "non-member", "mismatch", "bad inverse"

# the values of x that the theorem sweeps fold each term under: x itself,
# the two auxiliary constants, and the two products that generic
# commutation substitutes for it
VALUES = (Atom(X), Atom(X0), Atom(X1), Node(1, Atom(X0), Atom(X1)), Node(-1, Atom(X0), Atom(X1)))


class _Universe:
    """The terms over ``alphabet`` of size <= ``max_size``, as a collection
    that ``strides.strided_fold`` can split: its length is counted by
    formula, and each pass enumerates the terms afresh, so no process holds
    them all.  With ``builders``, it yields the entries that
    ``enumerate_terms`` builds with them instead of the terms."""

    __slots__ = ("alphabet", "max_size", "builders")

    def __init__(self, alphabet: tuple[str, ...], max_size: int, builders: Callable | None = None) -> None:
        self.alphabet = alphabet
        self.max_size = max_size
        self.builders = builders

    def __len__(self) -> int:
        return count_terms(self.alphabet, self.max_size)

    def __iter__(self) -> Iterator:
        return enumerate_terms(self.alphabet, self.max_size, self.builders)


class _Sweep:
    """What ``theorem2``/``theorem5`` decide each term of the universe by:
    its rack images under the five ``VALUES`` of ``x``, composed over the
    enumeration tables rather than translated from ``t[s/x]``.

    The translation is a fold, so the image of a node is one node step
    (``translate._node_step``) on its children's images, and the image of
    ``t[s/x]`` is the fold of ``t`` with ``x``'s image replaced by that of
    ``s``.  ``builders`` makes the entries of ``enumerate_terms``: up to
    size ``max_size - 4`` an entry is ``(term, images)``, one image per
    value, or one shared by all five when the term has no ``x``.  Larger
    entries are ``(term, left, right)``, with the children's entries, and
    get their images when asked (``images``), one step per value; so do the
    terms of the largest size, which are not kept.  Each step copies the
    left tail first, since the tables share it.  All images are compact
    words over one codebook, which numbers every letter of the alphabet and
    both auxiliary constants before the sweep starts; a forked worker has
    its own copy.
    """

    def __init__(self, theory: str, alphabet: tuple[str, ...], max_size: int) -> None:
        self.theory = theory
        self.max_size = max_size
        self.codes = codes = {name: i for i, name in enumerate(dict.fromkeys((X, X0, X1, *alphabet)))}
        self.letters = {c: (name, e) for name, code in codes.items() for c, e in ((code, 1), (~code, -1))}
        self.step = translate._node_step(codes)
        self.empty = empty = array("i")  # shared, so never written to
        self.x_images = tuple(evaluate(value, lambda l: (l, empty), self.step) for value in VALUES)
        self.last = (None, None)  # the last entry that ``_kept`` composed, and its images

    def builders(self, k: int) -> Callable:
        """``enumerate_terms``' entry builder for size ``k``."""
        if k == 1:
            return lambda letter: (Atom(letter), self.x_images if letter == X else ((letter, self.empty),) * 5)
        if k + 4 <= self.max_size:
            join = self._join
            return lambda sign, left, right: (Node(sign, left[0], right[0]), join(sign, left[1], right[1]))
        return lambda sign, left, right: (Node(sign, left[0], right[0]), left, right)

    def _join(self, sign: int, left: tuple, right: tuple) -> tuple:
        """The images of ``left |>^sign right`` from those of its children,
        one per value, or one shared when neither child has ``x``."""
        step = self.step
        if left[0] is left[1] and right[0] is right[1]:
            head, tail = left[0]
            return (step(sign, (head, tail[:]), right[0]),) * 5
        return tuple([step(sign, (head, tail[:]), r) for (head, tail), r in zip(left, right)])

    def images(self, entry: tuple) -> tuple:
        """The images of an entry's term under the five values."""
        if len(entry) == 2:
            return entry[1]
        t, left, right = entry
        return self._join(t.sign, self._kept(left), self._kept(right))

    def _kept(self, entry: tuple) -> tuple:
        """A child's images: kept in its entry, or composed for the last
        child asked for.  The terms of the largest size come in runs that
        share a child of size ``max_size - 2``, so that is composed once a
        run."""
        if len(entry) == 2:
            return entry[1]
        if entry is not self.last[0]:
            self.last = entry, self.images(entry)
        return self.last[1]

    def _fold(self, t: Term, image: tuple[str, CompactWord]) -> tuple[str, CompactWord]:
        """The fold of ``t`` with ``x``'s image replaced by ``image``, by a
        step capped as ``compact_keys``' is."""
        head, tail = image
        empty = self.empty
        return evaluate(t, lambda l: (head, tail[:]) if l == X else (l, empty),
                        translate._node_step(self.codes, translate.LETTERS_PER_NODE))

    def _agree(self, a: tuple[str, CompactWord], b: tuple[str, CompactWord]) -> bool:
        """Whether the decider's keys of two images agree."""
        key_a, key_b = translate._keys(self.codes, [a, b], self.theory)
        return key_a == key_b

    def _is_x(self, t: Term, s: Term, image: tuple[str, CompactWord] | None = None) -> bool:
        """Whether ``t[s/x] = x``, given the image of ``s`` if it is at hand:
        by the folds, or by ``decide.term_equal`` on the substituted term
        where a fold meets the cap."""
        try:
            return self._agree(self._fold(t, image or self._fold(s, self.x_images[0])), self.x_images[0])
        except TailTooLong:
            return decide.term_equal(subst(t, s, X), Atom(X), self.theory)

    def outcome(self, entry: tuple) -> str:
        """How the entry's term ``t`` fares: ``MISMATCH`` when the canonical
        shape (``isotropy.canon_of_image``) and the definitional test
        disagree on its membership, else ``NON_MEMBER``, ``MEMBER``, or
        ``BAD_INVERSE`` for a member whose canonical inverse is not a
        two-sided inverse.

        The definitional test is that of ``member_by_definition``, on the
        images: generic commutation is two node steps and two comparisons of
        the decider's keys, and the equations ``t[u/x] = x`` and
        ``u[t/x] = x`` for the forced inverse ``u`` are folds of ``t`` and
        ``u``.  The canonical inverse reuses that verdict only when it is
        ``u`` under ``==``."""
        t = entry[0]
        if left_of(t) != X:
            return NON_MEMBER
        image, x0, x1, product, quotient = self.images(entry)
        step = self.step
        member = (self._agree(product, step(1, (x0[0], x0[1][:]), x1))
                  and self._agree(quotient, step(-1, (x0[0], x0[1][:]), x1)))
        tail = tuple([self.letters[c] for c in image[1]])
        if member:
            z, rest = words.split_leading_run(tail, X)
            u = _forced_inverse(z if self.theory == RACK else 0, rest)
            member = self._is_x(t, u) and self._is_x(u, t, image)
        elem = isotropy.canon_of_image(X, tail, self.theory)
        if (elem is not None) != member:
            return MISMATCH
        if elem is None:
            return NON_MEMBER
        t_inv = isotropy.elem_to_term(isotropy.invert(elem))
        if t_inv == u or (self._is_x(t, t_inv) and self._is_x(t_inv, t, image)):
            return MEMBER
        return BAD_INVERSE


def _theorem_tally(sweep: _Sweep, stride: Iterable[tuple[int, tuple]]) -> tuple[Counter, list[tuple[int, str, str]]]:
    """How many terms of ``stride``, a stride of ``sweep``'s entries, have
    each ``sweep.outcome``, and the first five of each failing outcome, as
    ``(index, outcome, rendered)``."""
    tally = Counter()
    failures = []
    outcome = sweep.outcome
    for i, entry in stride:
        kind = outcome(entry)
        tally[kind] += 1
        if kind in (MISMATCH, BAD_INVERSE) and tally[kind] <= 5:
            failures.append((i, kind, render(entry[0])))
    return tally, failures


def suite_theorem(theory: str, max_size: int, n: int, workers: int = 1) -> SuiteReport:
    """Canonical-shape membership coincides with the definitional test, and
    canonical inverses really are two-sided inverses (``theorem2`` for
    quandles, ``theorem5`` for racks).  The terms are split over ``workers``
    processes by ``strides.strided_fold``; the report does not depend on it.

    Each term is decided from its rack images under the five ``VALUES`` of
    ``x``, composed over the enumeration tables (``_Sweep``), so no term is
    substituted or translated afresh; a term whose leftmost atom is not
    ``x`` is a non-member at once.  The outcome of each term is the one that
    ``isotropy.canon``, ``member_by_definition`` and ``_two_sided_inverse``
    give it, which stay as the term-level reference."""
    from . import strides  # here, as for rewrite in suite_oracle

    report = SuiteReport("theorem2" if theory == QUANDLE else "theorem5")
    alphabet = standard_alphabet(n, include_x=True)
    sweep = _Sweep(theory, alphabet, max_size)
    tallies = strides.strided_fold(partial(_theorem_tally, sweep), _Universe(alphabet, max_size, sweep.builders),
                                   workers)
    tally = sum((stride_tally for stride_tally, _ in tallies), Counter())
    failures = sorted(f for _, stride_failures in tallies for f in stride_failures)
    first = {kind: [text for _, o, text in failures if o == kind][:5] for kind in (MISMATCH, BAD_INVERSE)}
    mismatches = tally[MISMATCH]
    bad_inverses = tally[BAD_INVERSE]
    members = tally[MEMBER] + bad_inverses
    report.add(
        "membership equivalence",
        not mismatches,
        f"{sum(tally.values())} terms, {members} members, {mismatches} discrepancies"
        + (f": {first[MISMATCH]}" if mismatches else ""),
    )
    report.add(
        "canonical inverses are two-sided",
        not bad_inverses,
        f"{members} members checked" + (f", failures: {first[BAD_INVERSE]}" if bad_inverses else ""),
    )
    return report


# theory -> (suite name, embedding (z, u) -> element, whether it reverses
# products, law label, what the range is counted in, product-check label)
_ISO = {
    QUANDLE: ("iso-f_n", lambda z, u: isotropy.quandle_embed(u), False, "homomorphism law", "words",
              "canonical product = substitution then canonicalization"),
    RACK: ("iso-zxf_n", isotropy.rack_embed, True, "anti-homomorphism law", "pairs",
           "closed product formula = substitution then canonicalization"),
}


def suite_iso(theory: str, max_z: int, max_len: int, n: int) -> SuiteReport:
    """The embedding of free-group words (paired with an integer for racks)
    into canonical elements is a group isomorphism (an anti-isomorphism for
    racks), and the canonical product matches term substitution.  Quandle
    elements forget the integer, so ``iso-f_n`` runs with ``max_z`` 0."""
    _require_at_least(0, max_z=max_z, max_len=max_len)
    name, embed, reverses, law, unit, product = _ISO[theory]
    report = SuiteReport(name)
    gens = standard_alphabet(n, include_x=False)
    word_list = list(words.enumerate_reduced(gens, max_len))
    pairs = [(z, u) for z in range(-max_z, max_z + 1) for u in word_list]
    embedded = [embed(z, u) for z, u in pairs]

    law_bad = 0
    for (z, u), a in zip(pairs, embedded):
        for (zp, v), b in zip(pairs, embedded):
            rhs = isotropy.mul(b, a) if reverses else isotropy.mul(a, b)
            law_bad += embed(z + zp, words.mul(u, v)) != rhs
    report.add(law, law_bad == 0, f"{len(pairs) ** 2} pairs, {law_bad} failures")

    images = set(embedded)
    report.add("injective on range", len(images) == len(pairs), f"{len(pairs)} {unit}")
    elems = {isotropy.element(theory, z, w) for z, w in pairs}
    report.add("surjective onto canonical elements in range", images == elems, f"{len(elems)} elements")

    as_terms = {e: isotropy.elem_to_term(e) for e in elems}
    mul_bad = 0
    for a, term_a in as_terms.items():
        for b, term_b in as_terms.items():
            mul_bad += isotropy.canon(subst(term_a, term_b, X), theory) != isotropy.mul(a, b)
    report.add(product, mul_bad == 0, f"{len(elems) ** 2} pairs, {mul_bad} failures")
    return report


def suite_global(theory: str, max_size: int) -> SuiteReport:
    """With no generators, the invertible generic classes collapse: only the
    identity for quandles; exactly the self-application powers for racks,
    multiplying like integers."""
    report = SuiteReport("global")
    universe = list(enumerate_terms((X,), max_size))
    found = {isotropy.canon(t, theory) for t in universe} - {None}
    max_z = (max_size - 1) // 2
    expected = {isotropy.element(theory, z, EMPTY) for z in range(-max_z, max_z + 1)}
    if theory == QUANDLE:
        # the powers of x |> x all collapse to the identity
        report.add(
            "only the identity element occurs",
            found == expected,
            f"{len(universe)} terms, elements found: {len(found)}",
        )
        return report
    report.add(
        f"elements are exactly the powers -{max_z}..{max_z}",
        found == expected,
        f"{len(universe)} terms, {len(found)} elements",
    )
    add_bad = sum(
        1
        for a in expected
        for b in expected
        if isotropy.mul(a, b) != RackElem(a.z + b.z, EMPTY)
    )
    report.add("product acts as integer addition", add_bad == 0, f"{len(expected) ** 2} pairs")
    return report


def suite_lemmas(seed: int, samples: int, word_len: int) -> SuiteReport:
    """Substitution laws and reduced-word structure facts, by brute force."""
    _require_at_least(1, samples=samples)
    _require_at_least(0, word_len=word_len)
    report = SuiteReport("lemmas")
    rng = random.Random(seed)

    # Substitution law for the quandle translation: image of t[s/x] equals
    # the image of t with the image of s substituted for x.
    bad = 0
    big = standard_alphabet(3, include_x=True)
    small = standard_alphabet(2, include_x=True)
    for _ in range(samples):
        t = random_term(rng, small, 6)
        s = random_term(rng, big, 6)
        lhs = translate.quandle_image(subst(t, s, X))
        rhs = words.subst(translate.quandle_image(t), translate.quandle_image(s), X)
        if lhs != rhs:
            bad += 1
    report.add("quandle translation commutes with substitution", bad == 0, f"{samples} pairs, {bad} failures")

    # The head of the rack translation is the leftmost atom.
    universe = list(enumerate_terms(small, 6))
    bad = sum(1 for t in universe if translate.rack_image(t).head != left_of(t))
    report.add("rack head = leftmost atom", bad == 0, f"{len(universe)} terms, {bad} failures")

    # Substituting x0 |>^e x1 for x: four head/tail cases.
    bad = 0
    for _ in range(samples):
        t = random_term(rng, small, 6)
        head, tail = translate.rack_image(t)
        for sign, prefix, inner in (
            (1, words.letter(X1), ((X1, -1), (X0, 1), (X1, 1))),
            (-1, words.letter(X1, -1), ((X1, 1), (X0, 1), (X1, -1))),
        ):
            got = translate.rack_image(subst(t, Node(sign, Atom(X0), Atom(X1)), X))
            tail_sub = words.subst(tail, inner, X)
            if head == X:
                want = (X0, words.mul(prefix, tail_sub))
            else:
                want = (head, tail_sub)
            if (got.head, got.tail) != want:
                bad += 1
    report.add("substituting x0 |>^e x1 for x follows the four cases", bad == 0, f"{samples} terms, {bad} failures")

    # Left-associated atom chains translate to the spelled-out word.
    bad = 0
    for _ in range(samples):
        head_letter = rng.choice(small)
        links = [(rng.choice((1, -1)), rng.choice(small)) for _ in range(rng.randint(0, 6))]
        t = Atom(head_letter)
        spelled: list[tuple[str, int]] = []
        for sign, letter in links:
            t = Node(sign, t, Atom(letter))
            spelled.append((letter, sign))
        got = translate.rack_image(t)
        if got.head != head_letter or got.tail != words.reduce(spelled):
            bad += 1
    report.add("atom chains translate letterwise", bad == 0, f"{samples} chains, {bad} failures")

    # Substituting a term with leftmost atom x into an x-headed chain:
    # tails compose through the conjugated head, the quandle image of the substituted term.
    bad = 0
    for _ in range(samples):
        t = _random_chain(rng, small, 5, head=X)
        t_prime = _force_leftmost(random_term(rng, small, 5), X)
        got = translate.rack_image(subst(t, t_prime, X))
        head_p, tail_p = translate.rack_image(t_prime)
        tail_t = translate.rack_image(t).tail
        want_tail = words.mul(tail_p, words.subst(tail_t, translate.quandle_image(t_prime), X))
        if got.head != X or got.tail != want_tail:
            bad += 1
    report.add("chain substitution composes tails", bad == 0, f"{samples} pairs, {bad} failures")

    # Reduced-word structure facts over {x, y1}, each word substituted once
    # per value: x0, x1 and the conjugate x1^-1 x0 x1.
    reduced_words = list(words.enumerate_reduced((X, gen(1)), word_len))
    conj = ((X1, -1), (X0, 1), (X1, 1))
    commuting = bad_commuting = bad_endings = compatible = bad_order = 0
    for s in reduced_words:
        s0 = words.subst(s, words.letter(X0), X)
        s1 = words.subst(s, words.letter(X1), X)
        s_conj = words.subst(s, conj, X)
        r = words.mul(words.letter(X1), s_conj)
        if words.mul(s1, s_conj) == words.mul(s0, s1):
            commuting += 1
            bad_commuting += [e for l, e in s if l == X] not in ([], [1])
        if not s:
            ok = bool(r) and r[-1] == (X1, 1)
        elif s[-1] == (X, 1):
            ok = r[-2:] == ((X0, 1), (X1, 1))
        elif s[-1] == (X, -1):
            ok = r[-2:] == ((X0, -1), (X1, 1))
        else:
            i = len(r)
            while i > 0 and is_gen(r[i - 1][0]):
                i -= 1
            trailing = r[i:]
            ok = bool(trailing) and trailing[-1] == s[-1] and i > 0 and r[i - 1] == (X1, 1)
        bad_endings += not ok
        if r == words.mul(s0, words.inv(s1), words.letter(X1), s1):
            compatible += 1
            # over {x, y1}, an x after a generator means a generator directly followed by x
            bad_order += any(is_gen(a) and b == X for (a, _), (b, _) in zip(s, s[1:]))
    report.add(
        "commuting substitution forces at most one positive x",
        bad_commuting == 0,
        f"{len(reduced_words)} words, {commuting} satisfy the premise, {bad_commuting} failures",
    )
    report.add(
        "conjugate substitution endings follow the case table",
        bad_endings == 0,
        f"{len(reduced_words)} words, {bad_endings} failures",
    )
    report.add(
        "conjugation-compatible words put all x before all generators",
        bad_order == 0,
        f"{len(reduced_words)} words, {compatible} satisfy the premise, {bad_order} failures",
    )
    return report


def suite_naturality(seed: int, samples: int) -> SuiteReport:
    """Applying an element commutes with composing homomorphisms: pushing the
    result through a second hom equals acting via the composed images."""
    _require_at_least(1, samples=samples)
    report = SuiteReport("naturality")
    rng = random.Random(seed)
    gens2 = standard_alphabet(2, include_x=False)
    gens3 = standard_alphabet(3, include_x=False)

    for theory in (QUANDLE, RACK):
        bad = 0
        for _ in range(samples):
            z = rng.randint(-2, 2)  # forgotten by quandle elements
            elem = isotropy.element(theory, z, random_reduced_word(rng, gens2, 3))
            h_images = [random_term(rng, gens3, 5) for _ in range(2)]
            hp_images = [random_term(rng, gens2, 5) for _ in range(3)]
            q = random_term(rng, gens3, 5)
            lhs = isotropy.apply_hom(isotropy.apply_inner(elem, h_images, q), hp_images)
            composed = [isotropy.apply_hom(img, hp_images) for img in h_images]
            rhs = isotropy.apply_inner(elem, composed, isotropy.apply_hom(q, hp_images))
            if not decide.term_equal(lhs, rhs, theory):
                bad += 1
        report.add(f"{theory}: naturality squares commute", bad == 0, f"{samples} triples, {bad} failures")
    return report


def suite_inner(max_len: int, max_z: int, n: int) -> SuiteReport:
    """Round trip: each canonical element induces an endomorphism whose
    witness is recovered; a generator swap is recognized as not inner.

    With two or more generators the witness is unique and must be recovered
    exactly.  With fewer it is not (for n = 1, ``y1^k * w`` and ``w`` induce
    the same map), so the witness must induce the same images instead, as
    the decider judges them."""
    _require_at_least(0, max_len=max_len, max_z=max_z)
    report = SuiteReport("inner")
    gens = standard_alphabet(n, include_x=False)
    identity_images = [Atom(g) for g in gens]
    word_list = list(words.enumerate_reduced(gens, max_len))

    def images_of(elem):
        return [isotropy.apply_inner(elem, identity_images, Atom(g)) for g in gens]

    # quandle elements forget z, so only z = 0 gives distinct ones
    for theory, zs in ((QUANDLE, [0]), (RACK, range(-max_z, max_z + 1))):
        elems = [isotropy.element(theory, z, w) for z in zs for w in word_list]
        bad = 0
        for elem in elems:
            images = images_of(elem)
            witness = isotropy.inner_witness(images, n, theory)
            if n >= 2:
                bad += witness != elem
            else:
                bad += witness is None or not all(
                    decide.term_equal(u, v, theory) for u, v in zip(images_of(witness), images)
                )
        label = "recovered exactly" if n >= 2 else "induce the same images"
        report.add(f"{theory} witnesses {label}", bad == 0, f"{len(elems)} elements, {bad} failures")

    swap = [Atom(gen(2)), Atom(gen(1))]
    for theory in (QUANDLE, RACK):
        report.add(f"generator swap is not inner ({theory})", isotropy.inner_witness(swap, 2, theory) is None)
    return report


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class Suite(NamedTuple):
    """A named sweep: its function, its bounds with their defaults, and which
    of ``run_suite``'s own arguments (``seed``, ``theory``, ``workers``) it
    takes."""

    run: Callable[..., SuiteReport]
    bounds: dict[str, int]
    takes: tuple[str, ...] = ()


SUITES: dict[str, Suite] = {
    "axioms": Suite(suite_axioms, {"samples": 1000, "max_size": 6, "n": 3}, ("seed",)),
    "oracle": Suite(suite_oracle, {"max_size": 5, "max_steps": 3, "n": 2}, ("workers",)),
    "theorem2": Suite(partial(suite_theorem, QUANDLE), {"max_size": 7, "n": 2}, ("workers",)),
    "theorem5": Suite(partial(suite_theorem, RACK), {"max_size": 7, "n": 1}, ("workers",)),
    "iso-f_n": Suite(partial(suite_iso, QUANDLE, 0), {"max_len": 3, "n": 2}),
    "iso-zxf_n": Suite(partial(suite_iso, RACK), {"max_z": 2, "max_len": 2, "n": 2}),
    "lemmas": Suite(suite_lemmas, {"samples": 500, "word_len": 5}, ("seed",)),
    "global": Suite(suite_global, {"max_size": 7}, ("theory",)),
    "naturality": Suite(suite_naturality, {"samples": 100}, ("seed",)),
    "inner": Suite(suite_inner, {"max_len": 3, "max_z": 2, "n": 2}),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, theory: str = QUANDLE, seed: int = 0, workers: int = 1, **bounds) -> SuiteReport:
    """Run a named suite, timing it; ``bounds`` override the suite's defaults.

    ``oracle``, ``theorem2`` and ``theorem5`` split their terms over
    ``workers`` forked processes when it is more than 1; the report is the
    same, apart from ``elapsed``.  The default makes no process, so a caller
    that runs threads may call this safely.

    An unknown theory raises ValueError, also for suites that cover both
    theories.  Unknown bounds raise TypeError; bounds under which a suite
    would check nothing (``samples`` < 1, no generators to sample from, a
    negative ``max_z``, ``max_len`` or ``word_len``) raise ValueError.
    """
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    check_theory(theory)
    given = {"seed": seed, "theory": theory, "workers": workers}
    start = time.perf_counter()
    report = suite.run(**{key: given[key] for key in suite.takes}, **{**suite.bounds, **bounds})
    report.elapsed = time.perf_counter() - start
    return report
