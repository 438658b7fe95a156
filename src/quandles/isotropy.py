"""Substitution-invertible term classes and the inner-automorphism calculus.

Over the alphabet {x, y1..yn}, the terms that are invertible under
substitution into ``x`` and commute with both operations form a group (unit
``x``, product ``a*b = term_a[term_b/x]``).  This module classifies them:

* rack: exactly the classes of ``x |>^d ... |>^d x |>^e1 y_i1 ... |>^em y_im``
  with all self-application signs ``d`` equal; ``RackElem`` stores the signed
  self-application count ``z`` and the reduced generator suffix
  ``y_i1^e1 ... y_im^em``.
* quandle: the same classes with ``z`` forgotten, since ``x |> x = x``.
  ``QuandleElem`` stores only the word; its ``z`` is always 0.

One implementation serves both groups, with one public function per job.
Each element class carries its ``theory``, ``element`` builds an element
from ``(theory, z, word)``, and canonicalization, products, inverses,
witnesses and the JSON and text forms are written once against ``theory``,
``z`` and ``word``: ``canon`` and ``inner_witness`` take the theory as an
argument, and ``mul`` and ``invert`` read it off their elements.  Canonical
forms are read off one split of the rack normal form: head ``x`` and tail
``x^z * w`` with ``w`` generator-only.

Canonical elements act on any target model by substituting terms for the
generators and the argument for ``x`` (``apply_inner``).  An endomorphism
given by generator images is *inner* when a single canonical element induces
it.  The witnesses are closed-form: image ``i`` must have head ``y_i`` and a
tail ``y_i^k_i * w`` with one shared word ``w``, which the first two tails
already pin down; no search is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from . import decide, translate, words
from .decide import QUANDLE, RACK
from .terms import X, Atom, Node, Term, atoms_of, gen, gen_index, is_gen, left_of, subst, subst_many
from .translate import THEORIES, check_theory
from .words import EMPTY, GroupWord


class ArityMismatchError(ValueError):
    pass


def _check_canonical_word(word: GroupWord) -> None:
    # a generator spelled as the term parser spells it: y1, not y01 or y0
    if not all(is_gen(l) and l[1] != "0" and e in (1, -1) for l, e in word):
        raise ValueError(f"canonical word must use generator letters only: {word}")
    if not words.is_reduced(word):
        raise ValueError(f"canonical word must be reduced: {word}")


@dataclass(frozen=True)
class QuandleElem:
    """Reduced generator-only word, read along the operation chain."""

    theory: ClassVar[str] = QUANDLE
    z: ClassVar[int] = 0
    word: GroupWord = EMPTY

    def __post_init__(self) -> None:
        _check_canonical_word(self.word)


@dataclass(frozen=True)
class RackElem:
    """Signed self-application count plus a reduced generator-only word."""

    theory: ClassVar[str] = RACK
    z: int = 0
    word: GroupWord = EMPTY

    def __post_init__(self) -> None:
        _check_canonical_word(self.word)


Elem = QuandleElem | RackElem

QUANDLE_IDENTITY = QuandleElem()
RACK_IDENTITY = RackElem()


def element(theory: str, z: int, word: GroupWord) -> Elem:
    """The element of ``theory`` with self-application count ``z`` and the
    reduced generator word ``word``; quandles forget ``z``."""
    check_theory(theory)
    return RackElem(z, word) if theory == RACK else QuandleElem(word)


# ---------------------------------------------------------------------------
# Membership and canonicalization
# ---------------------------------------------------------------------------

def commutes_generically(t: Term, theory: str) -> bool:
    """Whether t[x0 |>^e x1 / x] equals t[x0/x] |>^e t[x1/x] for both signs."""
    t0 = subst(t, Atom("x0"), X)
    t1 = subst(t, Atom("x1"), X)
    for sign in (1, -1):
        lhs = subst(t, Node(sign, Atom("x0"), Atom("x1")), X)
        if not decide.term_equal(lhs, Node(sign, t0, t1), theory):
            return False
    return True


def canon(t: Term, theory: str) -> Elem | None:
    """Canonical form of ``[t]`` if it is an invertible generic class, or None.

    The head of ``rack_image(t)`` must be ``x`` and its reduced tail must
    split as ``x^z * w`` with ``w`` generator-only (``z`` maximal).  The
    element is ``(z, w)``; the quandle element keeps only ``w``, since the
    quandle image ``w^-1 x w`` is the rack one modulo powers of the head.
    The head is the term's leftmost atom, so a term whose leftmost atom is
    not ``x`` is answered before it is translated.
    """
    check_theory(theory)
    if left_of(t) != X:
        return None
    return canon_of_image(X, translate.rack_image(t).tail, theory)


def canon_of_image(head: str, tail: GroupWord, theory: str) -> Elem | None:
    """``canon`` of a term whose rack image is ``(head, tail)``: the element
    ``(z, w)`` when the head is ``x`` and the tail splits as ``x^z * w``
    with ``w`` generator-only, else None.  The theorem sweeps call it with
    the images they compose over the enumeration tables."""
    if head != X:
        return None
    z, rest = words.split_leading_run(tail, X)
    if not all(is_gen(l) for l, _ in rest):
        return None
    return element(theory, z, rest)


def elem_to_term(a: Elem) -> Term:
    """The canonical left-associated term denoted by the element."""
    return _chain(a, Atom(X), {l: Atom(l) for l, _ in a.word})


def _chain(a: Elem, q: Term, letter_terms: dict[str, Term]) -> Term:
    """``q``, then |z| self-applications to ``q``, then one operation per
    letter ``l^e`` of the word with right operand ``letter_terms[l]``."""
    t = q
    sign = 1 if a.z > 0 else -1
    for _ in range(abs(a.z)):
        t = Node(sign, t, q)
    for l, e in a.word:
        t = Node(e, t, letter_terms[l])
    return t


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------

def mul(a: Elem, b: Elem) -> Elem:
    """Product a*b = term_a[term_b/x]: suffix words concatenate reversed and
    self-application counts add."""
    return element(a.theory, a.z + b.z, words.mul(b.word, a.word))


def invert(a: Elem) -> Elem:
    return element(a.theory, -a.z, words.inv(a.word))


def quandle_embed(u: GroupWord) -> QuandleElem:
    """Group isomorphism from free-group words onto quandle elements.

    Reverses the reduced word (keeping exponents): the product of the
    single-generator elements taken left to right accumulates in reverse.
    """
    return QuandleElem(tuple(reversed(words.reduce(u))))


def rack_embed(z: int, u: GroupWord) -> RackElem:
    """Group anti-isomorphism from Z x F_n onto rack elements.

    The word part is kept in place (only reduced); with the product
    ``a*b = term_a[term_b/x]`` this map reverses products.
    """
    return RackElem(z, words.reduce(u))


# ---------------------------------------------------------------------------
# Action on models presented by generator images
# ---------------------------------------------------------------------------

def _check_arity(letters: Iterable[str], images: list[Term], what: str) -> None:
    """Raise ArityMismatchError if ``letters`` use a generator beyond ``len(images)``."""
    high = max((gen_index(l) for l in letters if is_gen(l)), default=0)
    if high > len(images):
        raise ArityMismatchError(f"{what} uses y{high} but only {len(images)} images given")


def apply_hom(t: Term, images: list[Term]) -> Term:
    """Apply the homomorphism sending y_i to images[i-1] (simultaneously)."""
    _check_arity(atoms_of(t), images, "term")
    return subst_many(t, {gen(i + 1): img for i, img in enumerate(images)})


def apply_inner(a: Elem, images: list[Term], q: Term) -> Term:
    """Evaluate the element at ``q`` in the model where y_i maps to images[i-1].

    This is the canonical term with the generator images substituted, then
    ``q`` for ``x``, built directly: ``q``, then |z| self-applications to
    ``q``, then one operation per letter ``y_i^e`` with right operand
    ``images[i-1][q/x]``, each computed once.  Raises ArityMismatchError if
    the element uses a generator beyond ``len(images)``.
    """
    letters = {l for l, _ in a.word}
    _check_arity(letters, images, "element")
    return _chain(a, q, {l: subst(images[gen_index(l) - 1], q, X) for l in letters})


# ---------------------------------------------------------------------------
# Inner-endomorphism witnesses
# ---------------------------------------------------------------------------

def _induces(elem: Elem, images: list[Term]) -> bool:
    """Whether ``elem`` sends each generator y_i to images[i-1], by the decider."""
    identity_images = [Atom(gen(i)) for i in range(1, len(images) + 1)]
    return all(
        decide.term_equal(apply_inner(elem, identity_images, Atom(gen(i))), image, elem.theory)
        for i, image in enumerate(images, start=1)
    )


def inner_witness(images: list[Term], n: int, theory: str) -> Elem | None:
    """Element inducing the endomorphism y_i -> images[i-1], if it is inner.

    Image i is the conjugate ``w^-1 y_i w`` of a candidate ``w`` in the
    quandle exactly when its rack image is ``(y_i, y_i^k_i * w)`` for some
    ``k_i``, since the centraliser of ``y_i`` is <y_i>; a rack witness
    ``(z, w)`` needs every ``k_i`` equal to ``z``.  The first tails fix the
    only candidate.  For n >= 2 it is unique: ``tail_1 * tail_2^-1`` reduces
    to ``y1^k1 * y2^-k2``, which fixes ``z = k1`` and ``w = y1^-k1 * tail_1``.
    For n = 1 the tail's maximal leading ``y1``-power is split off (any split
    induces the same endomorphism), and for n = 0 the identity is returned.
    The candidate is inner exactly when re-applying it to every generator
    gives the images back, which the decider checks.
    """
    check_theory(theory)
    if len(images) != n:
        raise ArityMismatchError(f"expected {n} images, got {len(images)}")
    tails: list[GroupWord] = []
    for i, img in enumerate(images, start=1):
        head, tail = translate.rack_image(img)
        if head != gen(i) or not all(is_gen(l) for l, _ in tail):
            return None
        tails.append(tail)
    if n == 0:
        z, w = 0, EMPTY
    elif n == 1:
        z, w = words.split_leading_run(tails[0], gen(1))
    else:
        z, _ = words.split_leading_run(words.mul(tails[0], words.inv(tails[1])), gen(1))
        w = words.mul(words.run(gen(1), -z), tails[0])
    elem = element(theory, z, w)
    return elem if _induces(elem, images) else None


# kept for `bench/tracing.py` `WRAPPED`; delete when the tracer reads counters (ROADMAP item 2)
def quandle_canon(t: Term) -> QuandleElem | None:
    return canon(t, QUANDLE)


def rack_canon(t: Term) -> RackElem | None:
    return canon(t, RACK)


def quandle_inner_witness(images: list[Term], n: int) -> QuandleElem | None:
    return inner_witness(images, n, QUANDLE)


def rack_inner_witness(images: list[Term], n: int) -> RackElem | None:
    return inner_witness(images, n, RACK)


# ---------------------------------------------------------------------------
# JSON form: {"theory": "quandle"|"rack", "z": int (rack only),
#             "word": [[letter, exponent], ...]}
# ---------------------------------------------------------------------------

def elem_to_json(a: Elem) -> dict:
    z = {"z": a.z} if a.theory == RACK else {}
    return {"theory": a.theory, **z, "word": words.to_json(a.word)}


def elem_from_json(data: object) -> Elem:
    if not isinstance(data, dict):
        raise ValueError("element must be a JSON object")
    theory = data.get("theory")
    if theory not in THEORIES:
        raise ValueError(f"theory must be 'quandle' or 'rack', got {theory!r}")
    extra = set(data) - ({"theory", "z", "word"} if theory == RACK else {"theory", "word"})
    if extra:
        raise ValueError(f"unexpected keys {sorted(extra)}")
    z = data.get("z", 0)
    if not isinstance(z, int) or isinstance(z, bool):
        raise ValueError(f"z must be an integer, got {z!r}")
    return element(theory, z, words.reduce(words.from_json(data.get("word", []))))


def elem_to_text(a: Elem) -> str:
    z = f"z: {a.z}, " if a.theory == RACK else ""
    return f"{z}word: {words.render(a.word)}"
