"""Substitution-invertible term classes and the inner-automorphism calculus.

Over the alphabet {x, y1..yn}, the terms that are invertible under
substitution into ``x`` and commute with both operations form a group (unit
``x``, product ``a*b = term_a[term_b/x]``).  This module classifies them:

* quandle: exactly the classes of ``x |>^e1 y_i1 ... |>^em y_im`` whose suffix
  word ``y_i1^e1 ... y_im^em`` is reduced.  ``QuandleElem`` stores that word.
* rack: exactly the classes of ``x |>^d ... |>^d x |>^e1 y_i1 ... |>^em y_im``
  with all self-application signs ``d`` equal; ``RackElem`` stores the signed
  self-application count ``z`` and the reduced generator suffix.

Both canonical forms are read off one split of the rack normal form: head
``x`` and tail ``x^z * w`` with ``w`` generator-only.  The rack element keeps
``z``; the quandle element drops it, since the quandle normal form is the
rack one modulo leading powers of the head.

Canonical elements act on any target model by substituting terms for the
generators and the argument for ``x`` (``apply_inner``).  An endomorphism
given by generator images is *inner* when a single canonical element induces
it.  The witnesses are closed-form: image ``i`` must have head ``y_i`` and a
tail ``y_i^k_i * w`` with one shared word ``w``, which the first two tails
already pin down; no search is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import decide, translate, words
from .decide import QUANDLE, RACK
from .terms import X, Atom, Node, Term, atoms_of, gen, gen_index, is_gen, subst, subst_many
from .words import EMPTY, GroupWord


class ArityMismatchError(ValueError):
    pass


def _check_canonical_word(word: GroupWord) -> None:
    if not all(is_gen(l) and e in (1, -1) for l, e in word):
        raise ValueError(f"canonical word must use generator letters only: {word}")
    if not words.is_reduced(word):
        raise ValueError(f"canonical word must be reduced: {word}")


@dataclass(frozen=True)
class QuandleElem:
    """Reduced generator-only word, read along the operation chain."""

    word: GroupWord = EMPTY

    def __post_init__(self) -> None:
        _check_canonical_word(self.word)


@dataclass(frozen=True)
class RackElem:
    """Signed self-application count plus a reduced generator-only word."""

    z: int = 0
    word: GroupWord = EMPTY

    def __post_init__(self) -> None:
        _check_canonical_word(self.word)


Elem = QuandleElem | RackElem

QUANDLE_IDENTITY = QuandleElem()
RACK_IDENTITY = RackElem()


# ---------------------------------------------------------------------------
# Membership and canonicalization
# ---------------------------------------------------------------------------

def commutes_generically(t: Term, theory: str, n: int | None = None) -> bool:
    """Whether t[x0 |>^e x1 / x] equals t[x0/x] |>^e t[x1/x] for both signs."""
    for sign in (1, -1):
        lhs = subst(t, Node(sign, Atom("x0"), Atom("x1")), X)
        rhs = Node(sign, subst(t, Atom("x0"), X), subst(t, Atom("x1"), X))
        if not decide.term_equal(lhs, rhs, theory):
            return False
    return True


def _canonical_split(t: Term) -> tuple[int, GroupWord] | None:
    """``(z, w)`` when ``rack_image(t)`` is ``(x, x^z * w)`` with ``w``
    generator-only (``z`` maximal), else None."""
    head, tail = translate.rack_image(t)
    if head != X:
        return None
    z, rest = words.split_leading_run(tail, X)
    if not all(is_gen(l) for l, _ in rest):
        return None
    return z, rest


def quandle_canon(t: Term) -> QuandleElem | None:
    """Canonical form of ``[t]`` if it is an invertible generic class.

    The quandle image must be a conjugate ``u^-1 x u`` with ``u`` a reduced
    generator-only word; the element's word is ``u``, the word of the rack
    split with its ``x``-power dropped.
    """
    split = _canonical_split(t)
    return None if split is None else QuandleElem(split[1])


def rack_canon(t: Term) -> RackElem | None:
    """Canonical form of ``[t]`` in the rack sense, or None.

    The head must be ``x`` and the reduced tail must split as ``x^z * w``
    with ``w`` generator-only.
    """
    split = _canonical_split(t)
    return None if split is None else RackElem(*split)


def canon(t: Term, theory: str) -> Elem | None:
    return quandle_canon(t) if theory == QUANDLE else rack_canon(t)


def elem_to_term(a: Elem) -> Term:
    """The canonical left-associated term denoted by the element."""
    t: Term = Atom(X)
    if isinstance(a, RackElem):
        sign = 1 if a.z > 0 else -1
        for _ in range(abs(a.z)):
            t = Node(sign, t, Atom(X))
    for l, e in a.word:
        t = Node(e, t, Atom(l))
    return t


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------

def quandle_mul(a: QuandleElem, b: QuandleElem) -> QuandleElem:
    """Product a*b = term_a[term_b/x]: suffix words concatenate reversed."""
    return QuandleElem(words.mul(b.word, a.word))


def rack_mul(a: RackElem, b: RackElem) -> RackElem:
    return RackElem(a.z + b.z, words.mul(b.word, a.word))


def quandle_invert(a: QuandleElem) -> QuandleElem:
    return QuandleElem(words.inv(a.word))


def rack_invert(a: RackElem) -> RackElem:
    return RackElem(-a.z, words.inv(a.word))


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

def apply_hom(t: Term, images: list[Term]) -> Term:
    """Apply the homomorphism sending y_i to images[i-1] (simultaneously)."""
    high = _max_gen_index(t)
    if high > len(images):
        raise ArityMismatchError(f"term uses y{high} but only {len(images)} images given")
    return subst_many(t, {gen(i + 1): img for i, img in enumerate(images)})


def _gen_atoms(t: Term) -> set[str]:
    return {a for a in atoms_of(t) if is_gen(a)}


def _max_gen_index(t: Term) -> int:
    indices = [gen_index(a) for a in _gen_atoms(t)]
    return max(indices, default=0)


def apply_inner(a: Elem, images: list[Term], q: Term) -> Term:
    """Evaluate the element at ``q`` in the model where y_i maps to images[i-1].

    Substitutes the generator images into the canonical term first, then the
    argument ``q`` for ``x``.  Raises ArityMismatchError if the element uses a
    generator beyond ``len(images)``.
    """
    high = max((gen_index(l) for l, _ in a.word), default=0)
    if high > len(images):
        raise ArityMismatchError(
            f"element uses y{high} but only {len(images)} images given"
        )
    t = elem_to_term(a)
    t = subst_many(t, {gen(i + 1): img for i, img in enumerate(images)})
    return subst(t, q, X)


# ---------------------------------------------------------------------------
# Inner-endomorphism witnesses
# ---------------------------------------------------------------------------

def _inner_split(images: list[Term], n: int) -> tuple[list[int], GroupWord] | None:
    """Powers ``k_i`` and one word ``w`` with ``rack_image(images[i-1])`` equal
    to ``(y_i, y_i^k_i * w)`` for every i, or None if there are none.

    For n >= 2 the word is unique: ``tail_1 * tail_2^-1`` reduces to
    ``y1^k1 * y2^-k2``, which fixes ``k1`` and so ``w = y1^-k1 * tail_1``.
    For n = 1 the tail's maximal leading ``y1``-power is split off.
    """
    if len(images) != n:
        raise ArityMismatchError(f"expected {n} images, got {len(images)}")
    tails: list[GroupWord] = []
    for i, img in enumerate(images, start=1):
        head, tail = translate.rack_image(img)
        if head != gen(i) or not all(is_gen(l) for l, _ in tail):
            return None
        tails.append(tail)
    if n == 0:
        return [], EMPTY
    if n == 1:
        k, w = words.split_leading_run(tails[0], gen(1))
        return [k], w
    k1, _ = words.split_leading_run(words.mul(tails[0], words.inv(tails[1])), gen(1))
    w = words.mul(words.run(gen(1), -k1), tails[0])
    powers: list[int] = []
    for i, tail in enumerate(tails, start=1):
        k, rest = words.split_leading_run(words.mul(tail, words.inv(w)), gen(i))
        if rest:
            return None
        powers.append(k)
    return powers, w


def _induces(elem: Elem, images: list[Term], theory: str) -> bool:
    """Whether ``elem`` sends each generator y_i to images[i-1], by the decider."""
    identity_images = [Atom(gen(i)) for i in range(1, len(images) + 1)]
    return all(
        decide.term_equal(apply_inner(elem, identity_images, Atom(gen(i))), image, theory)
        for i, image in enumerate(images, start=1)
    )


def quandle_inner_witness(images: list[Term], n: int) -> QuandleElem | None:
    """Element inducing the endomorphism y_i -> images[i-1], if it is inner.

    In the quandle image i is the conjugate ``w^-1 y_i w`` of a candidate
    ``w`` exactly when its tail is ``y_i^k_i * w`` for some ``k_i``, since
    the centraliser of ``y_i`` is <y_i>.  The witness is the word ``w`` of
    ``_inner_split``, verified by re-applying it to every generator.
    """
    split = _inner_split(images, n)
    if split is None:
        return None
    elem = QuandleElem(split[1])
    return elem if _induces(elem, images, QUANDLE) else None


def rack_inner_witness(images: list[Term], n: int) -> RackElem | None:
    """Rack analogue of ``quandle_inner_witness``.

    Image i must have head y_i and tail ``y_i^z * w`` for a shared pair
    (z, w): the split of ``_inner_split`` with all powers equal.  For n = 1
    the maximal-leading-power split is returned (any split of the single
    tail induces the same endomorphism).
    """
    split = _inner_split(images, n)
    if split is None:
        return None
    powers, w = split
    z = powers[0] if powers else 0
    if any(k != z for k in powers):
        return None
    elem = RackElem(z, w)
    return elem if _induces(elem, images, RACK) else None


# ---------------------------------------------------------------------------
# JSON form: {"theory": "quandle"|"rack", "z": int (rack only),
#             "word": [[letter, exponent], ...]}
# ---------------------------------------------------------------------------

def elem_to_json(a: Elem) -> dict:
    if isinstance(a, RackElem):
        return {"theory": RACK, "z": a.z, "word": words.to_json(a.word)}
    return {"theory": QUANDLE, "word": words.to_json(a.word)}


def elem_from_json(data: object) -> Elem:
    if not isinstance(data, dict):
        raise ValueError("element must be a JSON object")
    theory = data.get("theory")
    if theory == QUANDLE:
        extra = set(data) - {"theory", "word"}
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)}")
        return QuandleElem(words.reduce(words.from_json(data.get("word", []), generators_only=True)))
    if theory == RACK:
        extra = set(data) - {"theory", "z", "word"}
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)}")
        z = data.get("z", 0)
        if not isinstance(z, int) or isinstance(z, bool):
            raise ValueError(f"z must be an integer, got {z!r}")
        return RackElem(z, words.reduce(words.from_json(data.get("word", []), generators_only=True)))
    raise ValueError(f"theory must be 'quandle' or 'rack', got {theory!r}")


def elem_to_text(a: Elem) -> str:
    if isinstance(a, RackElem):
        return f"z: {a.z}, word: {words.render(a.word)}"
    return f"word: {words.render(a.word)}"
