"""Seeded inputs and the answer key, built without any code from ``quandles``.

Terms here are plain data: an atom is its letter (a ``str``) and a node is a
tuple ``(sign, left, right)`` with sign +1 for ``|>`` and -1 for ``|>~``.
Every traversal is iterative, so the deep families (left chains of thousands
of operations) are handled like any other term.

Equal pairs are equal by construction: one side is the other with random
axiom instances applied (self-distributivity, cancellation, and idempotence
for the quandle theory only).  Unequal pairs are certified by evaluating both
sides in a small finite model of the theory: the conjugation quandle of S5 for
``quandle``, and for ``rack`` an augmented rack over S5 that is not a quandle.
Candidates the model cannot separate are discarded.
"""

from __future__ import annotations

import itertools
import random

QUANDLE = "quandle"
RACK = "rack"
EQ_LETTERS = ("x", "y1", "y2", "y3")

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def size(t) -> int:
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        if not isinstance(u, str):
            stack.append(u[1])
            stack.append(u[2])
    return n


def render(t) -> str:
    """Concrete syntax: operators associate to the left, so only composite
    right operands need parentheses."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, tuple):
            sign, left, right = u
            op = " |> " if sign == 1 else " |>~ "
            if isinstance(right, str):
                stack.extend((right, [op], left))
            else:
                stack.extend(([")"], right, [op + "("], left))
        else:
            out.append(u[0])
    return "".join(out)


def random_term(rng: random.Random, letters, k: int):
    """A random term of odd size ``k``: uniform split, then uniform signs."""
    if k == 1:
        return rng.choice(letters)
    i = rng.randrange(1, k - 1, 2)
    return (rng.choice((1, -1)), random_term(rng, letters, i), random_term(rng, letters, k - 1 - i))


def balanced_term(rng: random.Random, letters, k: int):
    """A random term of odd size ``k`` whose every node puts between a quarter
    and three quarters of its size on the left, so depth stays logarithmic."""
    if k == 1:
        return rng.choice(letters)
    lo = max(1, (k // 4) | 1)
    i = rng.randrange(lo, k - lo, 2)
    return (rng.choice((1, -1)), balanced_term(rng, letters, i), balanced_term(rng, letters, k - 1 - i))


def _positions(t) -> list[tuple[tuple[int, ...], object]]:
    out = []
    stack = [((), t)]
    while stack:
        path, u = stack.pop()
        out.append((path, u))
        if not isinstance(u, str):
            stack.append((path + (1,), u[1]))
            stack.append((path + (2,), u[2]))
    return out


def _replace(t, path: tuple[int, ...], new):
    spine = []
    u = t
    for step in path:
        spine.append(u)
        u = u[step]
    for parent, step in zip(reversed(spine), reversed(path)):
        new = (parent[0], new, parent[2]) if step == 1 else (parent[0], parent[1], new)
    return new


def _spine_positions(t) -> list[tuple[tuple[int, ...], object]]:
    """Positions along the left spine only (cheap on deep left chains)."""
    out = []
    path: tuple[int, ...] = ()
    u = t
    while True:
        out.append((path, u))
        if isinstance(u, str):
            return out
        u = u[1]
        path = path + (1,)


def _local_rewrites(u, theory: str, rng: random.Random, letters) -> list:
    """Terms provably equal to ``u`` by one axiom instance at its root."""
    out = []
    b = rng.choice(letters)
    s = rng.choice((1, -1))
    out.append((-s, (s, u, b), b))  # cancellation, introduced
    if not isinstance(u, str):
        t_sign, left, right = u
        if not isinstance(left, str) and left[0] == -t_sign and left[2] == right:
            out.append(left[1])  # cancellation, removed
        if not isinstance(left, str):
            a, bb, c = left[1], left[2], right
            out.append((left[0], (t_sign, a, c), (t_sign, bb, c)))  # distributivity
        if (
            not isinstance(left, str)
            and not isinstance(right, str)
            and left[0] == right[0]
            and left[2] == right[2]
        ):
            out.append((left[0], (t_sign, left[1], right[1]), left[2]))  # distributivity, folded
        if theory == QUANDLE and left == right:
            out.append(left)  # idempotence, removed
    if theory == QUANDLE and size(u) <= 5:
        out.append((s, u, u))  # idempotence, introduced
    return out


def rewrite_equal(t, theory: str, rng: random.Random, letters, steps: int, spine_only: bool = False):
    """``t`` with ``steps`` random axiom instances applied at random positions."""
    for _ in range(steps):
        positions = _spine_positions(t) if spine_only else _positions(t)
        path, u = rng.choice(positions)
        t = _replace(t, path, rng.choice(_local_rewrites(u, theory, rng, letters)))
    return t


def mutate(t, rng: random.Random, letters):
    """A near miss: one atom changed or one operation sign flipped."""
    path, u = rng.choice(_positions(t))
    if isinstance(u, str):
        return _replace(t, path, rng.choice([l for l in letters if l != u]))
    return _replace(t, path, (-u[0], u[1], u[2]))


# ---------------------------------------------------------------------------
# Finite models over the symmetric group S5
# ---------------------------------------------------------------------------

_PERMS = list(itertools.permutations(range(5)))
_INDEX = {p: i for i, p in enumerate(_PERMS)}
# MUL[a][b] is "a then b" as a right action: (p * q)[i] = q[p[i]].
MUL = [[_INDEX[tuple(q[p[i]] for i in range(5))] for q in _PERMS] for p in _PERMS]
INV = [_INDEX[tuple(sorted(range(5), key=lambda i: p[i]))] for p in _PERMS]
IDENTITY = _INDEX[tuple(range(5))]
_NON_IDENTITY = [g for g in range(120) if g != IDENTITY]


def _eval(t, leaf, node):
    """Iterative post-order evaluation of a term."""
    values: list = []
    stack: list = [(t, False)]
    while stack:
        u, done = stack.pop()
        if isinstance(u, str):
            values.append(leaf(u))
        elif done:
            right = values.pop()
            left = values.pop()
            values.append(node(u[0], left, right))
        else:
            stack.append((u, True))
            stack.append((u[2], False))
            stack.append((u[1], False))
    return values[0]


def quandle_value(t, assign: dict[str, int]) -> int:
    """Value in the conjugation quandle of S5: a |> b = b^-1 a b."""

    def node(sign, a, b):
        if sign == 1:
            return MUL[MUL[INV[b]][a]][b]
        return MUL[MUL[b][a]][INV[b]]

    return _eval(t, assign.__getitem__, node)


def rack_value(t, assign: dict[str, tuple[str, int]], phi: dict[str, int]) -> tuple[str, int]:
    """Value in the augmented rack on letters x S5, with (a, g) |>^e (b, h) =
    (a, g h^-1 phi(b)^e h).  It is a rack, and not a quandle when phi(a) != 1."""

    def node(sign, left, right):
        a, g = left
        b, h = right
        p = phi[b] if sign == 1 else INV[phi[b]]
        return (a, MUL[MUL[MUL[g][INV[h]]][p]][h])

    return _eval(t, assign.__getitem__, node)


def _atoms(*ts) -> set[str]:
    out: set[str] = set()
    for t in ts:
        for _, u in _positions(t):
            if isinstance(u, str):
                out.add(u)
    return out


def model_equal(s, t, theory: str, rng: random.Random) -> bool:
    """Whether s and t agree under one random assignment in the theory's model."""
    letters = sorted(_atoms(s, t))
    if theory == QUANDLE:
        assign = {l: rng.randrange(120) for l in letters}
        return quandle_value(s, assign) == quandle_value(t, assign)
    phi = {l: rng.choice(_NON_IDENTITY) for l in letters}
    assign = {l: (l, rng.randrange(120)) for l in letters}
    return rack_value(s, assign, phi) == rack_value(t, assign, phi)


def separated(s, t, theory: str, rng: random.Random, tries: int = 4) -> bool:
    return any(not model_equal(s, t, theory, rng) for _ in range(tries))


class AnswerKeyError(AssertionError):
    """The generator built an 'equal' pair that the model tells apart."""


def _equal_pair(t, theory, rng, letters, steps, spine_only=False):
    u = rewrite_equal(t, theory, rng, letters, steps, spine_only)
    if not model_equal(t, u, theory, rng):
        raise AnswerKeyError(f"not equal in the {theory} model: {render(t)} vs {render(u)}")
    return u


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

EQ_SIZE_CAPS = (15, 19, 23, 27, 31)


def eq_pairs(seed: int, theory: str, count: int) -> list[tuple[str, str, bool]]:
    """``count`` rendered pairs with their answers for ``eq --stdin``.

    Half are equal by construction; of the unequal half, every other one is a
    near miss of an equal pair and the rest are independent random terms.
    """
    rng = random.Random(f"eq-stream/{theory}/{seed}")
    out = []
    i = 0
    while len(out) < count:
        cap = EQ_SIZE_CAPS[i % len(EQ_SIZE_CAPS)]
        t = random_term(rng, EQ_LETTERS, rng.randrange(1, cap + 1, 2))
        kind = i % 4
        i += 1
        if kind in (0, 2):
            out.append((t, _equal_pair(t, theory, rng, EQ_LETTERS, rng.randint(1, 2)), True))
            continue
        if kind == 1:
            u = mutate(_equal_pair(t, theory, rng, EQ_LETTERS, 1), rng, EQ_LETTERS)
        else:
            u = random_term(rng, EQ_LETTERS, rng.randrange(1, cap + 1, 2))
        if separated(t, u, theory, rng):
            out.append((t, u, False))
    rng.shuffle(out)
    return [(render(a), render(b), ans) for a, b, ans in out]


# k grows by 2, a 4x step in cost, so that the first missed budget does not
# move with the machine's speed.  The rack sweep is one
# level deeper because its tail has 2^(k-1) - 1 letters, not 2^k - 1.
RIGHT_NESTED_K = {
    QUANDLE: tuple(range(2, 21, 2)) + (24, 32, 40, 48, 56, 64),
    RACK: tuple(range(3, 22, 2)) + (25, 33, 41, 49, 57, 65),
}
LEFT_CHAIN_DEPTHS = tuple(16 * 2**j for j in range(9))  # 16 .. 4096
BULK_SIZES = (200, 2000)
DEEP_LETTERS = EQ_LETTERS


def right_nested(k: int):
    """y1 |> (y2 |> (... |> yk)): its quandle normal form has 2^k - 1 letters."""
    t = f"y{k}"
    for i in range(k - 1, 0, -1):
        t = (1, f"y{i}", t)
    return t


def left_chain(rng: random.Random, depth: int):
    t = "x"
    for _ in range(depth):
        t = (rng.choice((1, -1)), t, rng.choice(DEEP_LETTERS[1:]))
    return t


def _deep_pair(t, theory, rng, equal: bool, spine_only=False):
    """An equal variant of ``t``, or a near miss certified by the model."""
    if equal:
        return _equal_pair(t, theory, rng, DEEP_LETTERS, 1, spine_only)
    while True:
        if spine_only:
            path, u = rng.choice(_spine_positions(t)[:-1])
            cand = _replace(t, path, (-u[0], u[1], u[2]))
        else:
            cand = mutate(t, rng, DEEP_LETTERS)
        if separated(t, cand, theory, rng):
            return cand


def deep_inputs(seed: int, bulk: int) -> list[dict]:
    """Families of deep inputs, each a list of pairs with theory and answer.

    The right-nested and left-chain families are sweeps in increasing cost;
    the bulk family is balanced random terms with sizes spread geometrically
    over BULK_SIZES, so every seed has the same sizes and only shapes vary.
    """
    rng = random.Random(f"deep-terms/{seed}")
    families = []
    for theory in (QUANDLE, RACK):
        items = []
        for j, k in enumerate(RIGHT_NESTED_K[theory]):
            t = right_nested(k)
            equal = j % 2 == 0
            items.append((f"k={k}", theory, t, _deep_pair(t, theory, rng, equal), equal))
        families.append({"family": f"right-nested/{theory}", "sweep": True, "items": items})
    for theory in (QUANDLE, RACK):
        items = []
        for j, depth in enumerate(LEFT_CHAIN_DEPTHS):
            t = left_chain(rng, depth)
            equal = j % 2 == 1
            items.append((f"depth={depth}", theory, t, _deep_pair(t, theory, rng, equal, spine_only=True), equal))
        families.append({"family": f"left-chain/{theory}", "sweep": True, "items": items})
    lo, hi = BULK_SIZES
    items = []
    for j in range(bulk):
        theory = (QUANDLE, RACK)[j % 2]
        k = int(lo * (hi / lo) ** (j / (bulk - 1))) | 1
        t = balanced_term(rng, DEEP_LETTERS, k)
        kind = (j // 2) % 4
        if kind in (0, 2):
            u, equal = _deep_pair(t, theory, rng, True), True
        elif kind == 1:
            u, equal = _deep_pair(t, theory, rng, False), False
        else:
            while True:
                u = balanced_term(rng, DEEP_LETTERS, k)
                if separated(t, u, theory, rng):
                    break
            equal = False
        items.append((f"size={k}/{theory}", theory, t, u, equal))
    families.append({"family": "bulk", "sweep": False, "items": items})
    for fam in families:
        fam["items"] = [
            {"label": label, "theory": theory, "left": render(a), "right": render(b), "equal": eq}
            for label, theory, a, b, eq in fam["items"]
        ]
    return families


# ---------------------------------------------------------------------------
# Expected suite coverage, from the benchmark's own counting
# ---------------------------------------------------------------------------


def term_count(letters: int, max_size: int) -> int:
    """Terms of size <= max_size over ``letters`` atoms (both operations)."""
    by_size = {1: letters}
    for k in range(3, max_size + 1, 2):
        by_size[k] = sum(2 * by_size[i] * by_size[k - 1 - i] for i in range(1, k - 1, 2))
    return sum(by_size.values())


def reduced_word_count(gens: int, max_len: int) -> int:
    """Reduced free-group words of length <= max_len on ``gens`` generators."""
    return 1 + sum(2 * gens * (2 * gens - 1) ** (n - 1) for n in range(1, max_len + 1))
