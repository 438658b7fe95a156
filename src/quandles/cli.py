"""Command-line front end.

Exit codes follow a strict contract: 0 for an affirmative result (equal,
member, inner, all checks pass), 1 for a negative result, 2 for input errors
(bad syntax, unknown generators, malformed JSON, wrong arities, suite bounds
that would check nothing), 3 for an internal error, which is never a verdict.

Each command returns its exit code, its answer as a JSON object and its
answer as text, and ``main`` prints one of the two; only ``eq --stdin``
writes its own output, a slot per line.  Where the JSON object costs a walk
over a long word, the command returns a function that builds it, which
``main`` calls only under ``--json``.
"""

from __future__ import annotations

import argparse
import codecs
import json
import os
import sys
from functools import partial
from typing import Iterator

from . import decide, isotropy, suites, translate, words
from .decide import QUANDLE, RACK
from .terms import Term, parse, render


class CliError(Exception):
    """User input error; message goes to stderr, exit status 2."""


Answer = tuple[int, object, str]  # exit code, JSON object (or a function that builds it), text


def _parse_term(text: str, args) -> Term:
    return parse(text, args.gens, allow_aux=not args.no_aux)


def _parse_elem(text: str, args):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed element JSON: {exc}") from exc
    elem = isotropy.elem_from_json(data)
    if elem.theory != args.theory:
        raise CliError(f"element theory does not match --theory {args.theory}")
    return elem


# what a slot of eq --stdin reads, by verdict (None: a malformed line)
TEXT_SLOTS = {True: "equal\n", False: "not-equal\n", None: "error\n"}
JSON_SLOTS = {True: "true", False: "false", None: "null"}
CHUNK_BYTES = 1 << 16


def stdin_chunks(stream) -> Iterator[list[str]]:
    """The lines of ``stream`` without their ``"\\n"``, one list per read.

    Lines end at ``"\\n"`` alone, as when iterating over ``sys.stdin`` on
    POSIX: ``"\\r"``, ``"\\x0c"``, ``"\\x85"`` and the like stay inside their
    line.  When the stream has a binary ``buffer`` with ``read1``, each list
    holds the complete lines of what one read returned, decoded with the
    stream's encoding and error handler; ``read1`` blocks only when no input
    is waiting, and a line cut by a read is finished by the next.  Any other
    text stream (``io.StringIO``) is read one line at a time.
    """
    read1 = getattr(getattr(stream, "buffer", None), "read1", None)
    if read1 is None:
        for line in stream:
            yield [line[:-1] if line.endswith("\n") else line]
        return
    decoder = codecs.getincrementaldecoder(stream.encoding)(stream.errors)
    held: list[str] = []  # the start of a line that has not ended yet
    while True:
        data = read1(CHUNK_BYTES)
        text = decoder.decode(data, not data)
        held.append(text)
        if data and "\n" not in text:
            continue
        lines = "".join(held).split("\n")
        held = [lines.pop()]
        if not data:
            if held[0]:
                lines.append(held[0])
            if lines:
                yield lines
            return
        yield lines


def _eq_batch(args) -> int:
    """One slot per non-blank stdin line: the verdict on its tab-separated
    pair, or an error when the line is malformed.  Exit 2 if any line was.

    Whatever one read of stdin returns (``stdin_chunks``) is decided, and its
    slots are written and flushed at once, before stdin is read again; so a
    client that writes a line and waits for its answer gets it.  Under
    ``--json`` the slots go into the one document ``{"results": [...],
    "all_equal": ..., "errors": [...]}``; the errors list closes it, and is
    left out when no line was malformed.  An internal error stops the batch
    at its line, but the slots before it are still written and the document
    closed, with ``all_equal`` false, before ``main`` reports the error.
    """
    if sys.stdin is None:  # started with stdin closed
        raise CliError("no standard input to read pairs from")
    out = sys.stdout
    slots, comma = (JSON_SLOTS, ", ") if args.json else (TEXT_SLOTS, "")
    all_equal = True
    finished = False
    errors: list[dict] = []
    pending = ['{"results": ['] if args.json else []  # written once per chunk
    separator = ""
    lineno = 0
    try:
        for lines in stdin_chunks(sys.stdin):
            for line in lines:
                lineno += 1
                if not line.strip():
                    continue
                try:
                    if "\t" not in line:
                        raise CliError("expected two terms separated by a tab")
                    left_text, right_text = line.split("\t", 1)
                    left = _parse_term(left_text, args)
                    right = _parse_term(right_text, args)
                except (CliError, ValueError) as exc:
                    equal = None
                    errors.append({"line": lineno, "message": str(exc)})
                    if not args.json:
                        print(f"error: line {lineno}: {exc}", file=sys.stderr)
                else:
                    equal = decide.term_equal(left, right, args.theory)
                if not equal:
                    all_equal = False
                pending.append(separator + slots[equal])
                separator = comma
            out.write("".join(pending))
            out.flush()
            pending.clear()
        finished = True
    finally:
        if args.json:
            pending.append(f'], "all_equal": {JSON_SLOTS[all_equal and finished]}')
            if errors:
                pending.append(f', "errors": {json.dumps(errors)}')
            pending.append("}\n")
        out.write("".join(pending))
    if errors:
        return 2
    return 0 if all_equal else 1


def cmd_eq(args) -> Answer:
    left = _parse_term(args.term1, args)
    right = _parse_term(args.term2, args)
    equal = decide.term_equal(left, right, args.theory)
    return (0 if equal else 1), {"equal": equal}, "equal" if equal else "not-equal"


def cmd_nf(args) -> Answer:
    # json.dumps writes the tuple words as words.to_json would, so text output copies none
    t = _parse_term(args.term, args)
    if args.theory == QUANDLE:
        image = translate.quandle_image(t)
        return 0, {"theory": QUANDLE, "word": image}, words.render(image)
    head, tail = translate.rack_image(t)
    return 0, {"theory": RACK, "head": head, "tail": tail}, f"head: {head}, tail: {words.render(tail)}"


def cmd_canon(args) -> Answer:
    t = _parse_term(args.term, args)
    elem = isotropy.canon(t, args.theory)
    if elem is None:
        return 1, {"member": False}, "not-isotropy"
    return 0, partial(isotropy.elem_to_json, elem), isotropy.elem_to_text(elem)


def cmd_mul(args) -> Answer:
    a = _parse_elem(args.elem1, args)
    b = _parse_elem(args.elem2, args)
    elem = isotropy.mul(a, b)
    return 0, partial(isotropy.elem_to_json, elem), isotropy.elem_to_text(elem)


def cmd_inv(args) -> Answer:
    elem = isotropy.invert(_parse_elem(args.elem, args))
    return 0, partial(isotropy.elem_to_json, elem), isotropy.elem_to_text(elem)


def cmd_apply(args) -> Answer:
    elem = _parse_elem(args.elem, args)
    images = [_parse_term(text, args) for text in args.images]
    q = _parse_term(args.arg, args)
    result = render(isotropy.apply_inner(elem, images, q))
    return 0, {"term": result}, result


def cmd_inner_check(args) -> Answer:
    images = [_parse_term(text, args) for text in args.images]
    witness = isotropy.inner_witness(images, args.gens, args.theory)
    if witness is None:
        return 1, {"inner": False}, "not-inner"
    return 0, partial(isotropy.elem_to_json, witness), f"witness {isotropy.elem_to_text(witness)}"


# verify's bound flags, each with the suite bound it sets
BOUND_FLAGS = {
    "--samples": "samples",
    "--max-size": "max_size",
    "--steps": "max_steps",
    "--max-len": "max_len",
    "--max-z": "max_z",
    "--word-len": "word_len",
    "--n": "n",
}


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_verify(args) -> Answer:
    """Run a suite; ``oracle``, ``theorem2`` and ``theorem5`` split their terms
    over every CPU this process may use."""
    suite = suites.SUITES.get(args.suite)
    if suite is None:
        raise CliError(f"unknown suite {args.suite!r}; choose from {', '.join(suites.SUITE_NAMES)}")
    if args.gens:
        raise CliError("verify does not read --gens; a suite's generator count is set with --n")
    bounds = {}
    for flag, key in BOUND_FLAGS.items():
        value = getattr(args, key)
        if value is None:
            continue
        if key not in suite.bounds:
            raise CliError(f"option {flag} does not apply to suite {args.suite!r}")
        bounds[key] = value
    report = suites.run_suite(args.suite, theory=args.theory, seed=args.seed, workers=usable_cpus(), **bounds)
    return (0 if report.ok else 1), report.to_json(), report.to_text()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Decide word problems and manipulate inner automorphisms "
        "of free racks and quandles.",
    )
    parser.add_argument("--theory", choices=(QUANDLE, RACK), default=QUANDLE)
    parser.add_argument("--gens", type=int, default=0, metavar="N",
                        help="number of generators y1..yN (default 0)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    parser.add_argument("--no-aux", action="store_true",
                        help="reject the auxiliary atoms x0/x1 in input terms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eq", help="decide whether two terms are provably equal")
    p.add_argument("term1", nargs="?", default=None)
    p.add_argument("term2", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true",
                   help="read tab-separated term pairs from stdin, one per line")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("nf", help="print the free-group normal form of a term")
    p.add_argument("term")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("canon", help="canonical isotropy form of a term, if any")
    p.add_argument("term")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("mul", help="multiply two canonical elements (JSON)")
    p.add_argument("elem1")
    p.add_argument("elem2")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", help="invert a canonical element (JSON)")
    p.add_argument("elem")
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("apply", help="apply an element at a point, via generator images")
    p.add_argument("elem", help="canonical element as JSON")
    p.add_argument("arg", help="the term the induced map is applied to")
    p.add_argument("--images", nargs="*", default=[], metavar="TERM",
                   help="images of y1..yn (their count fixes the source arity)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("inner-check",
                       help="decide whether generator images define an inner endomorphism")
    p.add_argument("images", nargs="*", metavar="TERM")
    p.set_defaults(func=cmd_inner_check)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", metavar="SUITE",
                   help=f"one of: {', '.join(suites.SUITE_NAMES)}")
    for flag, key in BOUND_FLAGS.items():
        p.add_argument(flag, type=int, default=None, dest=key,
                       help="generator count of the sweep" if flag == "--n" else None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.gens < 0:
        parser.error("--gens must be >= 0")
    if args.command == "eq" and not args.stdin and (args.term1 is None or args.term2 is None):
        parser.error("eq needs two terms (or --stdin)")
    try:
        if args.command == "eq" and args.stdin:
            return _eq_batch(args)
        code, data, text = args.func(args)
        if args.json and callable(data):
            data = data()
        print(json.dumps(data) if args.json else text)
        return code
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
