"""Fuzzing the command line: whatever the arguments and stdin, ``cli.main``
answers with exit 0, 1 or 2 and never with a traceback.  Exit 3 is an
internal error, so it fails the test too.

Arguments are drawn from the real global flags and subcommands, with term
text and element JSON glued together from fragments, so that most inputs
are near misses of valid ones.
"""

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

from test_cli import Trickle

from quandles import suites
from quandles.cli import main

TERM_FRAGMENTS = [
    "x", "x0", "x1", "y1", "y2", "y3", "y0", "y", "y²", "z", " |> ", " |>~ ", "|", "~", "(", ")", " ", "\t",
    # right-nested, y1 |> (y2 |> (y1 |> ...)) with 14 atoms: past the cap of
    # eq's compact keys, and short enough for nf to expand
    "(" + "".join(f"y{1 + i % 2} |> (" for i in range(12)) + "y1 |> y2" + ")" * 13,
]
JSON_FRAGMENTS = [
    '{"theory": "quandle", "word": []}',
    '{"theory": "quandle", "word": [["y1", 1], ["y2", -1]]}',
    '{"theory": "rack", "z": 2, "word": [["y1", 1]]}',
    '{"theory": "rack", "z": -1, "word": []}',
    '{"theory": "rack", "word": []}',
    '{"theory": "rack", "z": 1.5, "word": []}',
    '{"theory": "quandle", "word": [["y1", 2]]}',
    '{"theory": "quandle", "word": [["x", 1]]}',
    '{"theory": "group", "word": []}',
    '{"theory": "quandle", "word": [["y1"]]}',
    "[]", "null", "1", '"quandle"', "{", "}", '{"word": ', "[" * 20000,
]
SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])

terms = st.lists(st.sampled_from(TERM_FRAGMENTS), max_size=8).map("".join)
elements = st.one_of(
    st.sampled_from(JSON_FRAGMENTS),
    st.lists(st.sampled_from(JSON_FRAGMENTS), min_size=2, max_size=3).map("".join),
)


@st.composite
def argvs(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--theory", draw(st.sampled_from(["quandle", "rack", "group"]))]
    if draw(st.booleans()):
        argv += ["--gens", draw(SMALL)]
    for flag in ("--json", "--no-aux"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--seed", draw(SMALL)]
    command = draw(st.sampled_from(["eq", "nf", "canon", "mul", "inv", "apply", "inner-check", "verify", "frobnicate"]))
    argv.append(command)
    if command == "eq":
        argv += draw(st.one_of(st.just(["--stdin"]), st.lists(terms, max_size=3)))
    elif command in ("nf", "canon"):
        argv += draw(st.lists(terms, min_size=1, max_size=2))
    elif command in ("mul", "inv"):
        argv += draw(st.lists(elements, min_size=1, max_size=2))
    elif command == "apply":
        argv += [draw(elements), draw(terms), "--images", *draw(st.lists(terms, max_size=3))]
    elif command == "inner-check":
        argv += draw(st.lists(terms, max_size=3))
    elif command == "verify":
        # every bound the suite takes, at small values, so that no run is long
        name = draw(st.sampled_from([*suites.SUITE_NAMES, "nothing"]))
        argv.append(name)
        bounds = list(suites.SUITES[name].bounds) if name in suites.SUITES else []
        if draw(st.booleans()):
            bounds.append(draw(st.sampled_from(["samples", "max_size", "max_steps", "max_len", "max_z", "word_len", "n"])))
        for bound in bounds:
            flag = {"max_steps": "--steps"}.get(bound, "--" + bound.replace("_", "-"))
            argv += [flag, draw(SMALL)]
    return argv


stdins = st.lists(
    st.one_of(st.tuples(terms, terms).map("\t".join), terms), max_size=4
).map(lambda lines: "".join(line + "\n" for line in lines))


def trickled(text, phase):
    """stdin over a raw stream that returns a few bytes per read."""
    raw = Trickle(text.encode("utf-8", "surrogateescape"), phase)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", errors="surrogateescape")


# stdin read a line at a time, or a chunk per read cut anywhere
stdin_streams = st.one_of(
    stdins.map(io.StringIO),
    st.builds(trickled, stdins, st.integers(0, 6)),
)


@settings(max_examples=100, deadline=None)
@given(argvs(), stdin_streams)
def test_cli_never_crashes(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
