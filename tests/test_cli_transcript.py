"""Golden transcript of the command-line tool.

``transcript()`` makes a fixed list of in-process ``cli.main`` calls and
records each one's arguments, exit code, stdout and stderr as one JSON line.
The calls cover ``eq``, ``nf``, ``canon``, ``mul``, ``inv``, ``apply`` and
``inner-check`` for both theories, in text and ``--json``, the element input
errors, and ``--json verify`` for every suite at small bounds (with the
``elapsed`` time removed).  The test compares the transcript with the
committed file and never rewrites it.  After a deliberate output change,
regenerate the file from the repository root with

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.jsonl
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from quandles.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_transcript.jsonl")
THEORIES = ("quandle", "rack")
FORMATS = ((), ("--json",))

TERMS = [
    "x",
    "y1",
    "x |> x",
    "x |>~ x |>~ x",
    "x |> y1",
    "(x |> y1) |>~ y2",
    "x |> x |> y1 |> y2",
    "x |>~ x |>~ y2 |> y2 |>~ y1",
    "x |> (y1 |> y2)",
    "x |> (x |> y1)",
    "y1 |> x",
    "(x |> y1) |> (y2 |> y1)",
    "x |> y1 |>~ y1",
    "y2 |>~ (y1 |> (x |> y2))",
]

EQ_PAIRS = [
    ("x |> x", "x"),
    ("(x |> y1) |> y2", "(x |> y2) |> (y1 |> y2)"),
    ("(x |> y1) |>~ y1", "x"),
    ("y1 |> (y2 |> y2)", "y1 |> y2"),
    ("x |> y1", "x |> y2"),
    ("y1 |>~ y1 |>~ y1", "y1 |> y1"),
]

ELEMS = {
    "quandle": [
        '{"theory": "quandle", "word": []}',
        '{"theory": "quandle", "word": [["y1", 1], ["y2", -1]]}',
        '{"theory": "quandle", "word": [["y2", 1], ["y2", 1], ["y1", -1]]}',
    ],
    "rack": [
        '{"theory": "rack", "z": 0, "word": []}',
        '{"theory": "rack", "z": -2, "word": [["y1", 1], ["y2", -1]]}',
        '{"theory": "rack", "z": 3, "word": [["y2", 1], ["y1", -1], ["y1", -1]]}',
        '{"theory": "rack", "word": [["y1", -1]]}',
    ],
}

APPLY_IMAGES = [
    (["y1", "y2"], "x"),
    (["y2 |> y1", "x |>~ y1"], "y1 |> x"),
]

INNER_IMAGES = [
    ["y1", "y2"],
    ["y1 |> y2", "y2 |> y2"],
    ["y1 |>~ y1 |> y2 |>~ y1", "y2 |> y2 |>~ y1"],
    ["y1 |> y1 |> y2", "y2 |> y2 |> y2"],
    ["y1 |> y1 |> y2", "y2 |> y2"],
    ["y2", "y1"],
    ["y1 |> y2", "y2 |> y1"],
    ["x", "y2"],
    ["y1"],
]

ELEM_ERRORS = [
    ("quandle", "inv", '{"theory": "quandle"'),
    ("rack", "inv", "not json"),
    ("quandle", "inv", "[1, 2]"),
    ("quandle", "inv", '{"theory": "bogus", "word": []}'),
    ("quandle", "inv", '{"word": []}'),
    ("rack", "inv", '{"theory": "quandle", "word": []}'),
    ("quandle", "inv", '{"theory": "rack", "z": 1, "word": []}'),
    ("quandle", "inv", '{"theory": "quandle", "z": 0, "word": []}'),
    ("rack", "inv", '{"theory": "rack", "z": 0, "word": [], "extra": 1}'),
    ("rack", "inv", '{"theory": "rack", "z": 1.5, "word": []}'),
    ("rack", "inv", '{"theory": "rack", "z": "2", "word": []}'),
    ("rack", "inv", '{"theory": "rack", "z": true, "word": []}'),
    ("rack", "inv", '{"theory": "rack", "z": null, "word": []}'),
    ("quandle", "inv", '{"theory": "quandle", "word": [["x", 1]]}'),
    ("quandle", "inv", '{"theory": "quandle", "word": [["y1", 2]]}'),
    ("quandle", "inv", '{"theory": "quandle", "word": "y1"}'),
    ("rack", "inv", '{"theory": "rack", "z": 1, "word": [["y1", 1], ["y1", -1]]}'),
    ("quandle", "mul", '{"theory": "quandle", "word": []}', '{"theory": "rack", "word": []}'),
]

SUITE_BOUNDS = [
    ("axioms", "--samples", "20", "--max-size", "5", "--n", "2"),
    ("oracle", "--max-size", "3", "--steps", "2", "--n", "1"),
    ("theorem2", "--max-size", "5", "--n", "1"),
    ("theorem5", "--max-size", "5", "--n", "1"),
    ("iso-f_n", "--max-len", "2", "--n", "2"),
    ("iso-zxf_n", "--max-z", "1", "--max-len", "1", "--n", "2"),
    ("lemmas", "--samples", "20", "--word-len", "3"),
    ("global", "--max-size", "5"),
    ("naturality", "--samples", "10"),
    ("inner", "--max-len", "2", "--max-z", "1", "--n", "2"),
    ("axioms", "--samples", "0"),
    ("inner", "--max-z", "-1"),
]


def _call(argv: list[str], stdin: str = "") -> dict:
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    stdout = out.getvalue()
    if "verify" in argv and "--json" in argv and code in (0, 1):
        report = json.loads(stdout)
        del report["elapsed"]
        stdout = json.dumps(report) + "\n"
    entry = {"argv": argv, "exit": code, "stdout": stdout, "stderr": err.getvalue()}
    if stdin:
        entry["stdin"] = stdin
    return entry


def _calls():
    for theory in THEORIES:
        for fmt in FORMATS:
            common = ["--theory", theory, "--gens", "2", *fmt]
            for left, right in EQ_PAIRS:
                yield common + ["eq", left, right], ""
            yield common + ["eq", "--stdin"], "".join(f"{l}\t{r}\n" for l, r in EQ_PAIRS)
            for term in TERMS:
                yield common + ["nf", term], ""
                yield common + ["canon", term], ""
            elems = ELEMS[theory]
            for a in elems:
                yield common + ["inv", a], ""
                for b in elems:
                    yield common + ["mul", a, b], ""
                for images, q in APPLY_IMAGES:
                    yield common + ["apply", a, q, "--images", *images], ""
            for images in INNER_IMAGES:
                yield common + ["inner-check", *images], ""
    for theory, command, *elems in ELEM_ERRORS:
        yield ["--theory", theory, "--gens", "2", command, *elems], ""
    yield ["--gens", "2", "apply", ELEMS["quandle"][1], "x", "--images", "y1"], ""
    yield ["--theory", "rack", "--gens", "1", "apply", ELEMS["rack"][2], "x", "--images", "y1"], ""
    yield ["--gens", "1", "apply", ELEMS["quandle"][0], "x", "--images", "y2"], ""
    yield ["--gens", "3", "inner-check", "y1", "y2"], ""
    yield ["--theory", "rack", "--gens", "1", "inner-check", "y1", "y1"], ""
    for theory in THEORIES:
        for suite, *bounds in SUITE_BOUNDS:
            yield ["--theory", theory, "--json", "verify", suite, *bounds], ""


def transcript() -> str:
    """The transcript as JSON lines, one per call."""
    return "".join(json.dumps(_call(argv, stdin)) + "\n" for argv, stdin in _calls())


def test_cli_transcript_matches_golden():
    with open(GOLDEN, encoding="utf-8") as f:
        golden = f.read().splitlines()
    assert transcript().splitlines() == golden


if __name__ == "__main__":
    sys.stdout.write(transcript())
