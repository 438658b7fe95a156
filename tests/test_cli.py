import io
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time

import pytest

from test_decide import right_nested

from quandles import cli, compressed, decide, isotropy, suites
from quandles.cli import main, stdin_chunks
from quandles.terms import render


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "--gens", "1", "eq", "y1 |> y1", "y1")
    assert (code, out.strip()) == (0, "equal")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "eq", "y1 |> y1", "y1")
    assert (code, out.strip()) == (1, "not-equal")
    code, out, err = run(capsys, "--gens", "1", "eq", "y1 |>", "y1")
    assert code == 2
    assert not out
    assert "error" in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_eq_takes_terms_or_stdin_not_both(capsys, monkeypatch, json_flag):
    monkeypatch.setattr("sys.stdin", io.StringIO("y1\ty1\n"))
    with pytest.raises(SystemExit) as exit_info:
        main(["--gens", "1", *json_flag, "eq", "--stdin", "y1", "y2"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert "eq takes two terms or --stdin, not both" in err


def test_eq_distributivity():
    assert main(["--theory", "rack", "--gens", "2", "eq",
                 "(x |> y1) |> y2", "(x |> y2) |> (y1 |> y2)"]) == 0


def test_eq_unknown_generator_is_input_error(capsys):
    code, _, err = run(capsys, "--gens", "1", "eq", "y2", "y2")
    assert code == 2
    assert "y2" in err


def test_eq_json(capsys):
    code, out, _ = run(capsys, "--gens", "1", "--json", "eq", "y1", "y1")
    assert code == 0
    assert json.loads(out) == {"equal": True}


def buffered_stdin(text):
    """A stdin like the real one: text over a binary buffer that has ``read1``."""
    return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", errors="surrogateescape")


# the two kinds of stdin eq --stdin reads: line by line, and a chunk per read
STDINS = (io.StringIO, buffered_stdin)


def test_eq_stdin_batch(capsys, monkeypatch):
    for stdin in STDINS:
        monkeypatch.setattr("sys.stdin", stdin("y1 |> y1\ty1\ny1\ty2\n"))
        code, out, _ = run(capsys, "--gens", "2", "eq", "--stdin")
        assert code == 1
        assert out.splitlines() == ["equal", "not-equal"]


def test_eq_stdin_gives_each_line_a_slot(capsys, monkeypatch):
    for stdin in STDINS:
        monkeypatch.setattr("sys.stdin", stdin("x\tx\nx |> \tx\n\ny1\ty1\nno tab\ny1\tx\n"))
        code, out, err = run(capsys, "--gens", "1", "eq", "--stdin")
        assert code == 2
        assert out.splitlines() == ["equal", "error", "equal", "error", "not-equal"]
        assert err.splitlines() == [
            "error: line 2: unexpected end of input (at position 5)",
            "error: line 5: expected two terms separated by a tab",
        ]


def test_eq_stdin_json_marks_malformed_lines(capsys, monkeypatch):
    for stdin in STDINS:
        monkeypatch.setattr("sys.stdin", stdin("x\tx\nx |> \tx\ny1\ty9\ny1\ty1\n"))
        code, out, err = run(capsys, "--gens", "1", "--json", "eq", "--stdin")
        assert code == 2
        assert not err
        assert json.loads(out) == {
            "results": [True, None, None, True],
            "all_equal": False,
            "errors": [
                {"line": 2, "message": "unexpected end of input (at position 5)"},
                {"line": 3, "message": "generator y9 is out of range for n=1"},
            ],
        }
        # without a malformed line there is no errors list, and exit 0 or 1 as before
        monkeypatch.setattr("sys.stdin", stdin("x\tx\ny1\tx\n"))
        code, out, _ = run(capsys, "--gens", "1", "--json", "eq", "--stdin")
        assert (code, json.loads(out)) == (1, {"results": [True, False], "all_equal": False})


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_eq_stdin_closed_is_an_input_error(capsys, monkeypatch, json_flag):
    # a process started with stdin closed has sys.stdin None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(capsys, "--gens", "1", *json_flag, "eq", "--stdin")
    assert (code, out, err) == (2, "", "error: no standard input to read pairs from\n")


CLOSED_STDOUT_BATCHES = [  # stdin, exit code, stderr of the text form
    ("y1\ty1\ny1 |> y1\ty1\n", 0, ""),
    ("y1\ty1\ny1\tx\n", 1, ""),
    ("y1\ty1\nno tab\n", 2, "error: line 2: expected two terms separated by a tab\n"),
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("text, code, err", CLOSED_STDOUT_BATCHES)
def test_eq_stdin_with_stdout_closed_decides_and_writes_nothing(capsys, monkeypatch, json_flag, text, code, err):
    # a process started with stdout closed has sys.stdout None, and the
    # one-shot commands print nothing there and exit with their verdict
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    monkeypatch.setattr("sys.stdout", None)
    assert main(["--gens", "1", *json_flag, "eq", "--stdin"]) == code
    assert capsys.readouterr().err == ("" if json_flag else err)


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("text, code, err", CLOSED_STDOUT_BATCHES)
def test_eq_stdin_with_stdout_closed_in_a_process(json_flag, text, code, err):
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "quandles", "--gens", "1", *json_flag, "eq", "--stdin"],
                          input=text.encode(), stderr=subprocess.PIPE, env=env, timeout=30,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr.decode()) == (code, "" if json_flag else err)


class Trickle(io.RawIOBase):
    """Raw bytes handed out 1 to 7 at a time, in a fixed cycle from ``phase``."""

    def __init__(self, data, phase):
        self.data, self.at, self.reads = data, 0, phase

    def readable(self):
        return True

    def readinto(self, buffer):
        self.reads += 1
        k = min(len(buffer), 1 + self.reads % 7, len(self.data) - self.at)
        buffer[:k] = self.data[self.at:self.at + k]
        self.at += k
        return k


READER_INPUTS = {
    "line ends": b"a\r\nb\rc\x0bd\x0ce\x1cf\n" + "g\x85h\u2028i\r\n\r\n".encode(),
    "invalid utf-8": b"x\xff\xfey\n\xc3\n\xe2\x82\tz\n\xf0\x9d",
    "multibyte": "\u00e9\u20ac\U0001d11e\n".encode() * 5 + "\t\u20ac\r\n".encode() * 5,
    "no final newline": b"x\ty1\n\n\n y1 \n\nlast",
    "blank lines": b"\n\n \n\t\n\n",
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(READER_INPUTS))
def test_stdin_chunks_split_lines_as_iterating_stdin_does(name):
    data = READER_INPUTS[name]
    reference = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n")
    expected = [line.removesuffix("\n") for line in reference]
    for phase in range(7):  # each cycle of read sizes cuts the input in other places
        stdin = io.TextIOWrapper(io.BufferedReader(Trickle(data, phase)), encoding="utf-8", errors="surrogateescape")
        chunks = list(stdin_chunks(stdin))
        assert all(chunks)
        assert [line for chunk in chunks for line in chunk] == expected
    # a stream without a binary buffer gives one line per chunk
    chunks = list(stdin_chunks(io.StringIO(data.decode("utf-8", "surrogateescape"))))
    assert chunks == [[line] for line in expected]


class AnsweredLineByLine(io.StringIO):
    """stdin that lets a line be read only once every line before it is answered."""

    def __init__(self, text, out):
        super().__init__(text)
        self.out, self.lines_read = out, 0

    def __next__(self):
        assert self.out.getvalue().count("\n") == self.lines_read, "a line was read before the last was answered"
        self.lines_read += 1
        return super().__next__()


def test_eq_stdin_answers_each_line_before_reading_the_next(capsys, monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stdin", AnsweredLineByLine("x\tx\ny1\tx\ny1 |> y1\ty1\n", out))
    code, _, err = run(capsys, "--gens", "1", "eq", "--stdin")
    assert (code, err, out.getvalue()) == (1, "", "equal\nnot-equal\nequal\n")


def test_eq_stdin_serves_a_client_that_waits_for_each_answer():
    # a co-process: write one pair, wait for its answer, then write the next;
    # without PYTHONUNBUFFERED an answer left in a block buffer never comes
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    # leaving the block closes stdin, so the program ends even when an answer is missing
    with subprocess.Popen([sys.executable, "-m", "quandles", "--gens", "1", "eq", "--stdin"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env) as proc:
        for pair, answer in ((b"y1 |> y1\ty1\n", b"equal\n"), (b"x |> y1\tx\n", b"not-equal\n")):
            proc.stdin.write(pair)
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, f"no answer to {pair!r} within 10 s"
            assert proc.stdout.readline() == answer
        proc.stdin.close()
        assert proc.wait(timeout=10) == 1


def test_nf_output(capsys):
    code, out, _ = run(capsys, "--gens", "1", "nf", "x |> y1")
    assert (code, out.strip()) == (0, "y1^-1 x y1")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "nf", "x |> x |> y1")
    assert (code, out.strip()) == (0, "head: x, tail: x y1")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "nf", "y1")
    assert (code, out.strip()) == (0, "head: y1, tail: e")


def test_canon_member_and_json_round_trip(capsys):
    code, out, _ = run(capsys, "--gens", "2", "canon", "(x |> y1) |>~ y2")
    assert (code, out.strip()) == (0, "word: y1 y2^-1")
    code, out, _ = run(capsys, "--gens", "2", "--json", "canon", "(x |> y1) |>~ y2")
    assert code == 0
    data = json.loads(out)
    assert isotropy.elem_to_json(isotropy.elem_from_json(data)) == data
    code, out, _ = run(capsys, "--gens", "1", "canon", "y1 |> x")
    assert (code, out.strip()) == (1, "not-isotropy")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "canon", "x |> x")
    assert (code, out.strip()) == (0, "z: 1, word: e")


def test_mul_and_inv(capsys):
    elem = '{"theory": "quandle", "word": [["y1", 1]]}'
    other = '{"theory": "quandle", "word": [["y2", 1]]}'
    code, out, _ = run(capsys, "--gens", "2", "mul", elem, other)
    assert (code, out.strip()) == (0, "word: y2 y1")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "--json",
                       "inv", '{"theory": "rack", "z": 2, "word": [["y1", 1]]}')
    assert code == 0
    assert json.loads(out) == {"theory": "rack", "z": -2, "word": [["y1", -1]]}
    code, out, _ = run(capsys, "--gens", "2", "mul", elem,
                       '{"theory": "quandle", "word": [["y1", -1]]}')
    assert (code, out.strip()) == (0, "word: e")


def test_text_and_json_answers_name_one_element(capsys):
    elem = '{"theory": "quandle", "word": [["y1", 1]]}'
    for argv, want in (
        (["canon", "(x |> y1) |>~ y2"], "word: y1 y2^-1"),
        (["mul", elem, elem], "word: y1 y1"),
        (["inv", elem], "word: y1^-1"),
        (["inner-check", "y1 |> y1", "y2 |> y1"], "witness word: y1"),
    ):
        code, out, err = run(capsys, "--gens", "2", *argv)
        assert (code, out.strip(), err) == (0, want, ""), argv
        code, out, err = run(capsys, "--gens", "2", "--json", *argv)
        assert (code, err) == (0, ""), argv
        text = isotropy.elem_to_text(isotropy.elem_from_json(json.loads(out)))
        assert want.removeprefix("witness ") == text, argv


def test_elem_theory_mismatch(capsys):
    code, _, err = run(capsys, "--theory", "rack", "--gens", "1", "inv",
                       '{"theory": "quandle", "word": []}')
    assert code == 2
    assert "theory" in err


def test_malformed_elem_json(capsys):
    code, _, err = run(capsys, "--gens", "1", "inv", "{not json")
    assert code == 2
    assert "JSON" in err


DEEP_JSON = "[" * 20000 + "]" * 20000


@pytest.mark.parametrize("theory, elem", (
    ("quandle", DEEP_JSON),
    ("rack", f'{{"theory": "rack", "z": 1, "word": {DEEP_JSON}}}'),
), ids=("quandle", "rack"))
def test_deeply_nested_elem_json_is_an_input_error(capsys, theory, elem):
    # valid JSON that json.loads cannot read without a RecursionError
    code, out, err = run(capsys, "--theory", theory, "--gens", "1", "inv", elem)
    assert (code, out, err) == (2, "", "error: element JSON nests too deep\n")


@pytest.mark.parametrize("theory, exponent", (("quandle", "true"), ("rack", "1.0"), ("rack", "-1.0")))
def test_mul_rejects_a_non_integer_exponent(capsys, theory, exponent):
    elem = f'{{"theory": "{theory}", "word": [["y1", {exponent}]]}}'
    code, out, err = run(capsys, "--theory", theory, "--gens", "1", "--json",
                         "mul", elem, f'{{"theory": "{theory}", "word": []}}')
    assert (code, out) == (2, "")
    assert err.startswith("error: bad word entry")


def test_apply(capsys):
    code, out, _ = run(capsys, "--gens", "2", "apply",
                       '{"theory": "quandle", "word": [["y1", 1]]}', "y1",
                       "--images", "y2")
    assert (code, out.strip()) == (0, "y1 |> y2")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "apply",
                       '{"theory": "rack", "z": 1, "word": []}', "y1", "--images")
    assert (code, out.strip()) == (0, "y1 |> y1")


def test_apply_arity_mismatch(capsys):
    code, _, err = run(capsys, "--gens", "2", "apply",
                       '{"theory": "quandle", "word": [["y2", 1]]}', "y1",
                       "--images", "y1")
    assert code == 2
    assert "images" in err


def test_inner_check(capsys):
    code, out, _ = run(capsys, "--gens", "2", "inner-check", "y1 |> y2", "y2 |> y2")
    assert (code, out.strip()) == (0, "witness word: y2")
    code, out, _ = run(capsys, "--gens", "2", "inner-check", "y2", "y1")
    assert (code, out.strip()) == (1, "not-inner")
    code, out, _ = run(capsys, "--theory", "rack", "--gens", "1", "inner-check", "y1 |> y1")
    assert (code, out.strip()) == (0, "witness z: 1, word: e")


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "global", "--max-size", "5")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(capsys, "--theory", "rack", "--json", "verify", "global", "--max-size", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_help_lists_the_suites_in_order(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "-h"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"SUITE one of: {', '.join(suites.SUITE_NAMES)} options:" in help_text


# what one eq launch must not load: the layers it never runs, and dataclasses
NOT_LOADED_BY_EQ = ("quandles.isotropy", "quandles.rewrite", "quandles.suites", "quandles.strides",
                    "quandles.compressed", "dataclasses")


def test_eq_loads_only_the_deciding_layers():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = ("import sys; from quandles import cli; "
              "code = cli.main(['--gens', '1', 'eq', 'y1', 'y1']); "
              f"print(code, [name for name in {NOT_LOADED_BY_EQ!r} if name in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.stdout, proc.stderr) == ("equal\n0 []\n", "")


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert cli.usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli.usable_cpus() == 1


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_rejects_inapplicable_bound(capsys):
    code, _, err = run(capsys, "verify", "global", "--samples", "10")
    assert code == 2
    assert "does not apply" in err


def test_verify_rejection_names_the_flag_given(capsys):
    code, _, err = run(capsys, "verify", "axioms", "--steps", "2")
    assert code == 2
    assert "option --steps does not apply" in err


@pytest.mark.parametrize("theory", ["quandle", "rack"])
def test_verify_rejects_gens(capsys, theory):
    # a suite sweeps its own generators: --gens would be silently ignored
    code, out, err = run(capsys, "--theory", theory, "--gens", "7", "verify", "theorem2", "--max-size", "5")
    assert (code, out) == (2, "")
    assert "--gens" in err and "--n" in err
    assert run(capsys, "--gens", "0", "verify", "theorem2", "--max-size", "2")[0] == 0


def test_no_aux_flag(capsys):
    code, out, _ = run(capsys, "--gens", "0", "eq", "x0", "x0")
    assert code == 0
    code, _, err = run(capsys, "--gens", "0", "--no-aux", "eq", "x0", "x0")
    assert code == 2


def test_verify_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "verify", "axioms", "--samples", "0")
    assert code == 2
    assert not out
    assert "samples" in err


def test_verify_rejects_max_size_below_one(capsys):
    code, out, err = run(capsys, "verify", "axioms", "--max-size", "0")
    assert (code, out, err) == (2, "", "error: max_size must be >= 1, got 0\n")


def test_verify_rejects_zero_generators(capsys):
    code, out, err = run(capsys, "verify", "axioms", "--n", "0")
    assert code == 2
    assert not out
    assert "n must be >= 1" in err


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("decider failed")

    monkeypatch.setattr(decide, "text_equal", broken)
    code, out, err = run(capsys, "--gens", "1", "eq", "y1", "y1")
    assert code == 3
    assert not out
    assert err.startswith("internal error: ")
    assert "Traceback" not in err


DEEP_CHAIN = "x" + " |> y1" * 3000
# stdin -> the report of eq --stdin --json, under --gens 1
STDIN_BATCHES = {
    "empty": ("", {"results": [], "all_equal": True}),
    "all equal": ("x\tx\ny1 |> y1\ty1\n\n(x |> y1) |>~ y1\tx\n", {"results": [True] * 3, "all_equal": True}),
    "malformed": ("x\tx\nno tab\ny1\tx\n", {
        "results": [True, None, False],
        "all_equal": False,
        "errors": [{"line": 2, "message": "expected two terms separated by a tab"}],
    }),
}


@pytest.mark.parametrize("batch", sorted(STDIN_BATCHES))
def test_eq_stdin_json_streams_the_buffered_document(capsys, monkeypatch, batch):
    text, report = STDIN_BATCHES[batch]
    for stdin in STDINS:
        monkeypatch.setattr("sys.stdin", stdin(text))
        code, out, _ = run(capsys, "--gens", "1", "--json", "eq", "--stdin")
        assert out == json.dumps(report) + "\n"
        assert code == (2 if "errors" in report else 0 if report["all_equal"] else 1)


@pytest.mark.parametrize(
    "test", [test_eq_stdin_batch, test_eq_stdin_gives_each_line_a_slot, test_eq_stdin_json_marks_malformed_lines]
)
def test_eq_stdin_answers_short_terms_without_the_model(capsys, monkeypatch, test):
    def unreachable(terms, theory):
        raise AssertionError("the model was asked about short terms")

    monkeypatch.setattr(compressed, "model_keys", unreachable)
    test(capsys, monkeypatch)


@pytest.mark.parametrize("mode", ["text", "json"])
def test_eq_stdin_internal_error_stops_the_batch(capsys, monkeypatch, mode):
    decided = decide.text_equal

    def fails_on_line_2(s, t, *args, **kwargs):
        if s == "y1":
            raise RuntimeError("boom")
        return decided(s, t, *args, **kwargs)

    monkeypatch.setattr(decide, "text_equal", fails_on_line_2)
    # a buffered stdin is read in one chunk, so the slot of line 1 is still
    # pending when line 2 fails: it must be written all the same
    for stdin in STDINS:
        monkeypatch.setattr("sys.stdin", stdin("x\tx\ny1\ty1\ny1 |> y1\ty1\n"))
        code, out, err = run(capsys, "--gens", "1", *(["--json"] if mode == "json" else []), "eq", "--stdin")
        assert code == 3
        assert err == "internal error: RuntimeError: boom\n"
        if mode == "json":
            assert json.loads(out) == {"results": [True], "all_equal": False}
        else:
            assert out == "equal\n"


def _cap_address_space(limit=1 << 30):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_internal_error_exits_3_when_its_report_fails(monkeypatch):
    def broken(*args):
        raise RuntimeError("decider failed")

    class Full(io.StringIO):
        def write(self, text):
            raise MemoryError

    monkeypatch.setattr(decide, "text_equal", broken)
    monkeypatch.setattr(sys, "stderr", Full())
    assert main(["--gens", "1", "eq", "y1", "y1"]) == 3


def test_running_out_of_memory_exits_3_with_one_line():
    # the alphabet of --n fills the child's address space; the report of the
    # MemoryError must not need the memory that the failing frames hold
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "quandles", "verify", "axioms", "--n", "100000000"],
                          capture_output=True, text=True, env=env, timeout=10,
                          preexec_fn=lambda: _cap_address_space(128 << 20))
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "internal error: MemoryError: \n")


def test_eq_past_the_expansion_wall_in_a_process():
    # at k = 65 a full rack normal form would have 2^64 - 1 letters; a
    # program that tries to build it fails here, within the time and memory caps
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def quandles(*argv, stdin=None):
        proc = subprocess.run([sys.executable, "-m", "quandles", *argv], capture_output=True, text=True,
                              input=stdin, env=env, timeout=10, preexec_fn=_cap_address_space)
        return proc.returncode, proc.stdout, proc.stderr

    near_miss = render(right_nested(65)), render(right_nested(65, -1))
    assert quandles("--theory", "rack", "--gens", "65", "eq", *near_miss) == (1, "not-equal\n", "")
    # at k = 40 a full quandle normal form would have 2^40 - 1 letters
    t = render(right_nested(40))
    equal = t, f"({t}) |> y1 |>~ y1"
    assert quandles("--gens", "64", "eq", *equal) == (0, "equal\n", "")
    batch = f"y1\ty1\n{equal[0]}\t{equal[1]}\ny1\ty2\n"
    assert quandles("--gens", "64", "eq", "--stdin", stdin=batch) == (1, "equal\nequal\nnot-equal\n", "")


DEEP_PARENS = "(" * 3000 + "x |> y1" + ")" * 3000
DEEP_NESTED = "y1 |> (" * 2999 + "y1 |> y1" + ")" * 2999


@pytest.mark.parametrize("theory", ["quandle", "rack"])
def test_deep_terms_answer(capsys, theory):
    code, out, _ = run(capsys, "--theory", theory, "--gens", "1", "eq", DEEP_CHAIN, DEEP_CHAIN)
    assert (code, out.strip()) == (0, "equal")
    for command in ("nf", "canon"):
        code, out, err = run(capsys, "--theory", theory, "--gens", "1", command, DEEP_CHAIN)
        assert code in (0, 1)
        assert out and not err
    code, out, _ = run(capsys, "--theory", theory, "--gens", "1", "eq", DEEP_PARENS, "x |> y1")
    assert (code, out.strip()) == (0, "equal")
    code, out, _ = run(capsys, "--theory", theory, "--gens", "1", "eq", DEEP_NESTED, "y1")
    expected = (0, "equal") if theory == "quandle" else (1, "not-equal")
    assert (code, out.strip()) == expected


@pytest.mark.parametrize("theory, k", [("quandle", 24), ("rack", 25)])
def test_eq_on_deep_right_nested_terms(capsys, theory, k):
    t = render(right_nested(k))
    code, out, _ = run(capsys, "--theory", theory, "--gens", str(k), "eq", t, f"({t}) |> y1 |>~ y1")
    assert (code, out.strip()) == (0, "equal")
    code, out, _ = run(capsys, "--theory", theory, "--gens", str(k), "eq", t, render(right_nested(k, -1)))
    assert (code, out.strip()) == (1, "not-equal")


@pytest.mark.parametrize(
    "suite, option",
    [
        ("iso-f_n", "--max-len"),
        ("iso-zxf_n", "--max-z"),
        ("iso-zxf_n", "--max-len"),
        ("lemmas", "--word-len"),
        ("inner", "--max-len"),
        ("inner", "--max-z"),
    ],
)
def test_verify_rejects_negative_bound(capsys, suite, option):
    code, out, err = run(capsys, "verify", suite, option, "-1")
    assert code == 2
    assert not out
    assert f"{option[2:].replace('-', '_')} must be >= 0" in err


@pytest.mark.parametrize("suite", ["oracle", "theorem2", "theorem5", "iso-f_n", "iso-zxf_n", "inner"])
def test_verify_rejects_a_negative_generator_count(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--n", "-1")
    assert (code, out) == (2, "")
    assert "n must be >= 0, got -1" in err


CLOSED_PIPE_CASES = [
    pytest.param(["verify", "global"], "", id="verify"),
    pytest.param(["--gens", "1", "eq", "y1", "y1"], "", id="eq"),
    pytest.param(["--gens", "1", "eq", "--stdin"], "y1\ty1\n" * 3, id="eq-stdin"),
    pytest.param(["--gens", "1", "--json", "eq", "--stdin"], "y1\ty1\n" * 3, id="eq-stdin-json"),
]


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, stdin", CLOSED_PIPE_CASES)
def test_a_closed_output_pipe_exits_141_quietly(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, stdin", CLOSED_PIPE_CASES)
def test_a_closed_output_pipe_exits_141_quietly_in_a_process(argv, stdin, unbuffered):
    # 141 is what a shell reports for a writer killed by SIGPIPE; with the
    # output still buffered, the flush at exit must not fail either (exit 120)
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quandles", *argv], input=stdin.encode(), stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=30)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("argv, out", [
    pytest.param(["eq", "y1 |> y1", "y1"], "", id="eq"),
    pytest.param(["--json", "eq", "--stdin"], '{"results": [true], "all_equal": false}\n', id="eq-stdin-json"),
])
def test_an_interrupt_exits_130_quietly(capsys, monkeypatch, argv, out):
    # 130 is what a shell reports for a process killed by SIGINT
    decided = decide.text_equal

    def interrupted_on_line_2(s, t, *args, **kwargs):
        if s == "y1 |> y1":
            raise KeyboardInterrupt
        return decided(s, t, *args, **kwargs)

    monkeypatch.setattr(decide, "text_equal", interrupted_on_line_2)
    monkeypatch.setattr(sys, "stdin", io.StringIO("y1\ty1\ny1 |> y1\ty1\ny1\ty1\n"))
    assert run(capsys, "--gens", "1", *argv) == (130, out, "")


# a verify run whose two workers each print their pid and then sleep
SLOW_SWEEP = """
import os, signal, sys, time
from quandles import cli, suites
signal.signal(signal.SIGINT, signal.default_int_handler)  # also where started with SIGINT ignored
cli.usable_cpus = lambda: 2

def slow(theory, stride):
    os.write(1, b"%d\\n" % os.getpid())  # one write, which the other worker's cannot split
    time.sleep(60)

suites._theorem_tally = slow
sys.exit(cli.main(["verify", "theorem2", "--max-size", "5"]))
"""


def test_an_interrupt_to_verify_alone_exits_130_at_once_and_kills_its_workers():
    # only the parent gets SIGINT, as from kill -INT; it must not wait for
    # the workers' folds to finish
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with subprocess.Popen([sys.executable, "-c", SLOW_SWEEP], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env) as proc:
        try:
            workers = [int(proc.stdout.readline()) for _ in range(2)]
            start = time.monotonic()
            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=30)
            waited = time.monotonic() - start
        finally:
            proc.kill()
        out, err = proc.communicate()
    assert (code, out, err) == (130, "", "")
    assert waited < 5, waited  # a worker would hold it for 60 s
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


LONG_WORD = [["y1", 1], ["y2", -1]] * 1500


@pytest.mark.parametrize("theory, z", [("quandle", 0), ("rack", 0), ("rack", -2000)])
def test_apply_and_inner_check_on_long_words(capsys, theory, z):
    elem = {"theory": theory, "word": LONG_WORD}
    if theory == "rack":
        elem["z"] = z
    common = ["--theory", theory, "--gens", "2"]
    code, out, err = run(capsys, *common, "apply", json.dumps(elem), "y1", "--images", "y1", "y2")
    assert (code, err) == (0, "")
    assert out.count("|>") == len(LONG_WORD) + abs(z)
    images = []
    for g in ("y1", "y2"):
        code, out, err = run(capsys, *common, "apply", json.dumps(elem), g, "--images", "y1", "y2")
        assert (code, err) == (0, "")
        images.append(out.strip())
    code, out, err = run(capsys, *common, "--json", "inner-check", *images)
    assert (code, err) == (0, "")
    assert json.loads(out) == elem


@pytest.mark.parametrize("theory", ["quandle", "rack"])
def test_apply_with_deep_image(capsys, theory):
    elem = json.dumps({"theory": theory, "word": [["y1", 1]]})
    code, out, err = run(capsys, "--theory", theory, "--gens", "1", "apply", elem, "y1", "--images", DEEP_CHAIN)
    assert (code, err) == (0, "")
    assert out.strip() == "y1 |> (y1" + " |> y1" * 3000 + ")"


@pytest.mark.parametrize("theory", ["quandle", "rack"])
@pytest.mark.parametrize("n", ["0", "1"])
def test_verify_inner_with_fewer_than_two_generators(capsys, theory, n):
    code, out, err = run(capsys, "--theory", theory, "verify", "inner", "--n", n)
    assert (code, err) == (0, "")
    assert "witnesses induce the same images" in out


def test_element_generators_are_read_as_the_term_parser_reads_them(capsys):
    # y0 is no generator, so it must not reach images[-1]; y01 is y1
    y0 = json.dumps({"theory": "quandle", "word": [["y0", 1]]})
    code, out, err = run(capsys, "--gens", "2", "apply", y0, "x", "--images", "y1", "y2")
    assert (code, out) == (2, "")
    assert "generator index must be >= 1, got 0" in err
    y01, y1_inv = ({"theory": "quandle", "word": [[name, e]]} for name, e in (("y01", 1), ("y1", -1)))
    assert run(capsys, "--gens", "1", "mul", json.dumps(y01), json.dumps(y1_inv)) == (0, "word: e\n", "")
    with pytest.raises(ValueError, match="generator letters only"):
        isotropy.QuandleElem((("y01", 1),))
    with pytest.raises(ValueError, match="generator letters only"):
        isotropy.RackElem(0, (("y0", 1),))
