"""Benchmark for ``quandles``: three workloads, an answer key, a traced run.

    python3 bench/run.py --workload {eq-stream,verify-suites,deep-terms}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` and
started as ``python -m quandles``, never changed.  Inputs come from ``--seed``
through ``gen.py``.  With ``--trace 0`` the workload repeats whole passes over
its inputs until ``--seconds`` have gone by and reports medians over passes;
with ``--trace 1`` it makes one untraced and one traced in-process pass and
reports per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object.  Every verdict is checked against the answer key,
and any wrong verdict makes the exit status 1.  Without ``src/quandles`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import deep_worker
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")

SETUP_LAUNCHES = 15
IMPORT_TIME_LAUNCHES = 3
EQ_PAIRS_PER_THEORY = 10000
DEEP_BULK = 200
DEEP_BUDGET_S = 1.0

FAILURE_KINDS = ("wrong", "missing", "exception", "budget", "coverage")


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def quandles_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "quandles", *args]


def timed_run(cmd: list[str], stdin_text: str = "") -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, input=stdin_text, capture_output=True, text=True, env=program_env(), cwd=ROOT)
    return proc, time.perf_counter() - start


def setup_seconds() -> float:
    """Median cold start of a one-pair ``eq``, after one launch that fills
    the bytecode cache (users pay that once, not per run)."""
    cmd = quandles_cmd("--gens", "1", "eq", "y1", "y1")
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        proc, wall = timed_run(cmd)
        if proc.returncode != 0 or proc.stdout.strip() != "equal":
            raise SystemExit(f"cold-start probe failed: exit {proc.returncode}: {proc.stderr.strip()}")
        if i:
            times.append(wall)
    return statistics.median(times)


def import_seconds() -> float:
    """Median cumulative import time of the ``quandles`` package."""
    times = []
    for _ in range(IMPORT_TIME_LAUNCHES):
        proc, _ = timed_run([sys.executable, "-X", "importtime", "-c", "import quandles"])
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "quandles":
                times.append(int(fields[1]) / 1e6)
    return statistics.median(times)


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Tally:
    """Operations attempted and failed, by kind of failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.examples: list[str] = []

    def fail(self, kind: str, what: str, count: int = 1) -> None:
        self.failed[kind] += count
        if len(self.examples) < 5:
            self.examples.append(f"{kind}: {what}")

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())

    @property
    def correct(self) -> bool:
        return self.failed["wrong"] == 0


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# eq-stream
# ---------------------------------------------------------------------------


def eq_check(pairs, lines: list[str], tally: Tally, theory: str) -> int:
    """Count correct verdicts; wrong and missing ones are failures."""
    correct = 0
    for i, (left, right, expected) in enumerate(pairs):
        tally.attempted += 1
        got = lines[i] if i < len(lines) else None
        if got not in ("equal", "not-equal"):
            tally.fail("missing", f"{theory} line {i + 1}: no verdict")
        elif (got == "equal") != expected:
            tally.fail("wrong", f"{theory}: {left} vs {right}: got {got}")
        else:
            correct += 1
    return correct


class EqStream:
    name = "eq-stream"

    def __init__(self, seed: int):
        self.pairs = {th: gen.eq_pairs(seed, th, EQ_PAIRS_PER_THEORY) for th in (gen.QUANDLE, gen.RACK)}
        self.stdin = {th: "".join(f"{l}\t{r}\n" for l, r, _ in ps) for th, ps in self.pairs.items()}

    def run_pass(self, tally: Tally) -> dict:
        out = {}
        for theory, pairs in self.pairs.items():
            proc, wall = timed_run(quandles_cmd("--gens", "3", "--theory", theory, "eq", "--stdin"), self.stdin[theory])
            if proc.returncode not in (0, 1):
                tally.fail("exception", f"{theory} batch exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            correct = eq_check(pairs, proc.stdout.splitlines(), tally, theory)
            out[f"{theory}_wall_s"] = wall
            out[f"eq_{theory}_pairs_per_s"] = correct / wall
        out["pass_s"] = out["quandle_wall_s"] + out["rack_wall_s"]
        return out

    def report(self, passes: list[dict]) -> list[tuple[str, float, str]]:
        return [
            ("eq_quandle_pairs_per_s", median_of(passes, "eq_quandle_pairs_per_s"), "pairs/s"),
            ("eq_rack_pairs_per_s", median_of(passes, "eq_rack_pairs_per_s"), "pairs/s"),
        ]

    def traced(self, tracer, tally: Tally) -> tuple[float, float, float]:
        from quandles import cli

        def one_pass(main) -> float:
            elapsed = 0.0
            for theory, pairs in self.pairs.items():
                argv = ["--gens", "3", "--theory", theory, "eq", "--stdin"]
                with tracing.redirected_stdio(self.stdin[theory]) as out:
                    start = time.perf_counter()
                    main(argv)
                    elapsed += time.perf_counter() - start
                eq_check(pairs, out.getvalue().splitlines(), tally, theory)
            return elapsed

        untraced = one_pass(cli.main)
        tracer.install()
        try:
            traced = one_pass(cli.main)
        finally:
            tracer.uninstall()
        return untraced, traced, 0.0


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

# (label, CLI arguments, run_suite arguments, expected coverage per check).
# Coverage is the first count in a check's detail; None means the check
# reports no count, and MEMBERS the member count found by the first check.
MEMBERS = "members"
_W3 = gen.reduced_word_count(2, 3)
_P = 5 * gen.reduced_word_count(2, 2)
SUITES = (
    ("axioms", ["verify", "axioms"], ("axioms", {}), [1000] * 12),
    ("oracle", ["verify", "oracle"], ("oracle", {}), [gen.term_count(2, 5)] * 2),
    ("theorem2@9", ["verify", "theorem2", "--max-size", "9"], ("theorem2", {"max_size": 9}),
     [gen.term_count(3, 9), MEMBERS]),
    ("theorem5@9", ["verify", "theorem5", "--max-size", "9"], ("theorem5", {"max_size": 9}),
     [gen.term_count(2, 9), MEMBERS]),
    ("iso-f_n", ["verify", "iso-f_n"], ("iso-f_n", {}), [_W3**2, _W3, _W3, _W3**2]),
    ("iso-zxf_n", ["verify", "iso-zxf_n"], ("iso-zxf_n", {}), [_P**2, _P, _P, _P**2]),
    ("lemmas", ["verify", "lemmas"], ("lemmas", {}),
     [500, gen.term_count(3, 6), 500, 500, 500] + [gen.reduced_word_count(2, 5)] * 3),
    ("global", ["verify", "global"], ("global", {}), [gen.term_count(1, 7)]),
    ("global/rack", ["--theory", "rack", "verify", "global"], ("global", {"theory": "rack"}),
     [gen.term_count(1, 7), 7**2]),
    ("naturality", ["verify", "naturality"], ("naturality", {}), [100, 100]),
    ("inner", ["verify", "inner"], ("inner", {}), [_W3, 5 * _W3, None, None]),
)
THEOREMS = ("theorem2@9", "theorem5@9")
_COUNT = re.compile(r"\d+")


def suite_check(label: str, report: dict, expected: list, tally: Tally) -> None:
    """Score a suite's checks: a failing check is a wrong verdict; a passing
    check whose coverage is zero or not the expected count is a coverage failure."""
    checks = report.get("checks", [])
    tally.attempted += len(expected)
    if len(checks) != len(expected):
        tally.fail("coverage", f"{label}: {len(checks)} checks, expected {len(expected)}")
    counts = [[int(n) for n in _COUNT.findall(c["detail"])] for c in checks]
    for check, found, want in zip(checks, counts, expected):
        if not check["ok"]:
            tally.fail("wrong", f"{label}: {check['label']}: {check['detail']}")
            continue
        if want == MEMBERS:
            want = counts[0][1] if len(counts[0]) > 1 and counts[0][1] > 0 else "a positive member count"
        got = found[0] if found else None
        if want is not None and got != want:
            tally.fail("coverage", f"{label}: {check['label']}: covered {got}, expected {want}")


class VerifySuites:
    name = "verify-suites"

    def __init__(self, seed: int):
        self.seed = seed

    def run_pass(self, tally: Tally) -> dict:
        out = {"walls": {}, "elapsed": {}}
        for label, argv, _, expected in SUITES:
            proc, wall = timed_run(quandles_cmd("--json", "--seed", str(self.seed), *argv))
            out["walls"][label] = wall
            try:
                report = json.loads(proc.stdout)
            except json.JSONDecodeError:
                tally.attempted += len(expected)
                tally.fail("missing", f"{label}: exit {proc.returncode}, no report", len(expected))
                continue
            out["elapsed"][label] = report["elapsed"]
            suite_check(label, report, expected, tally)
        walls = out["walls"]
        out["verify_oracle_s"] = walls["oracle"]
        out["verify_theorems_s"] = sum(walls[s] for s in THEOREMS)
        out["verify_other_s"] = sum(w for s, w in walls.items() if s != "oracle" and s not in THEOREMS)
        out["pass_s"] = sum(walls.values())
        out["teardown_s"] = sum(walls[s] - e for s, e in out["elapsed"].items())
        return out

    def report(self, passes: list[dict]) -> list[tuple[str, float, str]]:
        rows = [(k, median_of(passes, k), "s") for k in ("verify_oracle_s", "verify_theorems_s", "verify_other_s")]
        for label, *_ in SUITES:
            wall = statistics.median(p["walls"][label] for p in passes)
            elapsed = [p["elapsed"][label] for p in passes if label in p["elapsed"]]
            rows.append((f"suite[{label}].wall_s", wall, "s"))
            if elapsed:
                rows.append((f"suite[{label}].elapsed_s", statistics.median(elapsed), "s"))
        return rows

    def traced(self, tracer, tally: Tally) -> tuple[float, float, float]:
        """The untraced reference is the reports' own ``elapsed`` from a
        subprocess pass, since an in-process pass would warm the program's
        module-level caches for the traced one."""
        subprocess_pass = self.run_pass(tally)
        untraced = sum(subprocess_pass["elapsed"].values())
        from quandles import suites

        tracer.install()
        traced = 0.0
        try:
            for label, _, (name, kwargs), expected in SUITES:
                start = time.perf_counter()
                report = suites.run_suite(name, seed=self.seed, **kwargs)
                traced += time.perf_counter() - start
                suite_check(label, report.to_json(), expected, tally)
        finally:
            tracer.uninstall()
        return untraced, traced, subprocess_pass["teardown_s"]


# ---------------------------------------------------------------------------
# deep-terms
# ---------------------------------------------------------------------------


class DeepWorker:
    """The deep-terms child process, driven one request at a time."""

    def __init__(self) -> None:
        self.proc = None

    def ask(self, request: dict) -> dict | None:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "deep_worker.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=program_env(), cwd=ROOT,
            )
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            self.restart()
            return None
        return json.loads(line)

    def restart(self) -> None:
        if self.proc is not None:
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc.wait()
            self.proc = None


class InProcess:
    """Deep-terms verdicts in this process, for the traced run."""

    def __init__(self, tracer):
        signal.signal(signal.SIGALRM, deep_worker._alarm)
        self.tracer = tracer

    def ask(self, request: dict) -> dict:
        import quandles

        self.tracer.reset()
        return deep_worker.verdict(quandles.parse, quandles.term_equal, request)

    def restart(self) -> None:
        pass


def deep_pass(families: list[dict], worker, tally: Tally) -> dict:
    """Every input once, sweeps stopping at their first missed budget.

    Each input is charged its verdict time, or the full budget when it failed,
    missed the budget or was left unrun.  The worker starts afresh after a
    failure, so the peak RSS reported is that of completed verdicts, not of a
    computation the budget cut short at a point that depends on timing.
    """
    charged: list[float] = []
    peak_rss = 0.0
    for fam in families:
        stopped = False
        for item in fam["items"]:
            tally.attempted += 1
            what = f"{fam['family']} {item['label']}"
            if stopped:
                tally.fail("budget", f"{what}: unrun after an earlier miss")
                charged.append(DEEP_BUDGET_S)
                continue
            request = {k: item[k] for k in ("left", "right", "theory")}
            request["budget_s"] = DEEP_BUDGET_S
            result = worker.ask(request)
            if result is not None and result["kind"] is None and result["verdict"] == item["equal"]:
                charged.append(result["seconds"])
                peak_rss = max(peak_rss, result.get("rss_mb", 0.0))
                continue
            charged.append(DEEP_BUDGET_S)
            worker.restart()
            if result is None:
                tally.fail("exception", f"{what}: worker died")
            elif result["kind"] == "budget":
                tally.fail("budget", f"{what}: over {DEEP_BUDGET_S}s")
                stopped = fam["sweep"]
            elif result["kind"] == "exception":
                tally.fail("exception", f"{what}: {result['error']}")
            else:
                tally.fail("wrong", f"{what}: got equal={result['verdict']}")
    return {
        "pass_s": sum(charged),
        "deep_verdict_p50_ms": 1000 * statistics.median(charged),
        "deep_verdict_p90_ms": 1000 * p90(charged),
        "samples": len(charged),
        "peak_rss_mb": peak_rss,
    }


class DeepTerms:
    name = "deep-terms"

    def __init__(self, seed: int):
        self.families = gen.deep_inputs(seed, DEEP_BULK)

    def run_pass(self, tally: Tally) -> dict:
        worker = DeepWorker()
        try:
            return deep_pass(self.families, worker, tally)
        finally:
            worker.restart()

    def report(self, passes: list[dict]) -> list[tuple[str, float, str]]:
        return [
            ("deep_verdict_p50_ms", median_of(passes, "deep_verdict_p50_ms"), "ms"),
            ("deep_verdict_p90_ms", median_of(passes, "deep_verdict_p90_ms"), "ms"),
            ("deep_samples", passes[0]["samples"], "count"),
        ]

    def traced(self, tracer, tally: Tally) -> tuple[float, float, float]:
        worker = InProcess(tracer)
        start = time.perf_counter()
        deep_pass(self.families, worker, tally)
        untraced = time.perf_counter() - start
        tracer.install()
        try:
            start = time.perf_counter()
            deep_pass(self.families, worker, tally)
            traced = time.perf_counter() - start
        finally:
            tracer.reset()
            tracer.uninstall()
        return untraced, traced, 0.0


WORKLOADS = {w.name: w for w in (EqStream, VerifySuites, DeepTerms)}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def emit(lines: list[tuple[str, float, str]], tally: Tally, metrics: dict) -> None:
    for name, value, unit in lines:
        print(f"  {name:<34} {value:>14.6g} {unit}")
    share = tally.failed_total / tally.attempted if tally.attempted else 0.0
    print(f"  {'fail_share':<34} {share:>14.6g} ratio ({tally.failed_total}/{tally.attempted})")
    print("  failures by kind: " + ", ".join(f"{k}={tally.failed[k]}" for k in FAILURE_KINDS))
    for example in tally.examples:
        print(f"    {example}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed_total,
        "metrics": metrics,
    }))


def run_untraced(workload, seconds: float) -> int:
    setup = setup_seconds()
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(tally))
    if "peak_rss_mb" in passes[0]:
        rss = median_of(passes, "peak_rss_mb")
    else:
        rss = children_peak_rss_mb()
    pass_s = median_of(passes, "pass_s")
    print(f"{workload.name}: {len(passes)} passes in {time.perf_counter() - start:.1f}s")
    lines = [("setup_s", setup, "s"), ("pass_s", pass_s, "s")] + workload.report(passes)
    lines.append(("peak_rss_mb", rss, "MB"))
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    emit(lines, tally, metrics)
    return 0 if tally.correct else 1


def run_traced(workload, seed: int) -> int:
    sys.path.insert(0, SRC)
    tally = Tally()
    tracer = tracing.Tracer()
    untraced, traced, teardown = workload.traced(tracer, tally)
    m = tracer.layer_metrics()
    m["process.teardown_s"] = teardown
    m["import.quandles_s"] = import_seconds()
    m["tracing.overhead_ratio"] = traced / untraced
    units = {name: unit for name, unit, _ in PER_LAYER}
    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"trace-{workload.name}-{seed}.json"), "w") as f:
        json.dump(tracer.dump(), f, indent=1)
    print(f"{workload.name}: traced {traced:.2f}s, untraced {untraced:.2f}s")
    lines = [(name, m[name], units[name]) for name in units]
    emit(lines, tally, {name: {"value": m[name], "unit": units[name]} for name in units})
    return 0 if tally.correct else 1


# (name, unit, better) of every metric the traced run reports.
PER_LAYER = [
    row for layer in tracing.LAYERS
    for row in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
] + [
    ("terms.parse.self_s", "s", "lower"),
    ("terms.parse.bytes_per_s", "B/s", "higher"),
    ("terms.subst.calls", "count", "lower"),
    ("terms.subst.self_s", "s", "lower"),
    ("terms.node_hash.calls", "count", "lower"),
    ("words.letters_in", "count", "lower"),
    ("words.letters_out", "count", "lower"),
    ("words.kept_ratio", "ratio", "higher"),
    ("translate.nf_letters_max", "count", "lower"),
    ("translate.nf_letters_total", "count", "lower"),
    ("isotropy.commutes_generically.calls", "count", "lower"),
    ("rewrite.neighbors_repeat_ratio", "ratio", "lower"),
    ("rewrite.closure_terms", "count", "higher"),
    ("decide.equal_share", "ratio", "higher"),
    ("process.teardown_s", "s", "lower"),
    ("import.quandles_s", "s", "lower"),
    ("tracing.overhead_ratio", "ratio", "lower"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quandles", "__init__.py")):
        print(f"error: no program to measure: {os.path.join(SRC, 'quandles')} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        return run_traced(workload, args.seed)
    return run_untraced(workload, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
