"""End-to-end acceptance checks at their full stated bounds.

Each report must pass, and must equal its pinned copy in
``tests/data/acceptance_reports.json`` (``to_json()`` without ``elapsed``),
so a suite that quietly checks fewer cases fails here.  The test never
rewrites that file.  After a deliberate change to a report, regenerate it
from the repository root with

    PYTHONPATH=src python tests/test_acceptance.py > tests/data/acceptance_reports.json

Run with ``pytest -s tests/test_acceptance.py`` to see one line per check.
"""

import json
import os
import sys

from quandles import suites
from quandles.decide import QUANDLE, RACK

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "acceptance_reports.json")

# key -> run_suite's arguments
RUNS = {
    "axioms": dict(name="axioms", seed=0, samples=1000, max_size=6, n=3),
    "oracle": dict(name="oracle", max_size=5, max_steps=3, n=2),
    "theorem2": dict(name="theorem2", max_size=7, n=2),
    "theorem5": dict(name="theorem5", max_size=7, n=1),
    "iso-f_n": dict(name="iso-f_n", max_len=3, n=2),
    "iso-zxf_n": dict(name="iso-zxf_n", max_z=2, max_len=2, n=2),
    "global quandle": dict(name="global", theory=QUANDLE, max_size=7),
    "global rack": dict(name="global", theory=RACK, max_size=7),
    "lemmas": dict(name="lemmas", seed=0, samples=500, word_len=5),
    "naturality": dict(name="naturality", seed=0, samples=100),
    "inner": dict(name="inner", max_len=3, max_z=2, n=2),
}


def pinned(report):
    data = report.to_json()
    del data["elapsed"]
    return data


def _finish(key, name, time_limit=None):
    report = suites.run_suite(**RUNS[key])
    status = "PASS" if report.ok else "FAIL"
    print(f"{status}: {name} ({report.elapsed:.2f}s)")
    for check in report.checks:
        print(f"    [{'ok' if check.ok else 'FAIL'}] {check.label}: {check.detail}")
    assert report.ok, report.to_text()
    with open(GOLDEN, encoding="utf-8") as f:
        assert pinned(report) == json.load(f)[key]
    if time_limit is not None:
        assert report.elapsed < time_limit, f"{name} took {report.elapsed:.2f}s (limit {time_limit}s)"


def test_axiom_soundness():
    _finish("axioms", "axiom soundness (1000 random instances per axiom)", time_limit=5)


def test_rewrite_oracle_agreement():
    _finish("oracle", "bounded rewriting never contradicts the deciders", time_limit=30)


def test_quandle_membership_equivalence():
    _finish("theorem2", "quandle canonical forms = invertible generic classes (exhaustive)", time_limit=60)


def test_rack_membership_equivalence():
    _finish("theorem5", "rack canonical forms = invertible generic classes (exhaustive)", time_limit=60)


def test_free_group_isomorphism():
    _finish("iso-f_n", "quandle element group is the free group on the generators")


def test_z_times_free_group_isomorphism():
    _finish("iso-zxf_n", "rack element group is Z x free group (anti-embedding)")


def test_empty_alphabet_isotropy():
    _finish("global quandle", "no generators: only the identity quandle element")
    _finish("global rack", "no generators: rack elements are integers under addition")


def test_substitution_lemmas():
    _finish("lemmas", "substitution laws and reduced-word structure", time_limit=60)


def test_naturality_squares():
    _finish("naturality", "naturality squares commute for sampled homomorphisms")


def test_inner_witness_round_trip():
    _finish("inner", "inner endomorphism witnesses are recovered; swap rejected")


if __name__ == "__main__":
    reports = {key: pinned(suites.run_suite(**args)) for key, args in RUNS.items()}
    sys.stdout.write(json.dumps(reports, indent=2) + "\n")
