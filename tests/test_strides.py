"""The stride-split map that ``verify`` spreads its sweeps with."""

import os
import subprocess
import sys

import quandles
from quandles import strides, suites
from quandles.terms import enumerate_terms, render


def test_strided_map_answers_as_a_serial_map():
    items = list(range(23))
    for workers in (1, 2, 3, 5):
        assert strides.strided_map(lambda i: i * i, items, workers) == [i * i for i in items]
    assert strides.strided_map(lambda i: i, [], 4) == []


def test_workers_are_forked_and_capped_at_the_item_count(monkeypatch):
    import concurrent.futures

    pools = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(workers, *args, **kwargs):
        pools.append(workers)
        return real(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    assert os.getpid() not in strides.strided_map(lambda _: os.getpid(), ["a", "b"], 8)
    assert pools == [2]
    assert strides.strided_map(lambda _: os.getpid(), ["a"], 8) == [os.getpid()]
    assert pools == [2]


def test_without_fork_the_map_runs_here(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert strides.strided_map(lambda _: os.getpid(), ["a", "b", "c"], 3) == [os.getpid()] * 3


def test_importing_the_package_loads_no_process_machinery():
    # so that the cold start of every command stays as it was
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quandles.__file__)))
    code = "import sys, quandles; print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_a_universe_that_enumerates_afresh_maps_as_a_serial_list():
    universe = suites._Universe(("x", "y1"), 7)
    serial = [render(t) for t in enumerate_terms(("x", "y1"), 7)]
    assert len(universe) == len(serial) == 714
    for workers in (1, 2, 3):
        assert strides.strided_map(render, universe, workers) == serial


def test_strides_longer_than_a_chunk_merge_in_index_order(monkeypatch):
    monkeypatch.setattr(strides, "_CHUNK", 3)
    items = list(range(41))
    for workers in (2, 3, 5):
        assert strides.strided_map(lambda i: -i, items, workers) == [-i for i in items]
