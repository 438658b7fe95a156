"""The stride-split fold that ``verify`` spreads its sweeps with."""

import os
import subprocess
import sys

import quandles
from quandles import strides, suites
from quandles.terms import enumerate_terms, render


def test_strided_fold_folds_each_stride_in_index_order():
    items = [chr(ord("a") + i) for i in range(23)]
    pairs = list(enumerate(items))
    for workers in (1, 2, 3, 5):
        assert strides.strided_fold(list, items, workers) == [pairs[w::workers] for w in range(workers)]
    assert strides.strided_fold(list, [], 4) == [[]]


def test_workers_are_forked_and_capped_at_the_item_count(monkeypatch):
    import concurrent.futures

    pools = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(workers, *args, **kwargs):
        pools.append(workers)
        return real(workers, *args, **kwargs)

    def pid_and_stride(stride):
        return os.getpid(), list(stride)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    (pid_a, a), (pid_b, b) = strides.strided_fold(pid_and_stride, ["a", "b"], 8)
    assert os.getpid() not in (pid_a, pid_b)
    assert (a, b) == ([(0, "a")], [(1, "b")])
    assert pools == [2]
    assert strides.strided_fold(pid_and_stride, ["a"], 8) == [(os.getpid(), [(0, "a")])]
    assert pools == [2]


def test_without_fork_the_map_runs_here(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    stride = [(0, "a"), (1, "b"), (2, "c")]
    assert strides.strided_fold(lambda s: (os.getpid(), list(s)), ["a", "b", "c"], 3) == [(os.getpid(), stride)]


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
        folded = strides.strided_fold(lambda stride: [(i, render(t)) for i, t in stride], universe, workers)
        assert folded == [list(enumerate(serial))[w::workers] for w in range(workers)]
