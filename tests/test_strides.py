"""The stride-split fold that ``verify`` spreads its sweeps with."""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

import quandles
from quandles import strides, suites
from quandles.terms import enumerate_terms, render


def test_strided_fold_folds_each_stride_in_index_order():
    items = [chr(ord("a") + i) for i in range(23)]
    pairs = list(enumerate(items))
    for workers in (1, 2, 3, 5):
        assert strides.strided_fold(list, items, workers) == [pairs[w::workers] for w in range(workers)]
    assert strides.strided_fold(list, [], 4) == [[]]


def no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_workers_are_forked_and_capped_at_the_item_count(monkeypatch):
    forks = []
    real = os.fork

    def recording():
        forks.append(os.getpid())
        return real()

    def pid_and_stride(stride):
        return os.getpid(), list(stride)

    monkeypatch.setattr(os, "fork", recording)
    (pid_a, a), (pid_b, b) = strides.strided_fold(pid_and_stride, ["a", "b"], 8)
    assert os.getpid() not in (pid_a, pid_b)
    assert (a, b) == ([(0, "a")], [(1, "b")])
    assert forks == [os.getpid()] * 2
    assert strides.strided_fold(pid_and_stride, ["a"], 8) == [(os.getpid(), [(0, "a")])]
    assert forks == [os.getpid()] * 2
    assert no_child_left()


def test_a_process_started_with_its_std_streams_closed_forks_all_the_same(monkeypatch):
    # Python sets a std stream to None when its descriptor is closed at start
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.setattr(sys, "stderr", None)
    assert strides.strided_fold(list, ["a", "b", "c"], 2) == [[(0, "a"), (2, "c")], [(1, "b")]]


def test_without_fork_the_map_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    stride = [(0, "a"), (1, "b"), (2, "c")]
    assert strides.strided_fold(lambda s: (os.getpid(), list(s)), ["a", "b", "c"], 3) == [(os.getpid(), stride)]


class Refused(Exception):
    pass


def test_a_worker_exception_is_raised_here_after_every_worker_is_reaped():
    def fold(stride):
        first, _ = next(stride)
        if first in (1, 2):
            raise Refused(f"stride {first}")
        time.sleep(0.3)  # still running when the others have raised
        return first

    with pytest.raises(Refused, match="^stride 1$"):
        strides.strided_fold(fold, range(9), 3)
    assert no_child_left()


@contextlib.contextmanager
def raising_after(seconds):
    """Raise ``TimeoutError`` here once ``seconds`` have passed."""

    def alarm(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("death, ending", [
    (lambda: os._exit(1), "exit status 1"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {int(signal.SIGKILL)}"),
], ids=["exit", "sigkill"])
def test_a_worker_that_dies_without_a_result_is_named(death, ending):
    def fold(stride):
        first, _ = next(stride)
        if first == 1:
            death()
        return first

    with raising_after(30):  # a hang fails the test instead of the run
        with pytest.raises(strides.WorkerLost, match=rf"^stride worker 1 of 2 \(pid \d+\) ended with {ending} "):
            strides.strided_fold(fold, range(4), 2)
    assert no_child_left()


def test_an_exception_here_kills_and_reaps_the_workers(monkeypatch):
    pids = []
    real = os.fork

    def recording():
        pid = real()
        pids.append(pid)
        return pid

    def slow(stride):
        time.sleep(60)

    monkeypatch.setattr(os, "fork", recording)
    start = time.monotonic()
    with pytest.raises(TimeoutError), raising_after(0.5):
        strides.strided_fold(slow, range(4), 2)
    assert time.monotonic() - start < 10
    assert len(pids) == 2 and no_child_left()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_importing_the_package_loads_no_process_machinery():
    # so that the cold start of every command stays as it was, and a split
    # sweep forks its workers without a pool
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quandles.__file__)))
    loaded = "sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent')))"
    code = f"import sys, quandles; print({loaded})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
    code = (
        "import os, sys\n"
        "from quandles import cli\n"
        "cli.usable_cpus = lambda: 2\n"
        "forks = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "code = cli.main(['verify', 'theorem5', '--max-size', '5'])\n"
        f"print(code, len(forks), {loaded})\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "0 2 []"), proc.stderr


def test_a_universe_that_enumerates_afresh_maps_as_a_serial_list():
    universe = suites._Universe(("x", "y1"), 7)
    serial = [render(t) for t in enumerate_terms(("x", "y1"), 7)]
    assert len(universe) == len(serial) == 714
    for workers in (1, 2, 3):
        folded = strides.strided_fold(lambda stride: [(i, render(t)) for i, t in stride], universe, workers)
        assert folded == [list(enumerate(serial))[w::workers] for w in range(workers)]


# a verify run whose two workers each print their pid at their first item
# and then fold slowly: a stride of theorem2 at size 9 has 28,954 terms, so
# a worker that went on to the end would live for seconds
ORPHANED_SWEEP = """
import os, sys, time
from quandles import cli, suites
cli.usable_cpus = lambda: 2

def slow(sweep, stride):
    for n, _ in enumerate(stride):
        if not n:
            os.write(1, b"%d\\n" % os.getpid())
        time.sleep(0.00005)

suites._theorem_tally = slow
sys.exit(cli.main(["verify", "theorem2", "--max-size", "9"]))
"""


def alive(pid):
    """Whether ``pid`` runs; a zombie, which nothing reaps here, does not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_the_workers_of_a_killed_sweep_leave_within_a_second():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with subprocess.Popen([sys.executable, "-c", ORPHANED_SWEEP], stdout=subprocess.PIPE, env=env) as proc:
        try:
            workers = [int(proc.stdout.readline()) for _ in range(2)]
        finally:
            proc.kill()  # SIGKILL: the caller gets no chance to kill its workers
    deadline = time.monotonic() + 1
    while any(map(alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    left = [pid for pid in workers if alive(pid)]
    for pid in left:  # so that a failure leaves nothing behind
        os.kill(pid, signal.SIGKILL)
    assert not left
