import ast
import os
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

import glsn.fork
from glsn.fork import run_parts, worker_count
from glsn.model import DataError

from conftest import assert_no_child_and_mask
from test_float_sums import _Scoped


class TestRunParts:
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 5])
    def test_results_in_part_order_part_0_here(self, n_parts):
        mask = os.sched_getaffinity(0)
        me = os.getpid()
        results = run_parts(lambda p: (p * p, os.getpid()), list(range(n_parts)))
        assert [r for r, _ in results] == [p * p for p in range(n_parts)]
        assert results[0][1] == me
        assert all(pid != me for _, pid in results[1:])
        assert_no_child_and_mask(mask)

    def test_one_part_runs_here_without_a_fork(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork"))
        assert run_parts(lambda p: p + 1, [41]) == [42]
        assert calls == []

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_data_error_reaches_the_caller(self, failing):
        # from the parent's part (0) or from a child's; the children are
        # killed or finish, and all are reaped
        mask = os.sched_getaffinity(0)

        def fn(p):
            if p == failing:
                raise DataError(f"planted in part {p}")
            return p

        with pytest.raises(DataError, match=f"^planted in part {failing}$"):
            run_parts(fn, [0, 1, 2])
        assert_no_child_and_mask(mask)

    def test_other_child_error_is_runtime_error_with_traceback(self, capfd):
        mask = os.sched_getaffinity(0)

        def fn(p):
            if p == 1:
                raise ZeroDivisionError("planted")
            return p

        with pytest.raises(RuntimeError, match="worker 1 of 2 sent no result"):
            run_parts(fn, [0, 1])
        assert "ZeroDivisionError: planted" in capfd.readouterr().err
        assert_no_child_and_mask(mask)

    def test_failing_part_0_kills_and_reaps(self, monkeypatch):
        # part 0 runs here after both children are forked; they are still
        # asleep when it fails, so each must be killed, then reaped
        mask = os.sched_getaffinity(0)
        statuses = []
        waitpid = os.waitpid

        def recorded(pid, options):
            pid, status = waitpid(pid, options)
            statuses.append(status)
            return pid, status

        def fn(p):
            if p == 0:
                raise KeyError(p)
            time.sleep(60)

        monkeypatch.setattr(os, "waitpid", recorded)
        with pytest.raises(KeyError):
            run_parts(fn, [0, 1, 2])
        assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL] * 2
        assert_no_child_and_mask(mask)

    def test_sets_no_cpu_mask(self, monkeypatch):
        # a call in a child fails it, so run_parts raises RuntimeError there
        mask = os.sched_getaffinity(0)

        def forbidden(*args):
            raise AssertionError(f"sched_setaffinity{args}")

        monkeypatch.setattr(os, "sched_setaffinity", forbidden)
        for n_parts in (len(mask), len(mask) + 1):
            assert run_parts(lambda p: p, list(range(n_parts))) == list(range(n_parts))
        assert_no_child_and_mask(mask)


class TestWorkerCount:
    def test_no_fork_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert glsn.fork.worker_count() == 1

    def test_default_is_the_cpus_of_the_mask(self):
        assert worker_count() == len(os.sched_getaffinity(0))

    def test_follows_a_narrower_mask(self):
        mask = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {min(mask)})
            assert worker_count() == 1
        finally:
            os.sched_setaffinity(0, mask)


class TestWorkers:
    @pytest.mark.parametrize("cpus, batches, expected", [
        (1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 7, 1),
        (2, 0, 1), (2, 1, 1), (2, 2, 2), (2, 7, 2),
        (3, 0, 1), (3, 1, 1), (3, 2, 2), (3, 7, 3),
    ])
    def test_one_per_cpu_at_most_one_per_batch(self, monkeypatch, cpus, batches, expected):
        monkeypatch.setattr(glsn.fork, "worker_count", lambda: cpus)
        assert glsn.fork.workers(batches) == expected

    def test_only_workers_reads_the_cpu_count(self):
        # a pass that sized its own fork from the CPU count would bypass the
        # batch rule; every use of the name, called or not, is counted
        found = Counter()
        for path in sorted(Path(glsn.fork.__file__).parent.glob("*.py")):
            uses = _WorkerCountUses(path)
            uses.visit(ast.parse(path.read_text(), str(path)))
            found += uses.found
        assert dict(found) == {("fork.py", "workers"): 1}


class _WorkerCountUses(_Scoped):
    """Counts the uses of the name worker_count by file and innermost function."""

    def __init__(self, path: Path):
        super().__init__()
        self.path = path

    def visit_Name(self, node):
        if node.id == "worker_count":
            self.found[(self.path.name, self.where[-1])] += 1

    def visit_Attribute(self, node):
        if node.attr == "worker_count":
            self.found[(self.path.name, self.where[-1])] += 1
        self.generic_visit(node)
