"""The fork runner: results and log records in item order, whatever the
processes, and the contracts of its children."""

import logging
import os
import signal
import threading
import time
from collections import Counter

import pytest

from gchs import runner

log = logging.getLogger("gchs.test_runner")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(i):
    log.warning("item %d", i)
    return i * i


def _logged(caplog):
    return [(r.name, r.getMessage()) for r in caplog.records]


def _reversed_sleeps(i):
    # the last item finishes first on any number of processes
    time.sleep(0.02 * (6 - i))
    log.warning("item %d", i)
    return i * i, os.getpid()


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_items_that_finish_out_of_order_come_back_in_item_order(caplog, processes):
    caplog.set_level(logging.INFO)
    results = runner.map_items(_reversed_sleeps, list(range(6)), processes)
    assert [square for square, _ in results] == [i * i for i in range(6)]
    # process k ran items k, k + P, ...; process 0 is this one
    pids = [pid for _, pid in results]
    assert pids == [pids[i % processes] for i in range(6)]
    assert pids[0] == os.getpid() and len(set(pids)) == processes
    assert _logged(caplog) == [("gchs.test_runner", f"item {i}") for i in range(6)]
    _no_child_left()


def test_processes_are_the_callers_at_most_one_per_item(monkeypatch):
    assert [runner.processes(3, items) for items in (0, 1, 2, 3, 10)] == [1, 1, 2, 3, 3]
    assert runner.processes(1, 10) == 1
    monkeypatch.delattr(os, "fork")
    assert runner.processes(3, 10) == 1
    assert runner.map_items(_square, list(range(5)), 3) == [i * i for i in range(5)]


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    def fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert runner.processes(4, 8) == 1
        assert runner.map_items(_square, list(range(8)), 4) == [i * i for i in range(8)]
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert runner.processes(4, 8) == 4   # the thread was the only reason


def test_a_fork_that_fails_runs_its_items_here(monkeypatch, caplog):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    caplog.set_level(logging.INFO)
    monkeypatch.setattr(os, "fork", fork)
    assert runner.map_items(_square, list(range(7)), 3) == [i * i for i in range(7)]
    assert _logged(caplog) == [("gchs.test_runner", f"item {i}") for i in range(7)]


def _calls_by_process(path) -> dict[int, list[str]]:
    calls = {}
    for line in path.read_text().splitlines():
        pid, what = line.split(" ", 1)
        calls.setdefault(int(pid), []).append(what)
    return calls


def test_each_child_trims_once_before_its_first_item(monkeypatch, tmp_path):
    calls, lookups = tmp_path / "calls.log", []

    def write(what):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {what}\n")

    def lookup():
        lookups.append(os.getpid())
        return lambda pad: write(f"trim {pad}")

    def item(i):
        write(f"item {i}")
        return i

    monkeypatch.setattr(runner, "_heap_trim", lookup)
    assert runner.map_items(item, list(range(8)), 1) == list(range(8))
    assert lookups == []   # no fork, no lookup
    calls.unlink()
    assert runner.map_items(item, list(range(8)), 3) == list(range(8))
    _no_child_left()
    assert lookups == [os.getpid()]   # here, before the forks
    by_process = _calls_by_process(calls)
    assert by_process.pop(os.getpid()) == ["item 0", "item 3", "item 6"]
    assert sorted(by_process.values()) == [["trim 0", "item 1", "item 4", "item 7"],
                                           ["trim 0", "item 2", "item 5"]]


def test_a_dead_child_has_its_items_run_here(tmp_path, caplog):
    # on 3 processes a child runs items 1 and 4 and dies on 4, after 1;
    # its two items run again here, and the other child's once
    caplog.set_level(logging.INFO)
    ran, parent = tmp_path / "ran.log", os.getpid()

    def item(i):
        if os.getpid() != parent and i == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        with open(ran, "a") as fh:
            fh.write(f"{i}\n")
        return _square(i)

    assert runner.map_items(item, list(range(7)), 3) == [i * i for i in range(7)]
    _no_child_left()
    runs = Counter(int(i) for i in ran.read_text().split())
    assert runs == {i: 2 if i == 1 else 1 for i in range(7)}
    assert _logged(caplog) == [("gchs.test_runner", f"item {i}") for i in range(7)]


@pytest.mark.parametrize("first", [0, 1, 2, 4])
def test_the_first_error_in_item_order_is_raised_as_on_one_process(caplog, first):
    # every item from first on fails, in whichever process runs it: on 2
    # processes at first = 1, a child fails on item 1 and this process on 2
    def item(i):
        log.warning("item %d", i)
        if i >= first:
            raise ValueError(f"item {i} failed")
        return i

    caplog.set_level(logging.INFO)
    outcomes = []
    for processes in (1, 2, 3):
        caplog.clear()
        with pytest.raises(ValueError) as raised:
            runner.map_items(item, list(range(7)), processes)
        _no_child_left()
        outcomes.append((str(raised.value), _logged(caplog)))
    assert outcomes == outcomes[:1] * 3
    assert outcomes[0] == (f"item {first} failed",
                           [("gchs.test_runner", f"item {i}") for i in range(first + 1)])
