"""One fork runner, for the blocks of `gchs check` and `gchs run --jobs`.

map_items(fn, items, asked) returns [fn(item) for item in items], run on
P = processes(asked, len(items)) processes and handed out round-robin:
process k runs items k, k + P, k + 2P and so on.  Process 0 is the
caller; each other is a child made by os.fork, which on glibc first
calls malloc_trim(0) and sends its results back over a pipe.  A child
that fails in any way (an error, a signal, a short payload) has its
items run again here, in item order, so the first error in item order
is raised with the text one process gives.  No child outlives the call.
On P > 1 the log records of every item, here too, are held and emitted
in item order, so the log reads as on one process.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import pickle
import threading


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity on this platform
        return os.cpu_count() or 1


def processes(asked: int, items: int) -> int:
    """How many processes map_items runs items on: asked, at most one per
    item, and one where os.fork is missing or another thread is alive."""
    if items < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(asked, items)


def map_items(fn, items: list, asked: int) -> list:
    """[fn(item) for item in items], on processes(asked, len(items))
    processes; see the module docstring."""
    procs = processes(asked, len(items))
    if procs == 1:
        return [fn(item) for item in items]
    done = {}       # item index -> (result, held records)
    children = {}   # pid -> read end of its pipe, for each child not yet reaped
    trim = _heap_trim()
    try:
        for k in range(1, procs):
            _fork(fn, items, k, procs, children, trim)
        for i in range(0, len(items), procs):
            try:
                done[i] = _Held().run(fn, items[i])
            except Exception:   # raised again below, after the items before it
                break
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:   # else its items run again below
                with contextlib.suppress(pickle.UnpicklingError, EOFError):   # cut short
                    done.update(pickle.loads(payload))
            del children[pid]
    finally:
        if children:   # imported here, so that no other path pays for it
            import signal
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    for i, item in enumerate(items):
        if i not in done:   # logs as it runs: the records of every item before it are out
            done[i] = fn(item), ()
        for record in done[i][1]:
            logging.getLogger(record.name).handle(record)
    return [done[i][0] for i in range(len(items))]


class _Held(logging.Handler):
    """The root logger's one handler while an item runs: keeps the records
    it logs, each with its message formatted, so that they can be pickled
    and emitted later."""

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)

    def run(self, fn, item):
        """fn(item) and the records it logged, held back rather than written."""
        root, self.records = logging.getLogger(), []
        handlers, root.handlers = root.handlers, [self]
        try:
            return fn(item), self.records
        finally:
            root.handlers = handlers


def _glibc_function(name: str, *argtypes: str):
    """glibc's function name through ctypes, declared to take the ctypes
    types named argtypes and to return a C int; None on any other C
    library.  ctypes is imported here, so that no other command pays for
    it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
    except (AttributeError, ValueError, OSError):   # no confstr, or not glibc
        return None
    import ctypes

    fn = getattr(ctypes.CDLL(None), name)
    fn.argtypes = tuple(getattr(ctypes, t) for t in argtypes)
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def _heap_trim():
    """glibc's malloc_trim, or None: looked up once per process, by the
    first call that forks."""
    return _glibc_function("malloc_trim", "c_size_t")


def _fork(fn, items: list, k: int, procs: int, children: dict, trim):
    """Fork a child that runs items k, k + procs, ... and pickles their
    index -> (result, held records) to a pipe, whose read end goes into
    children under its pid; nothing where os.fork fails.  The child first
    calls trim(0), glibc's malloc_trim where given, so that its items
    fault in fresh zero pages, not copies of the free heap it shares with
    the parent.  It leaves by os._exit whatever happens: it runs no atexit
    handler and flushes no stdio buffer copied from the parent."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return
    if pid == 0:
        code = 1
        try:
            os.close(r)
            if trim is not None:
                trim(0)
            done = {i: _Held().run(fn, items[i]) for i in range(k, len(items), procs)}
            with os.fdopen(w, "wb") as fh:
                pickle.dump(done, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    children[pid] = os.fdopen(r, "rb")
