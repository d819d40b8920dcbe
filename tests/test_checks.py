"""The seeded invariant suite: it passes, and it is deterministic."""

import logging
import math
import os
import pickle
import re
import signal
import threading
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from gchs import (ConsistencyError, PhasePoint, RealnessError, StructuredSystem,
                  parse_field, run_invariant_suite)
from gchs import brackets, bridge, checks, fields, integrate, runner
from gchs.checks import (random_points, random_polynomial, random_smooth_field,
                         random_system)
from gchs.fields import eval_jet


def _pin_processes(monkeypatch, processes):
    """Run the suite's blocks on this many processes (at most one per
    block), whatever the CPUs."""
    monkeypatch.setattr(runner, "cpus", lambda: processes)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_passes_on_reference_system(structured):
    results = run_invariant_suite(structured, seed=7, count=100,
                                  initial=PhasePoint([0.5], [0.5]))
    failed = [r for r in results if not r.passed]
    assert not failed, [f"{r.name}: {r.max_dev:.3e} > {r.tol:.1e}"
                        for r in failed]


def test_suite_passes_on_random_systems():
    rng = np.random.default_rng(23)
    for n in (1, 2):
        sys = random_system(rng, n, max_degree=3)
        results = run_invariant_suite(sys, seed=int(rng.integers(1 << 30)),
                                      count=60, include_flow_checks=False)
        failed = [r for r in results if not r.passed]
        assert not failed, [f"n={n} {r.name}: {r.max_dev:.3e}" for r in failed]


def test_suite_is_deterministic(structured):
    a = run_invariant_suite(structured, seed=42, count=50,
                            include_flow_checks=False)
    b = run_invariant_suite(structured, seed=42, count=50,
                            include_flow_checks=False)
    assert [(r.name, r.max_dev, r.tol) for r in a] == \
           [(r.name, r.max_dev, r.tol) for r in b]


def test_suite_splits_each_order_1_jet_at_most_once(structured, wirtinger_splits,
                                                   monkeypatch):
    # every kernel reads the pair its jets keep instead of splitting again
    order_1 = []
    eval_jet = fields.eval_jet

    def counted(f, Q, P, order=0, time=None):
        if order == 1:
            order_1.append(f)
        return eval_jet(f, Q, P, order=order, time=time)

    for mod in (fields, checks, bridge):
        monkeypatch.setattr(mod, "eval_jet", counted)
    run_invariant_suite(structured, 42, 200, include_flow_checks=False)
    assert 0 < len(wirtinger_splits) <= len(order_1)


def test_suite_evaluates_the_flow_probe_once(structured, monkeypatch):
    # the probe is the probe run's one observable, so the run's monitor
    # pass alone evaluates the order-1 jets of the probe, H and s over
    # its samples, and the flow checks read them from the run
    calls, probes, runs = [], [], []
    eval_jet, flow_checks, integrate_tghs = (fields.eval_jet, checks._flow_checks,
                                             checks.integrate_tghs)

    def counted(f, Q, P, order=0, time=None):
        calls.append((f, order, Q.shape[1]))
        return eval_jet(f, Q, P, order=order, time=time)

    def recorded_flow_checks(add, sys, initial, probe):
        probes.append(probe)
        return flow_checks(add, sys, initial, probe)

    def recorded_run(*args, **kwargs):
        runs.append(integrate_tghs(*args, **kwargs))
        return runs[-1]

    for mod in (fields, checks, bridge, integrate):
        monkeypatch.setattr(mod, "eval_jet", counted)
    monkeypatch.setattr(checks, "_flow_checks", recorded_flow_checks)
    monkeypatch.setattr(checks, "integrate_tghs", recorded_run)
    run_invariant_suite(structured, 42, 20, initial=PhasePoint([0.5], [0.5]))
    [probe], samples = probes, runs[-1].samples
    assert samples == 501
    for field in (probe, structured.hamiltonian, structured.structural):
        assert calls.count((field, 1, samples)) == 1, field


@pytest.mark.parametrize("count", [0, -3])
def test_suite_refuses_a_count_below_one(structured, monkeypatch, count):
    # named before anything is drawn, not as a numpy error from the draws
    draws = []
    monkeypatch.setattr(checks, "_draw", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=rf"^count must be at least 1, got {count}$"):
        run_invariant_suite(structured, 42, count)
    assert draws == []


@pytest.mark.parametrize("count", [2.5, 3.0, True, "3"])
def test_suite_refuses_a_count_that_is_no_integer(structured, monkeypatch, count):
    draws = []
    monkeypatch.setattr(checks, "_draw", lambda *args: draws.append(args))
    message = f"count must be an integer, got {count!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        run_invariant_suite(structured, 42, count)
    assert draws == []


def test_suite_takes_a_numpy_integer_count(structured):
    results = run_invariant_suite(structured, 42, np.int64(3), include_flow_checks=False)
    assert results == run_invariant_suite(structured, 42, 3, include_flow_checks=False)


def test_suite_computes_the_flow_gradient_once(flow_builds):
    # beta's realness, the closed-form acceleration and its operator route
    # all read the one (V, dV, w, gw) kept on H's order-2 jet
    sys = random_system(np.random.default_rng(11), 2, max_degree=3)
    run_invariant_suite(sys, 42, 40, include_flow_checks=False)
    assert len(flow_builds) == 1


def test_suite_computes_the_flow_gradient_once_per_block(flow_builds, monkeypatch):
    # each block's order-2 jet of H keeps its own flow gradient; one
    # process, so that every block builds it here
    _pin_processes(monkeypatch, 1)
    monkeypatch.setattr(checks, "BLOCK", 7)
    sys = random_system(np.random.default_rng(11), 2, max_degree=3)
    run_invariant_suite(sys, 42, 40, include_flow_checks=False)
    assert len(flow_builds) == 6   # ceil(40 / 7) blocks


def test_suite_derives_each_structural_derivative_once_per_pair_and_block(
        kernel_runs, monkeypatch):
    # per block of this n = 2 system, with s: f, g, the combination, the
    # real field, H, s, z_j and conj(z_j); and f and g with the zero field
    _pin_processes(monkeypatch, 1)
    monkeypatch.setattr(checks, "BLOCK", 7)
    per_block, second = [], checks._second_order_checks

    def counted(add, sys, inp, cols):
        second(add, sys, inp, cols)
        pairs = [(id(a), id(b)) for name, a, b in kernel_runs
                 if name == "structural_derivative_jets"]
        assert len(set(pairs)) == len(pairs)
        per_block.append(len(pairs))
        kernel_runs.clear()

    monkeypatch.setattr(checks, "_second_order_checks", counted)
    sys = random_system(np.random.default_rng(11), 2, max_degree=3)
    run_invariant_suite(sys, 42, 40, include_flow_checks=False)
    assert per_block == [6 + 2 * 2 + 2] * 6   # ceil(40 / 7) blocks


def test_suite_builds_each_code_once_per_call(monkeypatch):
    # the fixed fields (two linear combinations, the reparsed f, 0, z_j
    # and conj(z_j)) are built before the blocks, so no block generates
    # code a block before it already has
    builds = []
    code = fields._Code

    def counted(f, order, kind):
        builds.append((str(f), order, kind))
        return code(f, order, kind)

    fields._parsed.cache_clear()   # so the store holds no code yet
    monkeypatch.setattr(fields, "_Code", counted)
    monkeypatch.setattr(checks, "BLOCK", 7)
    sys = random_system(np.random.default_rng(11), 3, max_degree=3)
    run_invariant_suite(sys, 42, 50, include_flow_checks=False)
    texts = {text for text, _, _ in builds}
    assert {"0.0", "z1", "z3", "conj(z1)", "conj(z3)"} <= texts
    assert max(Counter(builds).values()) == 1


def _suite_bits(sys, count, **kwargs):
    return [(r.name, r.max_dev.hex(), r.tol.hex()) for r in
            run_invariant_suite(sys, 17, count, include_flow_checks=False, **kwargs)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [8, 7 * 7 + 1])
def test_blocked_suite_equals_one_block(monkeypatch, n, count):
    # every invariant is a maximum over points and no kernel mixes
    # points, so blocks of 7 give the bits of one block of all points,
    # on any number of processes
    sys = random_system(np.random.default_rng(n), n)
    one_block = _suite_bits(sys, count)
    monkeypatch.setattr(checks, "BLOCK", 7)
    for processes in (1, 2, 3):
        _pin_processes(monkeypatch, processes)
        assert _suite_bits(sys, count) == one_block, processes
        _no_child_left()


def _suite_processes(blocks):
    return runner.processes(runner.cpus(), blocks)


def test_processes_are_one_per_usable_cpu_and_block(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert [_suite_processes(blocks) for blocks in (1, 2, 3, 10)] == [1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _suite_processes(10) == 4
    monkeypatch.delattr(os, "fork")
    assert _suite_processes(10) == 1


def test_suite_forks_nothing_while_another_thread_is_alive(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(checks, "BLOCK", 7)
    sys = random_system(np.random.default_rng(2), 2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert _suite_processes(8) == 1
        run_invariant_suite(sys, 17, 50, include_flow_checks=False)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and forks == []
    assert _suite_processes(8) == 4   # the thread was the only reason


def test_a_fork_that_fails_runs_its_chunk_here(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    sys = random_system(np.random.default_rng(2), 2)
    sequential = _suite_bits(sys, 50)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, 3)
    assert _suite_bits(sys, 50) == sequential


def _positive_q1_before(monkeypatch, column):
    """Draw the points of columns below `column` with q1 > 0."""
    draw = checks._draw

    def drawn(rng, n, count):
        inp = draw(rng, n, count)
        inp.Q[0, :column] = np.abs(inp.Q[0, :column]) + 0.5
        return inp

    monkeypatch.setattr(checks, "_draw", drawn)


def _route_error_from(monkeypatch, column):
    """A dual-route check fails in every block from `column` on, by an
    amount that names the block."""
    checks_2 = checks._second_order_checks

    def poisoned(add, sys, inp, cols):
        if cols.start >= column:
            brackets._check_routes(np.zeros(1), np.full(1, cols.start + 1.0),
                                   "poisoned block")
        return checks_2(add, sys, inp, cols)

    monkeypatch.setattr(checks, "_second_order_checks", poisoned)


@pytest.mark.parametrize("error, poison", [
    (RealnessError, _positive_q1_before), (ConsistencyError, _route_error_from)])
@pytest.mark.parametrize("column", [0, 32], ids=["parent_chunk", "child_chunk"])
def test_an_error_in_any_chunk_raises_the_text_of_one_process(monkeypatch, error,
                                                              poison, column):
    # from column 32 on, the first failing block (32..37 of 50 in blocks
    # of 7, the sixth) is a child's on 2 or 3 processes, and the parent
    # raises what one process raises: the first failing block's error
    if error is RealnessError:   # log(q1) is complex where q1 < 0
        sys = StructuredSystem(1, parse_field("p1^2/2 + log(q1)", 1),
                               parse_field("p1*log(q1)", 1))
    else:
        sys = random_system(np.random.default_rng(1), 1)
    poison(monkeypatch, column)
    monkeypatch.setattr(checks, "BLOCK", 7)
    texts = []
    for processes in (1, 2, 3):
        _pin_processes(monkeypatch, processes)
        with pytest.raises(error) as raised:
            run_invariant_suite(sys, 17, 50, include_flow_checks=False)
        texts.append(str(raised.value))
        _no_child_left()
    assert texts == texts[:1] * 3
    if error is ConsistencyError:
        assert f"differ by {column + 1:.3e}" in texts[0]


@pytest.fixture
def fake_libc(monkeypatch, tmp_path):
    """Put a fake C library in place of ctypes' (no real malloc_trim runs),
    and log, to a file the forked children append to as well, each
    "trim <pid> <pad>" of its malloc_trim and each "block <pid>" of the
    suite.  Called with the os.confstr to use (None: none); returns the
    log's path and the lookups of the library."""
    import ctypes

    log, lookups = tmp_path / "calls.log", []

    def write(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def malloc_trim(pad):
        write(f"trim {os.getpid()} {pad}")
        return 1

    def cdll(name):
        lookups.append(name)
        return SimpleNamespace(malloc_trim=malloc_trim)

    first = checks._first_order_checks

    def logged(add, sys, inp, cols):
        write(f"block {os.getpid()}")
        return first(add, sys, inp, cols)

    def install(confstr):
        if confstr is None:
            monkeypatch.delattr(os, "confstr", raising=False)
        else:
            monkeypatch.setattr(os, "confstr", confstr, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(checks, "_first_order_checks", logged)
        return log, lookups

    runner._heap_trim.cache_clear()
    yield install
    runner._heap_trim.cache_clear()


def _calls_by_process(log) -> dict[int, list[str]]:
    calls = {}
    for line in log.read_text().splitlines():
        what, pid, *pad = line.split()
        calls.setdefault(int(pid), []).append(" ".join([what, *pad]))
    return calls


def test_each_child_trims_the_heap_once_before_its_first_block(monkeypatch, fake_libc):
    sys = random_system(np.random.default_rng(3), 2)
    sequential = _suite_bits(sys, 50)
    log, lookups = fake_libc(lambda name: "glibc 2.36")
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, 1)
    assert _suite_bits(sys, 50) == sequential
    assert lookups == []   # no fork, no lookup
    for _ in range(2):
        log.unlink()
        _pin_processes(monkeypatch, 3)
        assert _suite_bits(sys, 50) == sequential
        _no_child_left()
        calls = _calls_by_process(log)
        # blocks 0, 3, 6 here; 1, 4, 7 and 2, 5 in the children
        assert calls.pop(os.getpid()) == ["block"] * 3
        assert sorted(len(child) for child in calls.values()) == [1 + 2, 1 + 3]
        for child in calls.values():
            assert child == ["trim 0"] + ["block"] * (len(child) - 1)
    assert lookups == [None]   # once per process


def _not_glibc(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [None, _not_glibc, lambda name: None],
                         ids=["no_confstr", "unknown_name", "unset"])
def test_no_child_trims_without_glibc(monkeypatch, fake_libc, confstr):
    log, lookups = fake_libc(confstr)
    sys = random_system(np.random.default_rng(3), 2)
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, 3)
    _suite_bits(sys, 50)
    _no_child_left()
    calls = _calls_by_process(log)
    assert len(calls) == 3
    assert all(set(c) == {"block"} for c in calls.values())
    assert lookups == []


def test_a_child_that_dies_costs_time_not_the_result(monkeypatch):
    sys = random_system(np.random.default_rng(3), 2)
    sequential = _suite_bits(sys, 50)
    parent, checks_2 = os.getpid(), checks._second_order_checks

    def killed(add, sys, inp, cols):
        if os.getpid() != parent and cols.start >= 32:
            os.kill(os.getpid(), signal.SIGKILL)
        return checks_2(add, sys, inp, cols)

    monkeypatch.setattr(checks, "_second_order_checks", killed)
    monkeypatch.setattr(checks, "BLOCK", 7)
    for processes in (2, 3):
        _pin_processes(monkeypatch, processes)
        assert _suite_bits(sys, 50) == sequential
        _no_child_left()


def test_a_short_payload_costs_time_not_the_result(monkeypatch):
    sys = random_system(np.random.default_rng(3), 2)
    sequential = _suite_bits(sys, 50)
    dumps = pickle.dumps
    monkeypatch.setattr(runner.pickle, "dump", lambda obj, fh: fh.write(dumps(obj)[:-5]))
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, 3)
    assert _suite_bits(sys, 50) == sequential
    _no_child_left()


@pytest.mark.parametrize("processes", [2, 3])
def test_a_nan_in_a_childs_block_fails_its_invariant(structured, monkeypatch,
                                                     processes):
    # column 45 lies in the last block (44..49), the eighth, run by a child
    draw = checks._draw

    def poisoned(rng, n, count):
        inp = draw(rng, n, count)
        inp.dq[45] = np.nan
        return inp

    monkeypatch.setattr(checks, "_draw", poisoned)
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, processes)
    results = run_invariant_suite(structured, 42, 50, include_flow_checks=False)
    [result] = [r for r in results if r.name == "phasespace.wirtinger_inverse"]
    assert math.isnan(result.max_dev) and not result.passed
    assert all(r.passed for r in results if r is not result)
    _no_child_left()


def test_suite_logs_its_blocks_processes_and_time(structured, monkeypatch, caplog):
    monkeypatch.setattr(checks, "BLOCK", 7)
    _pin_processes(monkeypatch, 2)
    caplog.set_level(logging.INFO, logger="gchs.checks")
    run_invariant_suite(structured, 42, 50, include_flow_checks=False)
    [record] = caplog.records
    assert record.levelno == logging.INFO
    assert re.fullmatch(r"invariant suite: 8 blocks, 2 processes, \d+\.\d{3} s, \d+ page faults",
                        record.getMessage())


def test_suite_logs_no_page_faults_without_the_resource_module(structured, monkeypatch,
                                                               caplog):
    monkeypatch.setattr(checks, "resource", None)
    caplog.set_level(logging.INFO, logger="gchs.checks")
    run_invariant_suite(structured, 42, 50, include_flow_checks=False)
    [record] = caplog.records
    assert re.fullmatch(r"invariant suite: 1 blocks, 1 processes, \d+\.\d{3} s",
                        record.getMessage())


def test_worst_keeps_a_nan_on_either_side():
    assert checks._worst is brackets._worst
    assert checks._worst(1.0, 2.0) == checks._worst(2.0, 1.0) == 2.0
    assert math.isnan(checks._worst(math.nan, 1.0))
    assert math.isnan(checks._worst(1.0, math.nan))


@pytest.mark.parametrize("call, side", [(2, 0), (1, 1)],
                         ids=["second_block", "later_term"])
def test_a_nan_fails_its_invariant_in_any_block_or_term(structured, monkeypatch,
                                                        call, side):
    # max(0.0, nan) is 0.0: a NaN arriving after the first term of a
    # merge, or in a block after the first, must still fail
    calls = []
    inverse = checks.real_from_wirtinger

    def poisoned(dz, dzbar):
        calls.append(dz.shape)
        back = list(inverse(dz, dzbar))
        if len(calls) == call:
            back[side] = np.full_like(back[side], np.nan)
        return tuple(back)

    _pin_processes(monkeypatch, 1)   # so that the calls are counted here
    monkeypatch.setattr(checks, "BLOCK", 7)
    monkeypatch.setattr(checks, "real_from_wirtinger", poisoned)
    results = run_invariant_suite(structured, 42, 20, include_flow_checks=False)
    [result] = [r for r in results if r.name == "phasespace.wirtinger_inverse"]
    assert calls == [(7,), (7,), (6,)]
    assert math.isnan(result.max_dev) and not result.passed
    assert all(r.passed for r in results if r is not result)


def test_suite_memory_does_not_grow_with_count(monkeypatch):
    # beyond the O(n * count) inputs, the suite holds one block's jets;
    # one process, so that tracemalloc sees every block
    _pin_processes(monkeypatch, 1)
    sys = random_system(np.random.default_rng(5), 3)
    run_invariant_suite(sys, 42, 100, include_flow_checks=False)
    peaks = []
    for count in (checks.BLOCK, 8 * checks.BLOCK):
        tracemalloc.start()
        try:
            run_invariant_suite(sys, 42, count, include_flow_checks=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], [f"{b / 2 ** 20:.1f} MiB" for b in peaks]


def test_suite_covers_every_module(structured):
    # the names in report order: adding, retiring or moving an invariant
    # is a change to this list
    results = run_invariant_suite(structured, seed=1, count=20,
                                  initial=PhasePoint([0.5], [0.5]))
    assert [r.name for r in results] == [
        "phasespace.roundtrip", "phasespace.wirtinger_inverse",
        "phasespace.conjugation",
        "fields.linearity", "fields.realness", "fields.print_roundtrip",
        "brackets.antisymmetry", "brackets.bilinearity",
        "brackets.classical_reduction", "brackets.real_complex_agreement",
        "brackets.coordinate_pb", "brackets.coordinate_gspb",
        "brackets.coordinate_self", "brackets.geometrio",
        "dynamics.decomposition", "dynamics.conservation",
        "dynamics.velocity_identity", "dynamics.conjugate_pairing",
        "dynamics.structural_rate", "dynamics.sdyn_chain_rule",
        "dynamics.w_realness", "dynamics.beta_realness",
        "dynamics.acceleration_consistency",
        "bridge.cross_engine",
        "integrate.rk4_order", "integrate.trajectory_fd",
        "integrate.covariant_fd", "integrate.decay_law",
    ]


def test_random_polynomial_parses_and_repeats():
    a = random_polynomial(np.random.default_rng(5), 2, complex_ok=True)
    b = random_polynomial(np.random.default_rng(5), 2, complex_ok=True)
    assert str(a) == str(b)
    again = parse_field(str(a), 2)
    Q, P = random_points(np.random.default_rng(0), 2, 10)
    np.testing.assert_array_equal(eval_jet(a, Q, P).val,
                                  eval_jet(again, Q, P).val)


def test_random_smooth_field_is_finite_on_box():
    rng = np.random.default_rng(31)
    Q, P = random_points(np.random.default_rng(1), 2, 200)
    for _ in range(10):
        f = random_smooth_field(rng, 2)
        vals = eval_jet(f, Q, P, order=2)
        assert np.all(np.isfinite(vals.val))
        assert np.all(np.isfinite(vals.grad))
        assert np.all(np.isfinite(vals.hess))


def test_random_system_is_valid():
    sys = random_system(np.random.default_rng(3), 2)
    assert isinstance(sys, StructuredSystem)
    assert sys.hamiltonian.is_real_form and sys.structural.is_real_form
