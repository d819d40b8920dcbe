"""The seeded invariant suite: it passes, and it is deterministic."""

import numpy as np

from gchs import PhasePoint, StructuredSystem, parse_field, run_invariant_suite
from gchs import bridge, checks, fields, integrate
from gchs.checks import (random_points, random_polynomial, random_smooth_field,
                         random_system)
from gchs.fields import eval_jet


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
    # the probe run marches with no observable, so only the flow checks
    # evaluate the probe's order-1 jets over its samples
    calls, probes, runs = [], [], []
    eval_jet, flow_checks, integrate_tghs = (fields.eval_jet, checks._flow_checks,
                                             checks.integrate_tghs)

    def counted(f, Q, P, order=0, time=None):
        calls.append((f, order, Q.shape[1]))
        return eval_jet(f, Q, P, order=order, time=time)

    def recorded_flow_checks(sys, initial, probe):
        probes.append(probe)
        return flow_checks(sys, initial, probe)

    def recorded_run(*args, **kwargs):
        runs.append(integrate_tghs(*args, **kwargs))
        return runs[-1]

    for mod in (fields, checks, bridge, integrate):
        monkeypatch.setattr(mod, "eval_jet", counted)
    monkeypatch.setattr(checks, "_flow_checks", recorded_flow_checks)
    monkeypatch.setattr(checks, "integrate_tghs", recorded_run)
    run_invariant_suite(structured, 42, 20, initial=PhasePoint([0.5], [0.5]))
    [probe], samples = probes, runs[-1].samples
    assert calls.count((probe, 1, samples)) == 1


def test_suite_computes_the_flow_gradient_once(flow_builds):
    # beta's realness, the closed-form acceleration and its operator route
    # all read the one (V, dV, w, gw) kept on H's order-2 jet
    sys = random_system(np.random.default_rng(11), 2, max_degree=3)
    run_invariant_suite(sys, 42, 40, include_flow_checks=False)
    assert len(flow_builds) == 1


def test_suite_covers_every_module(structured):
    results = run_invariant_suite(structured, seed=1, count=20,
                                  initial=PhasePoint([0.5], [0.5]))
    prefixes = {r.name.split(".")[0] for r in results}
    assert {"phasespace", "fields", "brackets", "dynamics", "bridge",
            "integrate"} <= prefixes


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
