"""The float march against the array marches it replaces.

gchs.integrate marches RK4 and RK45 on Python floats, in one loop, with
the IEEE operations of the array forms in the same order.  The array
forms are kept in rk4_reference.py and rk45_reference.py; both must give
the same times and states bit for bit, the same BlowUpError and the same
DomainError message."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import rk4_reference
import rk45_reference

from gchs import (BlowUpError, DomainError, PhasePoint, StepperConfig,
                  StructuredSystem, integrate, integrate_equilibrium,
                  integrate_perturbed, integrate_tghs, load_scenario, parse_field)
from gchs.checks import random_system

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _reference_march(rhs, x0, cfg):
    # the float right-hand side, seen through arrays as the array march saw
    # it, with the stage time added to a DomainError as integrate._march does
    calls = []

    def array_rhs(t, x):
        calls.append(t)
        try:
            return np.array(rhs(t, x.tolist()))
        except DomainError as e:
            raise DomainError(f"{e} at t={t:.6g}") from None

    if cfg.method == "rk4":
        times, states = rk4_reference.fixed_rk4(array_rhs, x0, cfg)
    else:
        times, states, _, _ = rk45_reference.adaptive_rk45(array_rhs, x0, cfg)
    return times, states, len(calls)


def _tghs_cases():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        yield path.stem, sc.system(), sc.initial, sc.stepper
    rng = np.random.default_rng(11)
    for n in range(1, 5):
        q, p = rng.uniform(-0.5, 0.5, size=(2, n))
        yield (f"random_n{n}", random_system(rng, n), PhasePoint(q, p),
               StepperConfig(step=0.01, t_end=0.2))
    q, p = rng.uniform(-0.5, 0.5, size=(2, 2))
    sys = random_system(rng, 2)
    # 20 steps at stride 3 end between samples and append the horizon
    yield "stride", sys, PhasePoint(q, p), StepperConfig(step=0.01, t_end=0.2, stride=3)
    # 20 full steps and a remainder step of 0.005
    yield "remainder", sys, PhasePoint(q, p), StepperConfig(step=0.01, t_end=0.205)


def _rk45_cases():
    for name, sys, pt0, cfg in _tghs_cases():
        yield f"{name}-rk45", sys, pt0, dataclasses.replace(cfg, method="rk45")
    # 6 accepted steps, the last cut to land on t_end: stride 1 records it,
    # and at stride 5 the loop appends it as the horizon
    rng = np.random.default_rng(5)
    sys = random_system(rng, 3)
    q, p = rng.uniform(-0.5, 0.5, size=(2, 3))
    for stride in (1, 5):
        yield (f"capped-stride{stride}-rk45", sys, PhasePoint(q, p),
               StepperConfig(method="rk45", t_end=0.3, stride=stride))


def _negative_zero_runs():
    # q1 stays on -0.0: its velocity is -0.0 at every stage, and
    # -0.0 + (-0.0) is the only sum of zeros that keeps the sign
    pt0, cfg = PhasePoint([-0.0], [0.5]), StepperConfig(step=0.1, t_end=0.3)
    for H, s in [("q1 * p1", "0"), ("q1 * p1", "p1")]:
        sys = StructuredSystem(1, parse_field(H, 1), parse_field(s, 1))
        yield f"{H}, {s}", lambda sys=sys: integrate_tghs(sys, pt0, cfg)
    yield "w = -0.7", lambda: integrate_equilibrium(pt0, -0.7, cfg)


def _both(run, monkeypatch):
    """run() with the float march, then with the array march."""
    with monkeypatch.context() as m:
        m.setattr(integrate, "_march", _reference_march)
        reference = run()
    return run(), reference


def _bits(traj):
    return (traj.times.dtype, traj.times.shape, traj.times.tobytes(),
            traj.states.dtype, traj.states.shape, traj.states.tobytes())


@pytest.mark.parametrize("name, sys, pt0, cfg", [*_tghs_cases(), *_rk45_cases()],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_structural_flow_states_equal_the_array_march(name, sys, pt0, cfg, monkeypatch):
    floats, arrays = _both(lambda: integrate_tghs(sys, pt0, cfg), monkeypatch)
    assert _bits(floats) == _bits(arrays)
    assert floats.rhs_calls == arrays.rhs_calls


@pytest.mark.parametrize("name, run", list(_negative_zero_runs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_negative_zero_component_stays_negative(name, run, monkeypatch):
    floats, arrays = _both(run, monkeypatch)
    assert np.all(np.signbit(arrays.states[:, 0]))
    assert np.all(arrays.states[:, 0] == 0.0)
    assert _bits(floats) == _bits(arrays)


def test_jets_fallback_states_equal_the_array_march(monkeypatch):
    rng = np.random.default_rng(3)
    sys = random_system(rng, 2)
    pt0 = PhasePoint(*rng.uniform(-0.5, 0.5, size=(2, 2)))
    monkeypatch.setattr(integrate, "velocity_kernel", lambda sys: None)
    floats, arrays = _both(
        lambda: integrate_tghs(sys, pt0, StepperConfig(step=0.01, t_end=0.105)),
        monkeypatch)
    assert _bits(floats) == _bits(arrays)


@pytest.mark.parametrize("flow, method", [
    pytest.param(flow, method, id=flow if method == "rk4" else f"{flow}-{method}")
    for method in ("rk4", "rk45") for flow in ("equilibrium", "constant", "perturbed")])
def test_other_flows_equal_the_array_march(flow, method, structured, monkeypatch):
    pt0 = PhasePoint([0.5], [0.25])
    cfg = StepperConfig(method=method, step=0.01, t_end=0.155)
    runs = {
        "equilibrium": lambda: integrate_equilibrium(pt0, structured, cfg),
        "constant": lambda: integrate_equilibrium(pt0, -0.7, cfg),
        "perturbed": lambda: integrate_perturbed(
            0.3, pt0, parse_field("0.5 * t + i * z1", 1, allow_time=True), cfg),
    }
    floats, arrays = _both(runs[flow], monkeypatch)
    assert _bits(floats) == _bits(arrays)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300])
def test_bad_stage_raises_the_same_blow_up(bad):
    # the two middle stages of the second step return bad in one component
    def rhs(t, x):
        return [bad if t == 0.375 else 1.0, -0.5]

    cfg = StepperConfig(step=0.25, t_end=1.0, max_norm=1e12)
    x0 = np.array([0.5, -0.25])
    with pytest.raises(BlowUpError) as floats:
        integrate._march(rhs, x0, cfg)
    with pytest.raises(BlowUpError) as arrays:
        _reference_march(rhs, x0, cfg)
    assert floats.value.t == arrays.value.t == 0.5
    assert repr(floats.value.norm) == repr(arrays.value.norm)
    assert str(floats.value) == str(arrays.value)


def test_domain_error_mid_stage_names_the_stage_time(monkeypatch):
    def rhs(t, x):
        if t == 0.375:
            raise DomainError("division by zero")
        return [1.0, -0.5]

    cfg = StepperConfig(step=0.25, t_end=1.0)
    x0 = np.array([0.5, -0.25])
    with pytest.raises(DomainError, match=r"^division by zero at t=0\.375$"):
        integrate._march(rhs, x0, cfg)
    monkeypatch.setattr(integrate, "_march", _reference_march)
    with pytest.raises(DomainError, match=r"^division by zero at t=0\.375$"):
        integrate._march(rhs, x0, cfg)


@pytest.mark.parametrize("method, t_end", [("rk4", 1.0), ("rk4", 1.1), ("rk45", 1.0)])
def test_rhs_calls_count_every_right_hand_side(method, t_end):
    calls = []

    def rhs(t, x):
        calls.append(t)
        return [x[1], -x[0]]

    cfg = StepperConfig(method=method, step=0.25, t_end=t_end, stride=2)
    times, _, rhs_calls = integrate._march(rhs, np.array([1.0, 0.0]), cfg)
    assert rhs_calls == len(calls)
    if method == "rk4":
        assert rhs_calls == 4 * math.ceil(t_end / 0.25)
    else:
        assert rhs_calls % 7 == 0 and rhs_calls >= 7 * (times.size - 1)



def test_rk45_rejected_steps_equal_the_array_march():
    # at tolerances of 1e-12 the controller overshoots twice; each rejected
    # attempt costs its 7 right-hand sides and moves neither t nor x
    sys = StructuredSystem(1, parse_field("(q1^2+p1^2)/2", 1), parse_field("0", 1))
    pt0 = PhasePoint([1.0], [0.0])
    cfg = StepperConfig(method="rk45", abs_tol=1e-12, rel_tol=1e-12, t_end=10.0)
    traj = integrate_tghs(sys, pt0, cfg)
    rhs = integrate.velocity_kernel(sys)
    times, states, accepted, rejected = rk45_reference.adaptive_rk45(
        lambda t, x: np.array(rhs(*x)), pt0.flat(), cfg)
    assert rejected == 2 and accepted == traj.samples - 1 == 750
    assert traj.rhs_calls == 7 * (accepted + rejected) == 5264
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
