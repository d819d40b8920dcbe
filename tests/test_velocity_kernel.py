"""The compiled velocity of the structural flow against the jets it replaces.

integrate_tghs evaluates its right-hand side with the system's velocity
kernel and falls back to the order-1 jets of H and s.  Both routes must
give the same floats, bit for bit, and the same errors."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from gchs import (DomainError, PhasePoint, StepperConfig, StructuredSystem,
                  fields, integrate, integrate_tghs, load_scenario, parse_field)
from gchs.checks import random_system
from gchs.cli import run_one_scenario
from gchs.dynamics import velocity_kernel

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _counted(monkeypatch):
    """Route integrate's kernel and m=1 jets through counters: the
    kernel's outputs, and the number of single-point eval_jet calls."""
    outs, point_jets = [], []
    eval_jet = integrate.eval_jet

    def kernel_of(sys):
        fn = velocity_kernel(sys)
        if fn is None:
            return None

        def counted(*x):
            outs.append(fn(*x))
            return outs[-1]
        return counted

    def jet(f, Q, P, **kw):
        if np.shape(Q)[1] == 1:
            point_jets.append(f)
        return eval_jet(f, Q, P, **kw)

    monkeypatch.setattr(integrate, "velocity_kernel", kernel_of)
    monkeypatch.setattr(integrate, "eval_jet", jet)
    return outs, point_jets


def _states(sys, pt0, cfg):
    traj = integrate_tghs(sys, pt0, cfg)
    return traj.times.tobytes(), traj.states.tobytes()


def _cases():
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario(path)
        yield path.stem, sc.system(), sc.initial, sc.stepper
    rng = np.random.default_rng(2024)
    for n in range(1, 5):
        q, p = rng.uniform(-0.5, 0.5, size=(2, n))
        yield (f"random_n{n}", random_system(rng, n), PhasePoint(q, p),
               StepperConfig(step=0.01, t_end=0.2))
    # q1 starts on a negative zero, where the sign of a zero velocity shows
    # in the states: an absent entry of dH or ds is still added as 0.0.
    # In the last two q1 stays on -0.0 for the whole run
    for H, s in [("q1^2 / 2", "q1 * p1"), ("q1 * p1 + q1^2", "0"),
                 ("q1 * p1", "0"), ("q1 * p1", "p1")]:
        yield (f"{H}, {s}", StructuredSystem(1, parse_field(H, 1), parse_field(s, 1)),
               PhasePoint([-0.0], [0.5]), StepperConfig(step=0.1, t_end=0.3))


@pytest.fixture
def coupled_case(coupled):
    n = coupled["n"]
    sys = StructuredSystem(n, parse_field(coupled["hamiltonian"], n),
                           parse_field(coupled["structural"], n))
    init = coupled["initial"]
    return sys, PhasePoint(init["q"], init["p"]), StepperConfig(**coupled["stepper"])


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_kernel_states_equal_the_jets_bit_for_bit(method, coupled_case, monkeypatch):
    cases = [(name, sys, pt0, dataclasses.replace(cfg, method=method))
             for name, sys, pt0, cfg in _cases()]
    cases.append(("coupled", *coupled_case[:2],
                  dataclasses.replace(coupled_case[2], method=method)))
    outs, point_jets = _counted(monkeypatch)
    kernel = {name: _states(sys, pt0, cfg) for name, sys, pt0, cfg in cases}
    assert outs and all(type(v) is tuple for v in outs)
    assert not point_jets
    monkeypatch.setattr(integrate, "velocity_kernel", lambda sys: None)
    jets = {name: _states(sys, pt0, cfg) for name, sys, pt0, cfg in cases}
    assert point_jets
    assert kernel == jets


def _refuse(*args):
    raise RecursionError("too deep")


@pytest.mark.parametrize("H, s, refuse", [
    ("(q1^2 + p1^2) / 2", "0.3 * log(2 + q1^2)", False),
    ("(q1^2 + p1^2) / 2 + 0.1 * q1^100", "0.2 * q1", False),
    ("(q1^2 + p1^2) / 2 + 0.1 / (1e400 + q1^2)", "0.2 * q1", False),
    ("(q1^2 + p1^2) / 2", "0.2 * q1", True),
])
def test_system_without_kernel_runs_on_the_jets(H, s, refuse, monkeypatch):
    if refuse:
        monkeypatch.setattr(fields, "_compile", _refuse)
    sys = StructuredSystem(1, parse_field(H, 1), parse_field(s, 1))
    pt0, cfg = PhasePoint([0.3], [-0.2]), StepperConfig(step=0.01, t_end=0.1)
    assert velocity_kernel(sys) is None
    outs, point_jets = _counted(monkeypatch)
    states = _states(sys, pt0, cfg)
    assert not outs and len(point_jets) == 2 * 4 * 10
    monkeypatch.setattr(integrate, "velocity_kernel", lambda sys: None)
    assert _states(sys, pt0, cfg) == states


@pytest.mark.parametrize("H, s, q1", [
    ("1e300 * (1 + q1^2)", "1e10 * p1", 0.5),   # H and s finite, H * ds not
    ("p1^2 / 2 + exp(q1)", "0.1 * q1", 800.0),  # math.exp raises
])
def test_overflowing_velocity_is_a_domain_error(H, s, q1, write_scenario):
    sys = StructuredSystem(1, parse_field(H, 1), parse_field(s, 1))
    assert velocity_kernel(sys) is not None
    with np.errstate(all="ignore"), \
            pytest.raises(DomainError, match="^flow velocity is not finite at t=0$"):
        integrate_tghs(sys, PhasePoint([q1], [0.5]), StepperConfig(step=0.1, t_end=1.0))
    path = write_scenario(hamiltonian=H, structural=s,
                          initial={"q": [q1], "p": [0.5]})
    assert run_one_scenario(path) == (
        4, f"{path}: error: flow velocity is not finite at t=0")


def test_guard_that_fires_mid_run_gives_the_jets_error(monkeypatch):
    # qdot = 1 moves q1 from -0.5 by exact quarters: the last stage of the
    # second step lands on q1 = 0, where 1 / q1 divides by zero
    sys = StructuredSystem(1, parse_field("p1 + 1 / q1", 1), parse_field("0", 1))
    pt0, cfg = PhasePoint([-0.5], [0.0]), StepperConfig(step=0.25, t_end=1.0)
    outs, point_jets = _counted(monkeypatch)
    with pytest.raises(DomainError, match="^division by zero at t=0.5$"):
        integrate_tghs(sys, pt0, cfg)
    assert [type(v) for v in outs] == [tuple] * 7 + [int]
    assert point_jets == [sys.hamiltonian]   # its array code raises
    monkeypatch.setattr(integrate, "velocity_kernel", lambda sys: None)
    with pytest.raises(DomainError, match="^division by zero at t=0.5$"):
        integrate_tghs(sys, pt0, cfg)


def test_rk4_run_calls_the_kernel_once_per_stage(monkeypatch):
    rng = np.random.default_rng(5)
    sys = random_system(rng, 3)
    outs, point_jets = _counted(monkeypatch)
    traj = integrate_tghs(sys, PhasePoint(*rng.uniform(-0.5, 0.5, size=(2, 3))),
                          StepperConfig(step=1e-3, t_end=0.1))
    assert traj.samples == 101
    assert len(outs) == 400 and all(type(v) is tuple for v in outs)
    assert traj.rhs_calls == 4 * 100
    assert point_jets == []


def test_kernel_is_built_once_per_system():
    sys = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1), parse_field("q1", 1))
    assert velocity_kernel(sys) is velocity_kernel(sys) is not None
    assert velocity_kernel(sys)(1.0, 2.0) == (2.0, -3.5)
