"""Flow integration: steppers against closed forms, monitors, failure modes."""

import json
import math

import numpy as np
import pytest

from gchs import (BlowUpError, PhasePoint, StepperConfig, StructuredSystem,
                  Trajectory, exponential_solution, integrate_equilibrium,
                  integrate_perturbed, integrate_tghs, monitor_report,
                  parse_field)
from gchs import integrate


def cfg(**kw):
    return StepperConfig(**kw)


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("kw", [
    {"method": "euler"},
    {"step": 0.0},
    {"step": -1e-3},
    {"abs_tol": 0.0},
    {"t_end": -1.0},
    {"stride": 0},
    {"stride": 1.5},
    {"max_norm": 0.0},
    # NaN fails every comparison, so each guard must be written to catch it
    {"step": np.nan},
    {"step": np.inf},
    {"abs_tol": np.nan},
    {"rel_tol": np.inf},
    {"t_end": np.nan},
    {"t_end": np.inf},
    {"max_norm": np.nan},
    {"max_norm": np.inf},
    # a bool is an int to isinstance, and True would run with stride 1
    {"stride": True},
    # a bool would run with h = 1, and nothing but a number compares
    {"step": True, "t_end": True},
    {"t_end": False},
    {"abs_tol": True},
    {"step": "0.01"},
    {"rel_tol": "1e-9"},
    {"t_end": None},
    {"max_norm": None},
    # finite and positive, but the step count overflows a float
    {"step": 1e-310, "t_end": 1e10},
    # an int beyond the float range, which float() cannot convert
    {"step": 10 ** 400},
    {"t_end": 10 ** 400},
    {"max_norm": 10 ** 400},
    {"abs_tol": 10 ** 400},
])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        StepperConfig(**kw)


def test_config_stores_its_numbers_as_floats():
    c = StepperConfig(step=1, t_end=2)
    assert type(c.step) is float and type(c.t_end) is float
    assert (c.step, c.t_end) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# the classical oscillator as ground truth (z(t) = z0 exp(-i t))


def closed_form_error(traj):
    z0 = traj.complex_states()[0]
    zs = traj.complex_states()
    want = z0[None, :] * np.exp(-1j * traj.times)[:, None]
    return float(np.max(np.abs(zs - want)))


def test_rk4_oscillator_closed_form(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(step=1e-3, t_end=float(np.pi)))
    z_end = traj.complex_states()[-1, 0]
    assert abs(z_end - np.exp(-1j * np.pi)) < 1e-8
    assert closed_form_error(traj) < 1e-8


def test_rk4_halving_reduces_error_sixteen_fold(oscillator):
    errs = []
    for h in (0.05, 0.025):
        traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                              cfg(step=h, t_end=1.0))
        errs.append(closed_form_error(traj))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_rk45_oscillator_closed_form(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(method="rk45", t_end=float(np.pi)))
    assert closed_form_error(traj) < 1e-6
    assert traj.times[-1] == float(np.pi)  # adaptive run lands exactly


def test_energy_conservation_classical(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(step=1e-3, t_end=2.0))
    assert float(np.max(np.abs(traj.energy - traj.energy[0]))) < 1e-8


# ---------------------------------------------------------------------------
# the structural flow and its decay law


def test_decay_law_structural(structured):
    traj = integrate_tghs(structured, PhasePoint([0.5], [0.5]),
                          cfg(step=1e-3, t_end=2.0))
    rep = monitor_report(traj)
    assert rep.decay_law_max_dev is not None
    assert rep.decay_law_max_dev < 1e-6
    # the energy genuinely moves, so the law is not trivially satisfied
    assert float(np.max(traj.energy)) > 1.5 * traj.energy[0]


def test_structural_monitors(structured):
    traj = integrate_tghs(structured, PhasePoint([0.5], [0.5]),
                          cfg(step=1e-2, t_end=1.0))
    rep = monitor_report(traj)
    assert rep.max_hh_residual < 1e-10
    assert rep.rhs_calls == traj.rhs_calls == 4 * 100   # RK4, 100 steps
    assert rep.flow == "tghs"
    assert rep.samples == traj.samples
    assert rep.t_final == traj.times[-1]


# ---------------------------------------------------------------------------
# equilibrium flow


def test_equilibrium_constant_rate_closed_form():
    traj = integrate_equilibrium(np.array([1.0 + 0.0j]), 0.5,
                                 cfg(step=1e-3, t_end=1.0))
    want = exponential_solution(1.0, 0.5, traj.times)
    dev = np.max(np.abs(traj.complex_states()[:, 0] - want))
    assert dev < 1e-8
    assert abs(traj.complex_states()[-1, 0] - np.exp(-0.5)) < 1e-8


def test_equilibrium_zero_rate_is_constant():
    traj = integrate_equilibrium(np.array([0.3 + 0.4j]), 0.0,
                                 cfg(step=1e-2, t_end=1.0))
    np.testing.assert_array_equal(traj.states, np.tile(traj.states[0],
                                                       (traj.samples, 1)))


def test_equilibrium_negative_rate_grows():
    traj = integrate_equilibrium(np.array([1.0 + 0.0j]), -0.5,
                                 cfg(step=1e-3, t_end=1.0))
    want = exponential_solution(1.0, -0.5, traj.times)
    assert np.max(np.abs(traj.complex_states()[:, 0] - want)) < 1e-8


def test_equilibrium_with_system_rate(structured):
    traj = integrate_equilibrium(np.array([0.5 + 0.5j]), structured,
                                 cfg(step=1e-3, t_end=1.0))
    rep = monitor_report(traj)
    assert rep.flow == "equilibrium"
    # z follows z0 exp(-int w) even for a state-dependent rate
    assert rep.decay_law_max_dev < 1e-6


# ---------------------------------------------------------------------------
# perturbed flow


def test_perturbed_zero_disturbance_matches_equilibrium(structured):
    z0 = np.array([0.5 + 0.5j])
    c = cfg(step=1e-3, t_end=1.0)
    zero = parse_field("0", 1, allow_time=True)
    a = integrate_perturbed(structured, z0, zero, c)
    b = integrate_equilibrium(z0, structured, c)
    np.testing.assert_array_equal(a.states, b.states)


def test_perturbed_constant_disturbance_linear_growth():
    z0 = np.array([0.25 + 0.0j])
    h = parse_field("0.75", 1, allow_time=True)
    traj = integrate_perturbed(0.0, z0, h, cfg(step=1e-3, t_end=2.0))
    want = z0[0] + 0.75 * traj.times
    assert np.max(np.abs(traj.complex_states()[:, 0] - want)) < 1e-8


def test_perturbed_sinusoidal_disturbance():
    z0 = np.array([0.0 + 0.0j])
    h = parse_field("sin(t)", 1, allow_time=True)
    traj = integrate_perturbed(0.0, z0, h, cfg(step=1e-3, t_end=2.0))
    want = 1.0 - np.cos(traj.times)
    assert np.max(np.abs(traj.complex_states()[:, 0] - want)) < 1e-6


def test_perturbed_per_component_fields():
    z0 = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    hs = [parse_field("1", 2, allow_time=True),
          parse_field("0", 2, allow_time=True)]
    traj = integrate_perturbed(0.0, z0, hs, cfg(step=1e-3, t_end=1.0))
    zs = traj.complex_states()
    assert abs(zs[-1, 0] - 1.0) < 1e-8   # grew linearly
    assert abs(zs[-1, 1] - 1.0) < 1e-12  # untouched


def test_perturbed_evaluates_each_field_once_per_call(monkeypatch):
    # one field for all n components is evaluated once per right-hand
    # side, not n times, and gives the numbers of n separate fields
    n, text = 3, "sin(t) + i * q1 * p2 - 0.5 * z3"
    z0 = PhasePoint([0.1, 0.2, 0.3], [0.0, -0.1, 0.2])
    c = cfg(step=1e-2, t_end=0.1)
    calls = []
    evaluate = integrate.eval_jet
    monkeypatch.setattr(integrate, "eval_jet",
                        lambda f, *args, **kw: calls.append(f) or evaluate(f, *args, **kw))
    one = integrate_perturbed(0.5, z0, parse_field(text, n, allow_time=True), c)
    rhs_calls = 4 * (one.samples - 1)   # RK4, stride 1
    assert len(calls) == rhs_calls == 40
    copies = [parse_field(text, n, allow_time=True) for _ in range(n)]
    separate = integrate_perturbed(0.5, z0, copies, c)
    assert len(calls) == 40 + n * rhs_calls
    np.testing.assert_array_equal(one.states, separate.states)


def test_perturbed_wrong_field_count():
    z0 = np.array([0.0j, 0.0j])
    with pytest.raises(ValueError, match="one disturbance per component"):
        integrate_perturbed(0.0, z0, [parse_field("0", 2, allow_time=True)],
                            cfg(t_end=0.1))


# ---------------------------------------------------------------------------
# failure modes and sampling control


def test_blow_up_reports_time():
    with pytest.raises(BlowUpError) as err:
        integrate_equilibrium(np.array([1.0 + 0.0j]), -30.0,
                              cfg(step=1e-3, t_end=2.0, max_norm=1e3))
    t_fail = err.value.t
    assert 0.0 < t_fail < 2.0
    # |z| = exp(30 t) crosses 1e3 near t = ln(1e3)/30
    assert t_fail == pytest.approx(np.log(1e3) / 30.0, abs=0.01)
    assert "t=" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_state_counts_as_blow_up(bad):
    # a NaN norm fails every `norm > max_norm` test; it must not pass.  The
    # one step of 0.25 takes (0.5, 0.0) to (0.5, bad)
    c = cfg(step=0.25, t_end=1.0, max_norm=1e12)
    with pytest.raises(BlowUpError, match="exceeded") as err:
        integrate._march(lambda t, x: [0.0, bad], np.array([0.5, 0.0]), c)
    assert err.value.t == 0.25
    assert repr(err.value.norm) == repr(abs(bad))
    with pytest.raises(BlowUpError, match="exceeded") as err:
        integrate._march(lambda t, x: [0.0, 0.0], np.array([0.5, bad]), c)
    assert err.value.t == 0.0
    assert repr(err.value.norm) == repr(abs(bad))


def test_unstable_structural_flow_blows_up():
    sys = StructuredSystem(1, parse_field("q1 * p1", 1), parse_field("0", 1))
    with pytest.raises(BlowUpError):
        integrate_tghs(sys, PhasePoint([1.0], [1.0]),
                       cfg(step=1e-3, t_end=20.0, max_norm=1e3))


def test_zero_horizon_single_sample(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]), cfg(t_end=0.0))
    assert traj.samples == 1
    assert traj.times[0] == 0.0


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_horizon_below_the_time_tolerance_is_the_start(oscillator, method):
    # both methods take a horizon within 1e-12*max(1, t_end) of t for t
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(method=method, t_end=1e-15))
    assert traj.times.tolist() == [0.0]
    assert traj.states.tolist() == [[1.0, 0.0]]
    assert traj.rhs_calls == 0


def test_stride_thins_samples(oscillator):
    dense = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                           cfg(step=1e-2, t_end=1.0, stride=1))
    thin = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(step=1e-2, t_end=1.0, stride=10))
    assert dense.samples == 101
    assert thin.samples == 11
    np.testing.assert_array_equal(thin.states[1], dense.states[10])
    assert thin.times[-1] == dense.times[-1]


def test_partial_final_step_lands_on_horizon(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(step=1e-2, t_end=0.505))
    assert traj.times[-1] == pytest.approx(0.505, abs=1e-12)
    assert closed_form_error(traj) < 1e-8


FLOWS = {
    "tghs": lambda sys, z0, c, obs=None: integrate_tghs(sys, z0, c, obs),
    "equilibrium": lambda w, z0, c, obs=None: integrate_equilibrium(z0, w, c, obs),
    "perturbed": lambda w, z0, c, obs=None: integrate_perturbed(
        w, z0, parse_field("0.5 * t", z0.n, allow_time=True), c, obs),
}


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_mismatched_initial_point(structured, flow):
    with pytest.raises(ValueError, match="initial point has n=2, system has n=1"):
        FLOWS[flow](structured, PhasePoint([1.0, 2.0], [0.0, 0.0]), cfg(t_end=0.1))


@pytest.mark.parametrize("flow", ["equilibrium", "perturbed"])
def test_constant_rate_flow_records_values_only(flow):
    obs = {"height": parse_field("p1", 1)}
    traj = FLOWS[flow](0.25, PhasePoint([0.5], [0.5]),
                       cfg(step=1e-2, t_end=0.1), obs)
    assert traj.flow == flow
    assert traj.w0 == 0.25
    np.testing.assert_array_equal(traj.sdyn, np.full(traj.samples, 0.25))
    np.testing.assert_array_equal(traj.observables["height"].real,
                                  traj.states[:, 1])
    assert traj.residuals == {}
    assert traj.energy is None and traj.hh_residual is None


@pytest.mark.parametrize("flow", sorted(FLOWS))
def test_system_rate_flow_records_monitors(structured, flow):
    obs = {"height": parse_field("p1", 1)}
    traj = FLOWS[flow](structured, PhasePoint([0.5], [0.5]),
                       cfg(step=1e-2, t_end=0.1), obs)
    assert traj.flow == flow
    assert traj.w0 is None
    for monitor in (traj.energy, traj.sdyn, traj.hh_residual,
                    traj.observables["height"], traj.residuals["height"]):
        assert monitor.shape == (traj.samples,)


# ---------------------------------------------------------------------------
# trajectory access and observables


def test_trajectory_accessors(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.5]),
                          cfg(step=1e-2, t_end=0.1))
    pt = traj.point(0)
    assert pt.q[0] == 1.0 and pt.p[0] == 0.5
    assert traj.complex_states().shape == (traj.samples, 1)


def test_observables_recorded_with_residuals(structured):
    obs = {"height": parse_field("p1", 1)}
    traj = integrate_tghs(structured, PhasePoint([0.5], [0.5]),
                          cfg(step=1e-2, t_end=0.5), observables=obs)
    assert "height" in traj.observables
    assert "height" in traj.residuals
    np.testing.assert_allclose(traj.observables["height"].real,
                               traj.states[:, 1], atol=1e-14)
    rep = monitor_report(traj)
    assert "height" in rep.observables
    stats = rep.observables["height"]
    assert {"final_re", "final_im", "residual_max", "residual_mean"} <= set(stats)


def test_monitor_report_requires_increasing_times(oscillator):
    traj = integrate_tghs(oscillator, PhasePoint([1.0], [0.0]),
                          cfg(step=1e-2, t_end=0.1))
    traj.times = traj.times[::-1].copy()
    with pytest.raises(ValueError, match="increasing"):
        monitor_report(traj)


def test_report_dictionary_shape(structured):
    traj = integrate_tghs(structured, PhasePoint([0.5], [0.5]),
                          cfg(step=1e-2, t_end=0.5))
    doc = monitor_report(traj).to_dict()
    assert set(doc) == {"flow", "samples", "rhs_calls", "t_final", "max_hh_residual",
                        "decay_law_max_dev", "energy_initial", "energy_final",
                        "observables"}


def test_report_folds_the_sign_of_zero():
    # a real observable whose last value carries a negative zero imaginary
    # part reads as 0.0, as the CSV prints it
    traj = Trajectory("tghs", 1, np.array([0.0, 0.1]), np.zeros((2, 2)),
                      energy=np.array([-0.0, 1.0]),
                      observables={"r": np.array([1.0, complex(0.25, -0.0)])},
                      residuals={"r": np.array([-0.0, 0.0])})
    doc = monitor_report(traj).to_dict()
    stats = doc["observables"]["r"]
    assert math.copysign(1.0, stats["final_im"]) == 1.0
    assert json.dumps(stats) == ('{"final_re": 0.25, "final_im": 0.0, '
                                 '"residual_max": 0.0, "residual_mean": 0.0}')
    assert json.dumps(doc["energy_initial"]) == "0.0"
