"""Acceptance gate: the headline guarantees of the package, one test per
claim, each printing a single PASS/FAIL line with the measured deviation.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from pathlib import Path

import numpy as np

from gchs import (PhasePoint, StepperConfig, StructuredSystem, cross_check,
                  integrate_equilibrium, integrate_tghs, monitor_report,
                  parse_field)
from gchs.brackets import gspb_jets, pb_complex_jets, pb_real_jets, sdyn_jets
from gchs.checks import (_acceleration_operator_route, random_points,
                         random_polynomial, random_smooth_field)
from gchs.dynamics import acceleration_jets, total_rate_jets
from gchs.fields import constant_field, conjugate_field, coordinate_field, eval_jet
from gchs.cli import main
from fd_reference import fd_first, fd_second

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "structural.json"


def verdict(number: int, label: str, dev: float, tol: float):
    ok = dev < tol
    print(f"{'PASS' if ok else 'FAIL'}  {number}. {label}: "
          f"max_dev={dev:.3e} (tol {tol:.0e})")
    assert ok, f"criterion {number} ({label}): {dev:.3e} >= {tol:.0e}"


def amax(x) -> float:
    return float(np.max(np.abs(x)))


def test_1_classical_reduction():
    """s = 0 collapses the structural bracket and flow to the classical ones."""
    dev = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(100 + n)
        Q, P = random_points(rng, n, 1000)
        f = random_polynomial(rng, n, complex_ok=True)
        g = random_polynomial(rng, n, complex_ok=True)
        H = random_polynomial(rng, n)
        fj, gj, Hj = (eval_jet(x, Q, P, order=1) for x in (f, g, H))
        zj = eval_jet(constant_field(0.0, n), Q, P, order=1)

        dev = max(dev, amax(gspb_jets(fj, gj, zj) - pb_complex_jets(fj, gj)))
        _, w, total = total_rate_jets(fj, Hj, zj)
        dev = max(dev, amax(total - pb_complex_jets(fj, Hj)))
        dev = max(dev, amax(w))
    verdict(1, "classical reduction at s=0 (n=1,2,3)", dev, 1e-12)


def test_2_real_complex_compatibility():
    """Both chart engines agree on brackets, rates and the structural rate."""
    rng = np.random.default_rng(202)
    n = 2
    Q, P = random_points(rng, n, 1000)
    f = random_polynomial(rng, n, complex_ok=True)
    g = random_polynomial(rng, n, complex_ok=True)
    H = random_polynomial(rng, n)
    s = random_polynomial(rng, n)
    sys = StructuredSystem(n, H, s)

    fj, gj = eval_jet(f, Q, P, order=1), eval_jet(g, Q, P, order=1)
    dev = amax(pb_complex_jets(fj, gj) - pb_real_jets(fj, gj))

    pts = [PhasePoint(Q[:, k], P[:, k]) for k in range(Q.shape[1])]
    rep = cross_check(f, g, sys, pts)
    dev = max(dev, rep.max_dev)
    verdict(2, "real/complex engine agreement", dev, 1e-10)


def test_3_coordinate_brackets():
    """{z, zbar} = -2i exactly; the structural correction follows s."""
    rng = np.random.default_rng(303)
    n = 2
    Q, P = random_points(rng, n, 500)
    s = random_polynomial(rng, n)
    sj = eval_jet(s, Q, P, order=1)
    sz, szb = sj.wirtinger

    exact = 0.0
    dev = 0.0
    for j in range(1, n + 1):
        zf = coordinate_field("z", j, n)
        zj = eval_jet(zf, Q, P, order=1)
        zbj = eval_jet(conjugate_field(zf), Q, P, order=1)
        exact = max(exact, amax(pb_complex_jets(zj, zbj) + 2j))
        want = -2j * (1.0 + zj.val * sz[j - 1] + zbj.val * szb[j - 1])
        dev = max(dev, amax(gspb_jets(zj, zbj, sj) - want))
        dev = max(dev, amax(gspb_jets(zj, zj, sj)))
        dev = max(dev, amax(gspb_jets(zbj, zbj, sj)))
    assert exact == 0.0, f"{{z, zbar}} deviated from -2i by {exact:.3e}"
    verdict(3, "coordinate brackets ({z,zbar} exact)", dev, 1e-12)


def test_4_decomposition_and_conservation():
    """gspb(f,H) = df/dt + f w;  gspb(H,H) = 0;  gspb(s,H) = (1+s) w."""
    rng = np.random.default_rng(404)
    n = 2
    Q, P = random_points(rng, n, 1000)
    f = random_polynomial(rng, n, complex_ok=True)
    H = random_polynomial(rng, n)
    s = random_polynomial(rng, n)

    fj = eval_jet(f, Q, P, order=1)
    Hj = eval_jet(H, Q, P, order=1)
    sj = eval_jet(s, Q, P, order=1)

    w = sdyn_jets(Hj, sj)
    _, _, total = total_rate_jets(fj, Hj, sj)
    dev = amax(gspb_jets(fj, Hj, sj) - total)
    dev = max(dev, amax(gspb_jets(Hj, Hj, sj)))
    dev = max(dev, amax(gspb_jets(sj, Hj, sj) - (1.0 + sj.val) * w))
    verdict(4, "rate decomposition and conservation", dev, 1e-10)


def test_5_decay_laws():
    """Integrated flows obey their exponential decay laws."""
    sys = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                           parse_field("q1", 1))
    traj = integrate_tghs(sys, PhasePoint([0.5], [0.5]),
                          StepperConfig(method="rk4", step=1e-3, t_end=2.0))
    decay_dev = monitor_report(traj).decay_law_max_dev

    eq = integrate_equilibrium(np.array([1.0 + 0.0j]), 0.5,
                               StepperConfig(method="rk4", step=1e-3, t_end=1.0))
    closed = np.exp(-0.5 * eq.times)
    eq_dev = amax(eq.complex_states()[:, 0] - closed)

    assert eq_dev < 1e-8, f"equilibrium vs closed form: {eq_dev:.3e}"
    verdict(5, f"decay laws (equilibrium dev {eq_dev:.1e} < 1e-8)",
            decay_dev, 1e-6)


def test_6_oscillator_ground_truth():
    """The s=0 oscillator reproduces z0 exp(-i t) at fourth order."""
    osc = StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                           parse_field("0", 1))
    traj = integrate_tghs(osc, PhasePoint([1.0], [0.0]),
                          StepperConfig(step=1e-3, t_end=float(np.pi)))
    dev = abs(traj.complex_states()[-1, 0] - np.exp(-1j * np.pi))

    errs = []
    for h in (0.05, 0.025):
        t = integrate_tghs(osc, PhasePoint([1.0], [0.0]),
                           StepperConfig(step=h, t_end=1.0))
        zs = t.complex_states()[:, 0]
        errs.append(amax(zs - np.exp(-1j * t.times)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0, f"step-halving ratio {ratio:.2f} not ~16"
    verdict(6, f"oscillator ground truth (halving ratio {ratio:.1f})",
            dev, 1e-8)


def test_7_acceleration_identity():
    """The closed second-rate formula equals the repeated covariant operator."""
    rng = np.random.default_rng(707)
    n = 2
    Q, P = random_points(rng, n, 200)
    f = random_smooth_field(rng, n, complex_ok=True)
    H = random_smooth_field(rng, n)
    s = random_smooth_field(rng, n)

    fj2 = eval_jet(f, Q, P, order=2)
    Hj2 = eval_jet(H, Q, P, order=2)
    sj2 = eval_jet(s, Q, P, order=2)
    dev = amax(acceleration_jets(fj2, Hj2, sj2)
               - _acceleration_operator_route(fj2, Hj2, sj2))

    # classical limit: for the oscillator, D^2 q/dt^2 + q = 0 pointwise
    Q1, P1 = random_points(np.random.default_rng(708), 1, 200)
    qj2 = eval_jet(coordinate_field("q", 1, 1), Q1, P1, order=2)
    Hosc = eval_jet(parse_field("(q1^2 + p1^2) / 2", 1), Q1, P1, order=2)
    zj2 = eval_jet(constant_field(0.0, 1), Q1, P1, order=2)
    classical = amax(acceleration_jets(qj2, Hosc, zj2) + Q1[0])
    dev = max(dev, classical)
    verdict(7, "second covariant rate identity", dev, 1e-8)


def test_8_derivatives_match_finite_differences():
    """Forward-mode first and second partials against central differences."""
    rng = np.random.default_rng(808)
    n = 2
    Q, P = random_points(rng, n, 500, box=0.9)
    first_dev = 0.0
    second_dev = 0.0
    for _ in range(4):
        f = random_smooth_field(rng, n, complex_ok=True)
        jet = eval_jet(f, Q, P, order=2)
        fd1 = fd_first(f, Q, P, h=1e-5)
        rel1 = np.abs(jet.grad - fd1) / np.maximum(1.0, np.abs(fd1))
        first_dev = max(first_dev, float(rel1.max()))
        fd2 = fd_second(f, Q, P, h=1e-4)
        rel2 = np.abs(jet.hess - fd2) / np.maximum(1.0, np.abs(fd2))
        second_dev = max(second_dev, float(rel2.max()))
    assert first_dev < 1e-6, f"first partials vs differences: {first_dev:.3e}"
    verdict(8, f"derivatives vs finite differences (first {first_dev:.1e})",
            second_dev, 1e-4)


def test_9_cli_determinism(capsys):
    """The seeded check command exits 0 and its report is byte-stable."""
    reports = []
    for _ in range(2):
        rc = main(["check", "--seed", "42", "--count", "1000", str(SCENARIO)])
        out = capsys.readouterr().out
        assert rc == 0, f"check exited {rc}:\n{out}"
        reports.append(out)
    identical = reports[0] == reports[1]
    assert "FAIL" not in reports[0]
    verdict(9, "CLI check determinism (seed 42, count 1000)",
            0.0 if identical else 1.0, 0.5)
