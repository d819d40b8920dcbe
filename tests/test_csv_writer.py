"""The row-formatted trajectory CSV against the per-cell writer it replaces.

cli.write_trajectory_csv stacks the columns into one float table, folds
-0.0 once, and formats each row with one precomputed format.  The
per-cell writer below formats every value on its own; both must write
the same file, byte for byte."""

import math

import numpy as np
import pytest

from gchs import (PhasePoint, StepperConfig, StructuredSystem, Trajectory,
                  integrate_equilibrium, integrate_tghs, parse_field)
from gchs.cli import write_trajectory_csv


def _fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"


def _fmt_complex(v: complex) -> str:
    return f"{v.real + 0.0:.17g}{v.imag + 0.0:+.17g}j"


def reference_csv(path, traj: Trajectory):
    """One formatting call per cell, complex cells from Python complexes."""
    n = traj.n
    header = (["t"] + [f"q{j}" for j in range(1, n + 1)]
              + [f"p{j}" for j in range(1, n + 1)])
    columns = [traj.times] + [traj.states[:, a] for a in range(2 * n)]
    if traj.energy is not None:
        header.append("H")
        columns.append(traj.energy)
    if traj.sdyn is not None:
        header.append("w")
        columns.append(traj.sdyn)
    complex_cols = set()
    for name in sorted(traj.observables):
        header.append(name)
        complex_cols.add(len(columns))
        columns.append(traj.observables[name])
        if name in traj.residuals:
            header.append(f"{name}_residual")
            complex_cols.add(len(columns))
            columns.append(traj.residuals[name])

    cells = [list(map(_fmt_complex if ci in complex_cols else _fmt, col.tolist()))
             for ci, col in enumerate(columns)]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _same_bytes(tmp_path, traj):
    write_trajectory_csv(tmp_path / "rows.csv", traj)
    reference_csv(tmp_path / "cells.csv", traj)
    rows = (tmp_path / "rows.csv").read_bytes()
    assert rows == (tmp_path / "cells.csv").read_bytes()
    return rows.decode()


NAN, INF = math.nan, math.inf
EDGES = [-0.0, 0.0, NAN, -NAN, INF, -INF, 1e300, -1.7976931348623157e308,
         1e-300, -5e-324, 2.2250738585072014e-308, 0.1, -1.0 / 3.0]


def test_edge_values_hand_built(tmp_path):
    k = len(EDGES)
    vals = np.array(EDGES)
    states = np.stack([vals, vals[::-1], np.roll(vals, 3), np.roll(vals, 5)], axis=1)
    parts = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(NAN, -0.0),
             complex(-INF, 1e-310), complex(1e300, -1e300), complex(-0.0, NAN)]
    zc = np.array([parts[i % len(parts)] for i in range(k)])
    traj = Trajectory("tghs", 2, np.linspace(0.0, 1.2, k), states,
                      energy=np.roll(vals, 1), sdyn=np.roll(vals, 2),
                      observables={"zc": zc, "a": np.array([complex(v.imag, v.real)
                                                            for v in zc[::-1]])},
                      residuals={"zc": np.conj(zc)})
    text = _same_bytes(tmp_path, traj)
    assert text.splitlines()[0] == "t,q1,q2,p1,p2,H,w,a,zc,zc_residual"
    assert "-0," not in text and "-0j" not in text and "nan" in text


def test_single_sample(tmp_path):
    traj = Trajectory("tghs", 1, np.array([0.0]), np.array([[-0.0, 1e-300]]),
                      observables={"z": np.array([complex(-0.0, -1e300)])})
    assert _same_bytes(tmp_path, traj).count("\n") == 2


def test_constant_rate_run_has_no_energy_column(tmp_path):
    traj = integrate_equilibrium(PhasePoint([0.5, -0.0], [0.25, -0.5]), -0.7,
                                 StepperConfig(step=0.01, t_end=0.105),
                                 {"zz": parse_field("z1 * conj(z2)", 2)})
    assert traj.energy is None and traj.residuals == {}
    assert _same_bytes(tmp_path, traj).startswith("t,q1,q2,p1,p2,w,zz\n")


@pytest.mark.parametrize("observables", [None, {"r": "q1 * p2 + q2^2", "zc": "z1 * conj(z2)"}])
def test_structural_run(tmp_path, observables):
    sys = StructuredSystem(2, parse_field("(q1^2 + p1^2 + q2^2 + p2^2) / 2", 2),
                           parse_field("0.1 * q1 - 0.05 * p2", 2))
    obs = {k: parse_field(v, 2) for k, v in (observables or {}).items()}
    traj = integrate_tghs(sys, PhasePoint([0.4, -0.3], [0.0, 0.55]),
                          StepperConfig(step=0.01, t_end=0.2), obs)
    text = _same_bytes(tmp_path, traj)
    assert text.count("\n") == 22
