"""Command line behaviour: exit codes, file outputs, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gchs import InvariantResult, fields
from gchs.cli import main, run_one_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OSC = {
    "n": 1,
    "hamiltonian": "(q1^2 + p1^2) / 2",
    "structural": "0",
    "observables": {"position": "q1", "z": "z1"},
    "initial": {"q": [1.0], "p": [0.0]},
    "stepper": {"step": 1e-3, "t_end": 2.0, "stride": 10},
}


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# run


def test_run_oscillator(write_scenario, capsys):
    path = write_scenario(**OSC)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr()
    assert str(path) in out.out

    csv_path = path.parent / "scenario_trajectory.csv"
    header, rows = read_csv(csv_path)
    assert header[:5] == ["t", "q1", "p1", "H", "w"]
    assert header[5:] == ["position", "position_residual", "z", "z_residual"]
    h_col = np.array([float(r[3]) for r in rows])
    assert np.max(np.abs(h_col - h_col[0])) < 1e-8

    summary = json.loads((path.parent / "scenario_summary.json").read_text())
    assert summary["scenario"] == "scenario.json"
    assert summary["flow"] == "tghs"
    assert summary["max_hh_residual"] < 1e-10


def test_run_structural_decay_summary(write_scenario):
    path = write_scenario()  # the base scenario: s = q1 from (0.5, 0.5)
    assert main(["run", str(path)]) == 0
    summary = json.loads((path.parent / "scenario_summary.json").read_text())
    assert summary["decay_law_max_dev"] < 1e-6


def test_run_is_deterministic(write_scenario, capsys):
    path = write_scenario(**OSC)
    digests = []
    for _ in range(2):
        assert main(["run", str(path)]) == 0
        digests.append((path.parent / "scenario_trajectory.csv").read_bytes()
                       + (path.parent / "scenario_summary.json").read_bytes())
    assert digests[0] == digests[1]
    capsys.readouterr()


def test_csv_round_trips_at_full_precision(write_scenario, capsys):
    path = write_scenario(**OSC)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    header, rows = read_csv(path.parent / "scenario_trajectory.csv")
    value = float(rows[7][1])           # an arbitrary q1 sample
    assert f"{value:.17g}" == rows[7][1]


def test_run_parse_error_exit_1(write_scenario, capsys):
    path = write_scenario(hamiltonian="q1 + ")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1, column" in err


def test_run_unknown_field_exit_1(write_scenario, capsys):
    path = write_scenario(typo=1)
    assert main(["run", str(path)]) == 1
    assert "unknown scenario field" in capsys.readouterr().err


def test_run_complex_structural_exit_1(write_scenario, capsys):
    path = write_scenario(structural="i * q1")
    assert main(["run", str(path)]) == 1
    assert "real-valued" in capsys.readouterr().err


def test_run_missing_file_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_blow_up_exit_2(write_scenario, capsys):
    path = write_scenario(
        hamiltonian="q1 * p1", structural="0",
        initial={"q": [1.0], "p": [1.0]},
        stepper={"step": 1e-3, "t_end": 20.0, "max_norm": 1e3})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "t=" in err and "blow-up" in err


def test_run_several_scenarios_in_order(write_scenario, capsys):
    a = write_scenario(name="a.json", stepper={"step": 1e-2, "t_end": 0.5})
    b = write_scenario(name="b.json", stepper={"step": 1e-2, "t_end": 0.5},
                       outputs={"csv": "b.csv", "summary": "b_sum.json"})
    assert main(["run", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.index(str(a)) < out.index(str(b))
    assert (a.parent / "a_trajectory.csv").exists()
    assert (a.parent / "b.csv").exists()


def test_run_jobs_fan_out(write_scenario, capsys):
    a = write_scenario(name="a.json", stepper={"step": 1e-2, "t_end": 0.5})
    b = write_scenario(name="b.json", stepper={"step": 1e-2, "t_end": 0.5})
    assert main(["run", "--jobs", "2", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.index(str(a)) < out.index(str(b))
    assert (a.parent / "a_trajectory.csv").exists()
    assert (a.parent / "b_trajectory.csv").exists()


def test_run_jobs_propagates_worst_exit_code(write_scenario, capsys):
    good = write_scenario(name="good.json",
                          stepper={"step": 1e-2, "t_end": 0.5})
    bad = write_scenario(name="bad.json", hamiltonian="q1 +")
    assert main(["run", "--jobs", "2", str(good), str(bad)]) == 1
    out = capsys.readouterr()
    assert str(good) in out.out      # success goes to stdout
    assert str(bad) in out.err       # failures go to stderr


def test_run_domain_error_at_start_exit_4(write_scenario, capsys):
    path = write_scenario(hamiltonian="p1^2/2 + 1/q1", structural="0",
                          initial={"q": [0.0], "p": [1.0]})
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "division by zero at t=0" in err


def test_run_domain_error_mid_run_names_t(write_scenario):
    # the second RK4 stage lands exactly on q1 = 0.005, where H is singular
    path = write_scenario(hamiltonian="p1^2/2 + 1/(q1 - 0.005)", structural="0",
                          initial={"q": [0.0], "p": [1.0]},
                          stepper={"step": 0.01, "t_end": 0.1})
    rc, message = run_one_scenario(path)   # what --jobs workers call
    assert rc == 4
    assert message == f"{path}: error: division by zero at t=0.005"


def test_bracket_domain_error_exit_4(write_scenario, capsys):
    path = write_scenario()
    assert main(["bracket", "-f", "1/q1", "-g", "p1", "--at", "0,1",
                 str(path)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "division by zero" in err


def _no_scalar_walk(*args):
    raise fields._Fallback


def test_run_outputs_do_not_depend_on_the_scalar_walk(tmp_path, monkeypatch, capsys):
    # single-point jets of real-form fields come from the scalar walk; with
    # it removed every jet is batched, and the files must not change a byte
    paths = [Path(shutil.copy(src, tmp_path)) for src in sorted(SCENARIOS.glob("*.json"))]
    coupled = {
        "n": 3,
        "hamiltonian": ("(q1^2 + p1^2 + q2^2 + p2^2 + q3^2 + p3^2) / 2"
                        " + 0.031 * q1^2 * q2^2 - 0.027 * q2^2 * q3^2"
                        " + 0.044 * q1 * q3 * p2^2 - 0.012 * p1^2 * p3^2"),
        "structural": ("0.03 * q1 - 0.02 * p2 + 0.041 * q3 * p1"
                       " - 0.015 * q2^2 + 0.05 * p3^3"),
        "observables": {"zc": "z1 * conj(z2)", "r": "q1 * p3 + q2^2"},
        "initial": {"q": [0.4, -0.3, 0.5], "p": [-0.2, 0.55, 0.1]},
        "stepper": {"method": "rk4", "step": 1e-3, "t_end": 0.3},
    }
    paths.append(tmp_path / "coupled.json")
    paths[-1].write_text(json.dumps(coupled))

    def outputs():
        assert main(["run", *map(str, paths)]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                if p.suffix in (".csv", ".json") and p not in paths}

    walks = []
    scalar_jet = fields._scalar_jet
    monkeypatch.setattr(fields, "_scalar_jet",
                        lambda *args: walks.append(1) or scalar_jet(*args))
    walked = outputs()
    assert walks
    monkeypatch.setattr(fields, "_scalar_jet", _no_scalar_walk)
    batched = outputs()
    capsys.readouterr()
    assert len(walked) == 2 * len(paths)
    assert walked == batched


# ---------------------------------------------------------------------------
# bracket


def test_bracket_reference_values(write_scenario, capsys):
    path = write_scenario()
    rc = main(["bracket", "-f", "z1", "-g", "conj(z1)",
               "--at", "1,2", str(path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    values = {}
    for line in lines:
        name, pair = line.split(": ")
        re_s, im_s = pair.split(",")
        values[name] = complex(float(re_s), float(im_s))
    assert set(values) == {"pb_complex", "geobracket", "gspb", "gspb_real"}
    assert values["pb_complex"] == pytest.approx(-2j, abs=1e-14)
    assert values["geobracket"] == pytest.approx(-2j, abs=1e-13)
    assert values["gspb"] == pytest.approx(-4j, abs=1e-13)
    assert values["gspb_real"] == pytest.approx(-4j, abs=1e-13)


def test_bracket_defaults_to_scenario_initial(write_scenario, capsys):
    path = write_scenario()
    assert main(["bracket", "-f", "q1", "-g", "p1", str(path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("pb_complex: 1,")


def test_bracket_identical_arguments_vanish(write_scenario, capsys):
    path = write_scenario()
    assert main(["bracket", "-f", "z1", "-g", "z1", str(path)]) == 0
    for line in capsys.readouterr().out.splitlines():
        _, pair = line.split(": ")
        re_s, im_s = pair.split(",")
        assert float(re_s) == 0.0 and float(im_s) == 0.0


def test_bracket_without_structure_matches_pb(write_scenario, capsys):
    path = write_scenario(structural="0")
    assert main(["bracket", "-f", "z1", "-g", "conj(z1)", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = {line.split(": ")[0]: line.split(": ")[1] for line in lines}
    assert pairs["gspb"] == pairs["pb_complex"]


def test_bracket_bad_point_count(write_scenario, capsys):
    path = write_scenario()
    rc = main(["bracket", "-f", "q1", "-g", "p1", "--at", "1,2,3", str(path)])
    assert rc == 1
    assert "--at needs 2" in capsys.readouterr().err


def test_bracket_parse_error(write_scenario, capsys):
    path = write_scenario()
    rc = main(["bracket", "-f", "q1 +", "-g", "p1", str(path)])
    assert rc == 1
    assert "line 1, column" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check


def test_check_passes_and_reports(write_scenario, capsys):
    path = write_scenario()
    assert main(["check", "--seed", "7", "--count", "50", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "invariants passed (seed=7, count=50)" in out


def test_check_is_byte_deterministic(write_scenario, capsys):
    path = write_scenario()
    reports = []
    for _ in range(2):
        assert main(["check", "--seed", "42", "--count", "50", str(path)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_check_failure_exit_3(write_scenario, capsys, monkeypatch):
    def rigged(system, seed, count, initial=None):
        return [InvariantResult("rigged.identity", 1.0, 1e-12)]

    monkeypatch.setattr("gchs.cli.run_invariant_suite", rigged)
    path = write_scenario()
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL rigged.identity" in out
    assert "0/1 invariants passed" in out


def test_check_complex_structural_exit_1(write_scenario, capsys):
    path = write_scenario(structural="i * q1")
    assert main(["check", str(path)]) == 1
    assert "real-valued" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage and logging


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_debug_logging_goes_to_stderr(write_scenario):
    path = write_scenario(stepper={"method": "rk45", "t_end": 0.5})
    env = dict(os.environ, GCHS_LOG="debug")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gchs.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", str(path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "DEBUG" in proc.stderr
    assert "DEBUG" not in proc.stdout


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "gchs.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "bracket" in proc.stdout
