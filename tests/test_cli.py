"""Command line behaviour: exit codes, file outputs, determinism."""

import concurrent.futures
import json
import logging
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gchs import DomainError, InvariantResult, Trajectory, cli, fields, integrate
from gchs.cli import main, run_one_scenario, write_summary_json

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


@pytest.mark.parametrize("name, rhs_calls", [
    ("oscillator.json", 4 * 6284),   # 6283 steps of 1e-3, then the rest to 2 pi
    ("structural.json", 4 * 2000),
])
def test_summary_counts_the_right_hand_sides(tmp_path, capsys, name, rhs_calls):
    path = Path(shutil.copy(SCENARIOS / name, tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / f"{path.stem}_summary.json").read_text())
    assert summary["rhs_calls"] == rhs_calls


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


def test_run_hamiltonian_of_1100_terms(write_scenario, capsys):
    terms = " + ".join(f"{k * 1e-6!r} * q1^2" for k in range(1, 1101))
    path = write_scenario(hamiltonian=f"(q1^2 + p1^2) / 2 + {terms}",
                          stepper={"step": 1e-2, "t_end": 0.1})
    assert main(["run", str(path)]) == 0
    assert "11 samples" in capsys.readouterr().out


def test_run_deeply_nested_parentheses_exit_1(write_scenario, capsys):
    path = write_scenario(hamiltonian="(" * 1200 + "q1" + ")" * 1200)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "hamiltonian: line 1, column" in err and "nests too deeply" in err


def test_run_missing_file_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_run_infinite_horizon_exit_1(write_scenario, capsys):
    # json reads the bare token Infinity as a float
    path = write_scenario(stepper={"step": 1e-3, "t_end": float("inf")})
    assert "Infinity" in path.read_text()
    assert main(["run", str(path)]) == 1
    assert "stepper: t_end must be finite" in capsys.readouterr().err


def test_run_step_count_overflow_exit_1(write_scenario, capsys):
    path = write_scenario(stepper={"step": 1e-310, "t_end": 1e10})
    assert main(["run", str(path)]) == 1
    assert "stepper: t_end / step must be finite" in capsys.readouterr().err


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


SHORT = {"step": 1e-2, "t_end": 0.05}


def _one_error_line(err: str, *parts: str):
    assert err.count("\n") == 1 and "Traceback" not in err
    for part in parts:
        assert part in err


def test_run_a_directory_exits_1_naming_it(tmp_path, capsys):
    folder = tmp_path / "scenario.json"
    folder.mkdir()
    assert main(["run", str(folder)]) == 1
    _one_error_line(capsys.readouterr().err,
                    f"{folder}: error: cannot read scenario file {folder}: ")


def test_run_output_in_a_missing_directory_exits_1_naming_it(write_scenario, capsys):
    path = write_scenario(outputs={"csv": "nodir/x.csv"}, stepper=SHORT)
    csv = path.parent / "nodir" / "x.csv"
    assert main(["run", str(path)]) == 1
    _one_error_line(capsys.readouterr().err, f"{path}: error: cannot write {csv}: ")
    # a worker of --jobs reports it the same way
    good = write_scenario(name="good.json", stepper=SHORT)
    assert main(["run", "--jobs", "2", str(path), str(good)]) == 1
    out = capsys.readouterr()
    _one_error_line(out.err, f"{path}: error: cannot write {csv}: ")
    assert str(good) in out.out


def test_os_errors_exit_1_without_a_traceback(tmp_path, write_scenario):
    folder = tmp_path / "folder"
    folder.mkdir()
    missing = write_scenario(outputs={"summary": "nodir/s.json"}, stepper=SHORT)
    for path in (folder, missing):
        proc = subprocess.run([sys.executable, "-m", "gchs.cli", "run", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        _one_error_line(proc.stderr, str(path))


@pytest.mark.parametrize("outputs, message", [
    ({"csv": "out.txt", "summary": "out.txt"},
     "outputs: the CSV and the summary are one file: "),
    ({"csv": "./sub/../out.txt", "summary": "out.txt"},
     "outputs: the CSV and the summary are one file: "),
    ({"csv": "scenario.json"}, "outputs.csv is the scenario file itself: "),
    ({"summary": "scenario.json"}, "outputs.summary is the scenario file itself: "),
])
def test_run_refuses_outputs_that_overwrite_each_other(write_scenario, capsys,
                                                       outputs, message):
    (write_scenario().parent / "sub").mkdir()
    path = write_scenario(outputs=outputs, stepper=SHORT)
    text = path.read_text()
    assert main(["run", str(path)]) == 1
    _one_error_line(capsys.readouterr().err, f"{path}: error: {message}")
    assert path.read_text() == text
    assert sorted(p.name for p in path.parent.iterdir()) == ["scenario.json", "sub"]


def test_run_refuses_an_output_linked_to_the_scenario(write_scenario, capsys):
    path = write_scenario(outputs={"csv": "link.csv"}, stepper=SHORT)
    (path.parent / "link.csv").symlink_to(path.name)
    text = path.read_text()
    assert main(["run", str(path)]) == 1
    _one_error_line(capsys.readouterr().err,
                    f"{path}: error: outputs.csv is the scenario file itself: ")
    assert path.read_text() == text


def test_run_refuses_existing_outputs_that_are_one_file(write_scenario, capsys):
    # outputs of an earlier run: compared as the files they are
    path = write_scenario(outputs={"csv": "out.csv", "summary": "sum.json"}, stepper=SHORT)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    (path.parent / "sum.json").unlink()
    os.link(path.parent / "out.csv", path.parent / "sum.json")
    assert main(["run", str(path)]) == 1
    _one_error_line(capsys.readouterr().err,
                    f"{path}: error: outputs: the CSV and the summary are one file: ")


@pytest.mark.parametrize("value", [3, None, ["a.csv"]])
def test_run_refuses_an_output_that_is_no_path(write_scenario, capsys, value):
    path = write_scenario(outputs={"csv": value}, stepper=SHORT)
    assert main(["run", str(path)]) == 1
    _one_error_line(capsys.readouterr().err,
                    f"{path}: error: outputs.csv must be a path string")


def test_run_refuses_scenarios_that_write_one_file(write_scenario, capsys):
    e1 = write_scenario(name="e1.json", outputs={"csv": "shared.csv"}, stepper=SHORT)
    e2 = write_scenario(name="e2.json", outputs={"csv": "shared.csv"}, stepper=SHORT)
    for argv in (["run", str(e1), str(e2)], ["run", "--jobs", "2", str(e1), str(e2)]):
        assert main(argv) == 1
        _one_error_line(capsys.readouterr().err,
                        f"error: {e1} and {e2} both write {e1.parent / 'shared.csv'}")
        # refused before anything ran
        assert sorted(p.name for p in e1.parent.iterdir()) == ["e1.json", "e2.json"]
    # one scenario twice writes its files twice
    assert main(["run", str(e1), str(e1)]) == 1
    _one_error_line(capsys.readouterr().err, f"error: {e1} and {e1} both write ")


def test_run_refuses_scenarios_whose_outputs_are_hard_links(write_scenario, capsys):
    # a.csv and b.csv are two names of one file
    a = write_scenario(name="a.json", outputs={"csv": "a.csv", "summary": "a_sum.json"},
                       stepper=SHORT)
    b = write_scenario(name="b.json", outputs={"csv": "b.csv", "summary": "b_sum.json"},
                       stepper=SHORT)
    (a.parent / "a.csv").write_text("kept\n")
    os.link(a.parent / "a.csv", a.parent / "b.csv")
    for argv in (["run", str(a), str(b)], ["run", "--jobs", "2", str(a), str(b)]):
        assert main(argv) == 1
        _one_error_line(capsys.readouterr().err,
                        f"error: {a} writes {a.parent / 'a.csv'} and {b} writes "
                        f"{b.parent / 'b.csv'}, one file")
        # refused before anything ran
        assert sorted(p.name for p in a.parent.iterdir()) == [
            "a.csv", "a.json", "b.csv", "b.json"]
        assert (a.parent / "a.csv").read_text() == "kept\n"


def test_run_refuses_an_output_that_is_another_scenario(write_scenario, capsys):
    e2 = write_scenario(name="e2.json", stepper=SHORT)
    e1 = write_scenario(name="e1.json", outputs={"summary": "e2.json"}, stepper=SHORT)
    text = e2.read_text()
    assert main(["run", str(e1), str(e2)]) == 1
    _one_error_line(capsys.readouterr().err,
                    f"error: {e1} writes {e1.parent / 'e2.json'}, the scenario file {e2}")
    assert e2.read_text() == text
    # alone, e1 is a valid scenario
    assert main(["run", str(e1)]) == 0


@pytest.fixture
def pool_sizes(monkeypatch):
    """Put a recorder of max_workers in place of ProcessPoolExecutor; it
    runs the work inline, so no test starts a pool of the asked size."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


@pytest.mark.parametrize("jobs, files, sizes", [
    ("100000", 2, [2]), ("3", 5, [3]), ("8", 1, []), ("1", 3, [])])
def test_run_jobs_capped_at_the_file_count(write_scenario, capsys, pool_sizes,
                                          jobs, files, sizes):
    paths = [str(write_scenario(name=f"s{k}.json", stepper={"step": 0.1, "t_end": 0.2}))
             for k in range(files)]
    assert main(["run", "--jobs", jobs, *paths]) == 0
    assert pool_sizes == sizes
    assert capsys.readouterr().out.count("samples") == files


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_jobs_below_one_is_usage_error(write_scenario, capsys, pool_sizes, jobs):
    path = write_scenario()
    assert main(["run", "--jobs", jobs, str(path), str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: argument --jobs: must be at least 1")
    assert pool_sizes == []


def test_run_step_underflow_exit_2_names_t(write_scenario, capsys):
    # dq/dt = 1/q from q = 1 reaches the singularity q = sqrt(1 - 2t) at
    # t = 0.5, where the adaptive step shrinks below its floor
    path = write_scenario(hamiltonian="-p1/q1", structural="0",
                          initial={"q": [1.0], "p": [0.0]},
                          stepper={"method": "rk45", "t_end": 1.0})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "adaptive step size underflowed" in err and err.endswith("at t=0.5\n")


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


def test_run_nan_state_exits_4_naming_t(write_scenario):
    # exp(300)^3 overflows, so H is inf - inf = NaN from the first point on;
    # no guard may let that through to the outputs
    path = write_scenario(hamiltonian="exp(q1)^3 - exp(q1)^3 + p1^2/2",
                          structural="0", initial={"q": [300.0], "p": [0.5]},
                          stepper={"step": 0.01, "t_end": 0.05})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, message = run_one_scenario(path)
    assert rc == 4
    assert message == f"{path}: error: flow velocity is not finite at t=0"
    assert not list(path.parent.glob("*_summary.json"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the same through the command line: the message and nothing else
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from gchs.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 4
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == f"{message}\n"


def test_run_complex_hamiltonian_along_the_run_exits_1(write_scenario):
    # log of a negative q1: H is 0.125 + i pi, while the velocity is real
    # (s = 0 and dH is real), so only the energy monitor sees it
    path = write_scenario(hamiltonian="log(q1) + p1^2/2", structural="0",
                          initial={"q": [-1.0], "p": [0.5]},
                          stepper={"step": 0.01, "t_end": 0.1})
    rc, message = run_one_scenario(path)
    assert rc == 1
    assert message == (f"{path}: error: Hamiltonian came out complex (|imag| up to "
                       "3.142e+00); H and s must be real-valued fields at t=0")
    assert [p.name for p in path.parent.iterdir()] == [path.name]


@pytest.mark.parametrize("doc, t", [
    # 1 / p1 at the initial point p1 = 0
    ({"hamiltonian": "(q1^2 + p1^2) / 2", "structural": "0.1 * q1",
      "observables": {"r": "1 / p1"}, "initial": {"q": [0.5], "p": [0.0]},
      "stepper": {"method": "rk4", "step": 0.01, "t_end": 0.05}}, "0"),
    # q1 = t reaches 0.5 exactly at the second recorded sample
    ({"hamiltonian": "p1", "structural": "0",
      "observables": {"r": "1 / (q1 - 0.5)"}, "initial": {"q": [0.0], "p": [0.0]},
      "stepper": {"step": 0.25, "t_end": 1.0}}, "0.5"),
])
def test_run_observable_domain_error_names_t(write_scenario, doc, t):
    # the march succeeds; the monitor pass over its samples raises
    path = write_scenario(**doc)
    rc, message = run_one_scenario(path)
    assert rc == 4
    assert message == f"{path}: error: division by zero at t={t}"
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_run_complex_velocity_mid_run_names_t(write_scenario):
    # q1 * log(q1) turns complex once q1 crosses zero, at an RK4 stage
    path = write_scenario(hamiltonian="p1^2/2 + q1*log(q1)", structural="0.1*q1",
                          initial={"q": [0.05], "p": [-1.0]},
                          stepper={"step": 0.01, "t_end": 0.2})
    rc, message = run_one_scenario(path)
    assert rc == 1
    assert message == (f"{path}: error: flow velocity came out complex (|imag| up to "
                       "3.141e+00); H and s must be real-valued fields at t=0.055")


def test_summary_json_refuses_non_finite_values(tmp_path):
    traj = Trajectory("tghs", 1, np.array([0.0, 0.1]), np.zeros((2, 2)),
                      energy=np.array([1.0, np.nan]))
    out = tmp_path / "x_summary.json"
    with pytest.raises(DomainError, match="summary value is not finite"):
        write_summary_json(out, SimpleNamespace(path=tmp_path / "x.json"), traj)
    assert not out.exists()


def test_bracket_domain_error_exit_4(write_scenario, capsys):
    path = write_scenario()
    assert main(["bracket", "-f", "1/q1", "-g", "p1", "--at", "0,1",
                 str(path)]) == 4
    err = capsys.readouterr().err
    assert str(path) in err and "division by zero" in err


def test_run_outputs_do_not_depend_on_the_scalar_walk(tmp_path, monkeypatch, capsys,
                                                      coupled):
    # the flow velocity and single-point jets of real-form fields come
    # from float code; with it removed every jet comes from the array
    # code, and the files must not change a byte
    paths = [Path(shutil.copy(src, tmp_path)) for src in sorted(SCENARIOS.glob("*.json"))]
    paths.append(tmp_path / "coupled.json")
    paths[-1].write_text(json.dumps(coupled))

    def outputs():
        assert main(["run", *map(str, paths)]) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())
                if p.suffix in (".csv", ".json") and p not in paths}

    walks = []
    float_jet = fields._float_jet
    monkeypatch.setattr(fields, "_float_jet",
                        lambda *args: walks.append(float_jet(*args)) or walks[-1])
    velocity_kernel = integrate.velocity_kernel

    def walked_kernel(sys):
        fn = velocity_kernel(sys)

        def kernel(*x):
            # a velocity counts as a walk, a guard that fired as None
            out = fn(*x)
            walks.append(out if type(out) is tuple else None)
            return out
        return kernel if fn else None

    monkeypatch.setattr(integrate, "velocity_kernel", walked_kernel)
    walked = outputs()
    assert any(jet is not None for jet in walks)
    monkeypatch.setattr(fields, "_float_jet", lambda *args: None)
    monkeypatch.setattr(integrate, "velocity_kernel", lambda sys: None)
    arrays = outputs()
    capsys.readouterr()
    assert len(walked) == 2 * len(paths)
    assert walked == arrays


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


def test_second_check_builds_no_code(write_scenario, capsys, code_builds):
    # every field of the suite comes from a store: the parsed texts, and
    # the two linear combinations of the same draws
    path = write_scenario()
    assert main(["check", "--seed", "7", "--count", "50", str(path)]) == 0
    combined = [(order, kind) for f, order, kind in code_builds
                if type(f.root) is fields.Add and type(f.root.left) is fields.Mul]
    assert combined == [(1, "array")] * 2
    code_builds.clear()
    assert main(["check", "--seed", "7", "--count", "50", str(path)]) == 0
    assert code_builds == []


def test_check_failure_exit_3(write_scenario, capsys, monkeypatch):
    def rigged(system, seed, count, initial=None):
        return [InvariantResult("rigged.identity", 1.0, 1e-12)]

    monkeypatch.setattr("gchs.cli.run_invariant_suite", rigged)
    path = write_scenario()
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL rigged.identity" in out
    assert "0/1 invariants passed" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_count_below_one_is_usage_error(write_scenario, capsys, count):
    path = write_scenario()
    assert main(["check", "--count", count, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --count: must be at least 1")


def test_check_negative_seed_is_usage_error(write_scenario, capsys):
    path = write_scenario()
    assert main(["check", "--seed", "-1", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: argument --seed: must be at least 0, got -1\n"


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


@pytest.fixture
def parser_builds(monkeypatch):
    """The top-level parsers built from now on (subcommand parsers aside)."""
    builds = []
    init = cli._ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "gchs":
            builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    yield builds
    cli._build_parser.cache_clear()


def test_main_builds_the_argument_parser_once(write_scenario, capsys, parser_builds):
    path = write_scenario()
    assert main(["check", "--seed", "3", "--count", "5", str(path)]) == 0
    # a usage error on a later call still exits 1 with its message
    assert main(["check", "--count", "0", str(path)]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage error: argument --count: must be at least 1" in err
    assert "usage error: argument command: invalid choice: 'frobnicate'" in err
    assert len(parser_builds) == 1


@pytest.mark.parametrize("argv", [[], ["run"], ["bracket"], ["check"]])
def test_help_text_is_that_of_a_newly_built_parser(capsys, parser_builds, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            main([*argv, "--help"])
        assert done.value.code == 0
        texts.append(capsys.readouterr().out)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args([*argv, "--help"])
    assert texts == [capsys.readouterr().out] * 2
    assert texts[0].startswith(f"usage: gchs {argv[0] + ' ' if argv else ''}[-h]")
    assert len(parser_builds) == 2   # the cached parser and the new one


def _run_with_debug_log(path):
    env = dict(os.environ, GCHS_LOG="debug")
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from gchs.cli import main; sys.exit(main(sys.argv[1:]))",
         "run", str(path)],
        capture_output=True, text=True, env=env)


def test_debug_logging_goes_to_stderr(write_scenario):
    proc = _run_with_debug_log(write_scenario(stepper={"method": "rk45", "t_end": 0.5}))
    assert proc.returncode == 0
    assert "DEBUG" in proc.stderr
    assert "DEBUG" not in proc.stdout


def test_debug_log_prints_hamiltonian_of_1100_terms(write_scenario):
    # the debug lines print H, whose tree nests deeper than Python's recursion limit
    terms = " + ".join(f"{k * 1e-6!r} * q1^2" for k in range(1, 1101))
    path = write_scenario(hamiltonian=f"(q1^2 + p1^2) / 2 + {terms}",
                          stepper={"step": 1e-2, "t_end": 0.1})
    proc = _run_with_debug_log(path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert f"{1100 * 1e-6!r} * q1^2" in proc.stderr


def test_check_reports_the_same_bytes_on_one_cpu_and_on_all():
    # 5000 points are 3 blocks: one process with one usable CPU, two or
    # three without the restriction
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip(f"{len(cpus) or 'no'} usable CPU(s): nothing to compare")
    argv = [sys.executable, "-m", "gchs.cli", "check", "--seed", "42", "--count", "5000",
            str(SCENARIOS / "structural.json")]

    def one_cpu():   # runs in the child before it executes: this process only
        os.sched_setaffinity(0, cpus[:1])

    runs = [subprocess.run(argv, capture_output=True, text=True, preexec_fn=preexec,
                           env=dict(os.environ, GCHS_LOG=level))
            for preexec, level in ((one_cpu, "info"), (None, "info"), (None, "error"))]
    assert [run.returncode for run in runs] == [0, 0, 0]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert "3 blocks, 1 processes" in runs[0].stderr
    assert f"3 blocks, {min(3, len(cpus))} processes" in runs[1].stderr
    assert runs[2].stderr == ""


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "gchs.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "bracket" in proc.stdout


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _python(code, *args, **env):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, **env))


@pytest.mark.skipif(sys.platform != "linux" or not _glibc(), reason="glibc on Linux only")
def test_a_second_check_in_one_process_keeps_its_blocks_memory(write_scenario, coupled):
    # 16384 points are 8 blocks on one process; with glibc's default
    # thresholds each block of this n=3 system hands its arrays back to
    # the OS, and the next block faults them in again (about 25k minor
    # faults per call)
    code = (
        "import contextlib, io, resource, sys\n"
        "from gchs import checks, cli\n"
        "checks._processes = lambda blocks: 1\n"
        "argv = ['check', '--count', '16384', sys.argv[1]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert cli.main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    proc = _python(code, str(write_scenario(**coupled)))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) < 1000


def test_check_reports_the_same_bytes_with_the_allocator_left_alone():
    # neither the thresholds nor the children's malloc_trim change a bit
    argv = ["check", "--seed", "42", "--count", "20000", str(SCENARIOS / "structural.json")]
    runs = [_python(f"import sys; from gchs import checks, cli; {patch}"
                    "sys.exit(cli.main(sys.argv[1:]))", *argv)
            for patch in ("", "cli._keep_freed_memory = lambda: None; ",
                          "checks._heap_trim = lambda: None; ")]
    assert [run.returncode for run in runs] == [0, 0, 0]
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert runs[0].stdout.endswith("28/28 invariants passed (seed=42, count=20000)\n")


def _fake_mallopt(monkeypatch, confstr, result):
    """Calls of mallopt through ctypes, which returns result; no real one runs."""
    import ctypes

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    if confstr is None:
        monkeypatch.delattr(os, "confstr", raising=False)
    else:
        monkeypatch.setattr(os, "confstr", confstr, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls


def test_mallopt_sets_both_thresholds_and_logs_a_refusal(monkeypatch, caplog):
    calls = _fake_mallopt(monkeypatch, lambda name: "glibc 2.36", 0)
    caplog.set_level(logging.DEBUG, logger="gchs.cli")
    cli._keep_freed_memory.__wrapped__()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.DEBUG, "mallopt(M_MMAP_THRESHOLD, 33554432) refused"),
        (logging.DEBUG, "mallopt(M_TRIM_THRESHOLD, 67108864) refused")]


def _unknown_name(name):
    raise ValueError("unrecognized configuration name")


def _no_value(name):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("confstr", [None, _unknown_name, _no_value, lambda name: None],
                         ids=["no_confstr", "unknown_name", "einval", "unset"])
def test_mallopt_is_left_alone_without_glibc(monkeypatch, caplog, confstr):
    calls = _fake_mallopt(monkeypatch, confstr, 1)
    caplog.set_level(logging.DEBUG, logger="gchs.cli")
    cli._keep_freed_memory.__wrapped__()
    assert calls == []
    assert not caplog.records


def test_check_at_a_count_beyond_any_memory_exits_1():
    # 2^59 points are 4 EiB of inputs, more than any address space holds,
    # so the allocation fails before anything is touched
    count = str(2 ** 59)
    proc = subprocess.run([sys.executable, "-m", "gchs.cli", "check", "--count", count,
                           str(SCENARIOS / "structural.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: Unable to allocate 4.00 EiB")
    assert count in line
