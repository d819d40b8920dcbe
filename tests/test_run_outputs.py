"""gchs run's outputs: rewritten whole, the same bytes with telemetry on,
and the same result when a worker of --jobs dies."""

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from gchs import cli
from gchs.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHORT = {"step": 1e-2, "t_end": 0.5}


def _outputs(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())
            if p.name.endswith(("_trajectory.csv", "_summary.json"))}


def _copy_scenarios(folder: Path) -> list[str]:
    folder.mkdir()
    return [str(shutil.copy(p, folder)) for p in sorted(SCENARIOS.glob("*.json"))]


# ---------------------------------------------------------------------------
# writers


def test_a_longer_older_output_is_cut_to_the_new_bytes(write_scenario, capsys):
    path = write_scenario(stepper=SHORT)
    assert main(["run", str(path)]) == 0
    want = _outputs(path.parent)
    for name, data in want.items():
        (path.parent / name).write_bytes(b"x" * (3 * len(data)) + b"\n")
    assert main(["run", str(path)]) == 0
    assert _outputs(path.parent) == want
    capsys.readouterr()


def test_dev_null_as_an_output_exits_0(write_scenario, capsys):
    path = write_scenario(stepper=SHORT, outputs={"csv": os.devnull})
    assert main(["run", str(path)]) == 0
    assert "samples" in capsys.readouterr().out
    assert (path.parent / "scenario_summary.json").stat().st_size > 0


def test_an_output_in_a_missing_directory_exits_1(write_scenario, capsys):
    path = write_scenario(stepper=SHORT, outputs={"summary": "nodir/s.json"})
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (f"{path}: error: cannot write {path.parent / 'nodir' / 's.json'}: "
                   "No such file or directory\n")


# ---------------------------------------------------------------------------
# telemetry


def _run(args, level):
    return subprocess.run([sys.executable, "-m", "gchs.cli", "run", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, GCHS_LOG=level))


def test_info_log_gives_two_lines_per_scenario_and_the_same_bytes(tmp_path):
    runs = {}
    for level in ("error", "info"):
        folder = tmp_path / level
        paths = _copy_scenarios(folder)
        runs[level] = _run(paths, level), _outputs(folder)
    (quiet, quiet_files), (info, info_files) = runs["error"], runs["info"]
    assert quiet.returncode == info.returncode == 0
    assert info.stdout.replace(str(tmp_path / "info"), "") \
        == quiet.stdout.replace(str(tmp_path / "error"), "")
    assert info_files == quiet_files and len(info_files) == 4
    assert quiet.stderr == ""
    lines = info.stderr.splitlines()
    assert len(lines) == 4
    for k, (name, steps) in enumerate([("oscillator", 6284), ("structural", 2000)]):
        march, scenario = lines[2 * k:2 * k + 2]
        assert re.fullmatch(
            rf"INFO gchs\.integrate: tghs rk4: {steps} steps, {4 * steps} right-hand sides; "
            r"march [0-9.]+ ms, monitors [0-9.]+ ms", march), march
        assert re.fullmatch(
            rf"INFO \S+: \S+{name}\.json: "
            r"load [0-9.]+ ms, integrate [0-9.]+ ms, writers [0-9.]+ ms", scenario), scenario


def test_info_log_of_jobs_is_in_argument_order(tmp_path):
    # every scenario's lines are held and written in argument order, so
    # stderr is that of --jobs 1 whichever worker finishes first, with one
    # more line for the workers; the longer scenario comes first
    paths = _copy_scenarios(tmp_path / "run")
    want = _run(["--jobs", "1", *paths], "info")
    assert want.returncode == 0
    masked = re.sub(r"[0-9.]+ ms", "T ms", want.stderr)
    for _ in range(3):
        got = _run(["--jobs", "2", *paths], "info")
        assert got.returncode == 0 and got.stdout == want.stdout
        workers, rest = got.stderr.split("\n", 1)
        assert re.fullmatch(r"INFO \S+: running 2 scenarios on 2 workers", workers), workers
        assert re.sub(r"[0-9.]+ ms", "T ms", rest) == masked


# ---------------------------------------------------------------------------
# --jobs with a worker that dies


def test_scenarios_of_a_killed_worker_rerun_in_the_parent(tmp_path, capsys, monkeypatch):
    folder = tmp_path / "run"
    paths = _copy_scenarios(folder)
    assert main(["run", "--jobs", "1", *paths]) == 0
    sequential = capsys.readouterr(), _outputs(folder)
    for name in sequential[1]:
        (folder / name).unlink()

    parent, load = os.getpid(), cli.load_scenario

    def load_or_die(path):
        # forked workers inherit this binding; the parent is never killed
        if os.getpid() != parent and str(path).endswith("structural.json"):
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path)

    monkeypatch.setattr(cli, "load_scenario", load_or_die)
    assert main(["run", "--jobs", "2", *paths]) == 0
    assert capsys.readouterr() == sequential[0]
    assert _outputs(folder) == sequential[1]


def test_a_killed_worker_costs_the_other_no_second_run(write_scenario, tmp_path, capsys,
                                                       monkeypatch):
    # four scenarios on --jobs 2: this process runs s0 and s2, a child s1
    # and s3.  The child dies on s1 once s2 is done, and only its own two
    # scenarios run again here
    paths = [str(write_scenario(name=f"s{k}.json", stepper=SHORT)) for k in range(4)]
    assert main(["run", "--jobs", "1", *paths]) == 0
    sequential = capsys.readouterr(), _outputs(tmp_path)
    for name in sequential[1]:
        (tmp_path / name).unlink()

    ran, parent, run = tmp_path / "ran.log", os.getpid(), cli.run_one_scenario

    def finished():
        return ran.read_text().splitlines() if ran.exists() else []

    def run_and_log(path):
        # forked workers inherit this binding; the parent is never killed
        if os.getpid() != parent and path == paths[1]:
            deadline = time.monotonic() + 60
            while paths[2] not in finished() and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        outcome = run(path)
        with open(ran, "a") as fh:
            fh.write(path + "\n")
        return outcome

    monkeypatch.setattr(cli, "run_one_scenario", run_and_log)
    assert main(["run", "--jobs", "2", *paths]) == 0
    assert Counter(finished()) == Counter(paths)   # each once, s2 too
    assert capsys.readouterr() == sequential[0]
    assert _outputs(tmp_path) == sequential[1]
