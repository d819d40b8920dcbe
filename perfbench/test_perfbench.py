"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run the workloads on small inputs and check behaviour only:
deterministic counts, byte-identical outputs with and without the
tracer, failure accounting and the refusal to run without sources.
Timings are never asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload as W  # noqa: E402  (puts the checkout's src on the path)
from tracer import PER_LAYER, Tracer, _gchs_modules, layer_metrics  # noqa: E402

import gchs  # noqa: E402
from gchs.errors import ConsistencyError  # noqa: E402

COUNTS = ("integrate.steps", "integrate.rhs_calls",
          "brackets.gspb_jets.calls", "brackets.sdyn_jets.calls",
          *(f"fields.eval_jet.o{k}.{b}.calls" for k in (0, 1, 2) for b in ("m1", "batch")))


def small(name: str, tmp: Path, seed: int = 7):
    """The workload with its default inputs, but a small ``invariants`` count."""
    if name == "invariants":
        return W.Invariants(seed, tmp, count=500)
    return W.WORKLOADS[name](seed, tmp)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_counts_repeat_between_traced_runs(name, tmp_path):
    runs = []
    for k in range(2):
        d = tmp_path / str(k)
        d.mkdir()
        _, failed, metrics = W.run_traced(small(name, d), 0.0)
        assert failed == 0
        runs.append({key: metrics[key] for key in COUNTS})
    assert runs[0] == runs[1]
    counts = runs[0]
    assert counts["integrate.rhs_calls"] == 4 * counts["integrate.steps"]
    if name == "trajectory":
        assert counts["integrate.steps"] == 100
        # one order-1 evaluation of H and one of s per right-hand side
        assert counts["fields.eval_jet.o1.m1.calls"] == 2 * counts["integrate.rhs_calls"]
    if name == "invariants":
        assert counts["integrate.steps"] > 0
        assert counts["brackets.gspb_jets.calls"] > 0
        assert counts["fields.eval_jet.o2.batch.calls"] > 0
    if name == "point_queries":
        assert counts["integrate.steps"] == 0
        assert counts["fields.eval_jet.o2.m1.calls"] > 0


def test_traced_and_untraced_outputs_identical(tmp_path):
    traj = small("trajectory", tmp_path)
    inv = small("invariants", tmp_path)

    def outputs():
        rc_run, _ = W._cli(["run", str(traj.scenario)])
        rc_check, report = W._cli(inv.argv)
        assert rc_run == 0 and rc_check == 0
        return traj.csv.read_bytes(), traj.summary.read_bytes(), report

    plain = outputs()
    with Tracer() as tracer:
        traced = outputs()
    assert tracer.spans
    assert traced == plain


def test_tracer_finds_bindings_by_identity_and_restores_them():
    before = {(m.__name__, k): v for m in _gchs_modules() for k, v in vars(m).items()}
    original = gchs.fields.eval_jet
    with Tracer():
        wrapped = gchs.fields.eval_jet
        assert wrapped is not original and wrapped.__wrapped__ is original
        # bound by `from .fields import eval_jet` in other modules
        assert gchs.brackets.eval_jet is wrapped
        assert gchs.integrate.eval_jet is wrapped
        # re-exported in the package namespace
        assert gchs.gspb is gchs.brackets.gspb
        assert gchs.gspb is not gchs.gspb.__wrapped__
    after = {(m.__name__, k): v for m in _gchs_modules() for k, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_failures_are_counted_not_fatal(tmp_path, monkeypatch):
    wl = small("point_queries", tmp_path)
    monkeypatch.setattr(gchs, "gspb_real", lambda *a: complex("nan"))
    _, failed = W.run_ops(wl, 0.0)
    assert failed == 1

    def broken(*args):
        raise ConsistencyError("injected")

    monkeypatch.setattr(gchs, "beta", broken)
    durations, failed = W.run_ops(wl, 0.0)
    assert (len(durations), failed) == (1, 1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(W.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert run.WORKLOADS == tuple(W.WORKLOADS)
    names = set(layer_metrics([], 1)) | {"trace.overhead_pct"}
    assert names == {name for name, _ in PER_LAYER}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
