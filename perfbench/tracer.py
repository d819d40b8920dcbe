"""Span tracer for the benchmark's traced run.

The tracer rebinds a fixed set of public gchs functions to timing
wrappers.  Each function is looked up once in the module that defines
it and then found by object identity in every loaded ``gchs.*`` module,
so a binding made by ``from .fields import eval_jet`` (or a re-export in
the package namespace) is wrapped wherever it lives.  Every original is
put back when the tracer exits.

A span is a list ``[name, start, end, parent, failed, info]``: ``parent``
is the index of the enclosing span (-1 at the top), ``failed`` is set when
the call raised, and ``info`` is what the function's probe read from its
arguments and result (batch size, derivative order, step count, ...).
Spans stay in memory; ``layer_metrics`` folds them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _eval_jet_info(args, kwargs, out):
    # eval_jet(f, Q, P, order=0, time=None) with Q of shape (n, m)
    order = args[3] if len(args) > 3 else kwargs.get("order", 0)
    m = np.shape(_arg(args, kwargs, 1, "Q"))[1]
    nbytes = sum(a.nbytes for a in (out.val, out.grad, out.hess) if a is not None)
    return (m, order, nbytes)


def _batch_info(args, kwargs, out):
    # every *_jets kernel takes a jet first; its value has shape (m,)
    return (np.shape(args[0].val)[-1],)


def _steps_info(args, kwargs, out):
    # a fixed-step march over [0, t_end] needs ceil(t_end / step) steps;
    # adaptive runs are not counted
    cfg = _arg(args, kwargs, 2, "cfg")
    steps = math.ceil(cfg.t_end / cfg.step - 1e-9) if cfg.method == "rk4" else 0
    return (None, steps)


def _csv_info(args, kwargs, out):
    path = _arg(args, kwargs, 0, "path")
    traj = _arg(args, kwargs, 1, "traj")
    return (None, traj.samples, os.path.getsize(path))


def _passed_info(args, kwargs, out):
    return (None, sum(r.passed for r in out))


#: defining module -> {public function: probe or None}
TARGETS = {
    "gchs.fields": {"parse_field": None, "eval_jet": _eval_jet_info},
    "gchs.brackets": {"gspb_jets": _batch_info, "sdyn_jets": _batch_info,
                      "gspb": None},
    "gchs.dynamics": {
        "real_velocity_jets": _batch_info, "tghs_zdot_jets": _batch_info,
        "tghs_zbardot_jets": _batch_info, "thorough_jets": _batch_info,
        "total_rate_jets": _batch_info, "acceleration_jets": _batch_info,
        "beta_jets": _batch_info, "gchs_rate": None, "s_dynamics": None,
        "beta": None, "covariant_acceleration": None,
    },
    "gchs.bridge": {"gspb_real": None, "cross_check": None},
    "gchs.integrate": {"integrate_tghs": _steps_info},
    "gchs.checks": {"run_invariant_suite": _passed_info},
    "gchs.scenario": {"load_scenario": None},
    "gchs.cli": {"main": None, "write_trajectory_csv": _csv_info,
                 "write_summary_json": None},
}

LAYERS = tuple(mod.split(".")[1] for mod in TARGETS)

NAME, START, END, PARENT, FAILED, INFO = range(6)


def _gchs_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gchs" or name.startswith("gchs."))]


class Tracer:
    """Context manager: wraps the TARGETS on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for modname in TARGETS:
            importlib.import_module(modname)
        modules = _gchs_modules()
        for modname, probes in TARGETS.items():
            home = sys.modules[modname]
            layer = modname.split(".")[1]
            for fname, probe in probes.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, probe):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[INFO] = probe(args, kwargs, out)
            return out

        return wrapper


#: every per-layer metric, in report order, with its unit
PER_LAYER = (
    [(f"{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"), ("failures", "count"))]
    + [
        ("fields.parse_field.calls", "count"),
        ("fields.parse_field.us", "us"),
        *[(f"fields.eval_jet.o{k}.{b}.calls", "count")
          for k in (0, 1, 2) for b in ("m1", "batch")],
        ("fields.eval_jet.o1.m1.us", "us"),
        ("fields.eval_jet.o2.m1.us", "us"),
        ("fields.eval_jet.o1.batch.ns_per_point", "ns"),
        ("fields.eval_jet.o2.batch.ns_per_point", "ns"),
        ("fields.eval_jet.batch.out_mb", "MB"),
        ("fields.eval_jet.self_s", "s"),
        ("brackets.gspb_jets.calls", "count"),
        ("brackets.gspb_jets.self_s", "s"),
        ("brackets.sdyn_jets.calls", "count"),
        ("brackets.sdyn_jets.self_s", "s"),
        ("brackets.gspb.us", "us"),
        ("dynamics.real_velocity_jets.calls", "count"),
        ("dynamics.real_velocity_jets.us", "us"),
        ("dynamics.acceleration_jets.self_s", "s"),
        ("dynamics.beta_jets.self_s", "s"),
        ("dynamics.gchs_rate.us", "us"),
        ("dynamics.s_dynamics.us", "us"),
        ("dynamics.beta.us", "us"),
        ("dynamics.covariant_acceleration.us", "us"),
        ("bridge.cross_check.s", "s"),
        ("bridge.gspb_real.us", "us"),
        ("integrate.steps", "count"),
        ("integrate.rhs_calls", "count"),
        ("integrate.monitor_s", "s"),
        ("integrate.integrate_tghs.s", "s"),
        ("checks.run_invariant_suite.s", "s"),
        ("checks.flow_s", "s"),
        ("checks.invariants_passed", "count"),
        ("scenario.load_scenario.s", "s"),
        ("cli.write_trajectory_csv.s", "s"),
        ("cli.csv_rows_per_s", "1/s"),
        ("cli.csv_bytes", "B"),
        ("cli.write_summary_json.s", "s"),
        ("trace.overhead_pct", "%"),
    ]
)


def _is_batch(span) -> bool:
    info = span[INFO]
    return info is not None and info[0] is not None and info[0] > 1


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Fold spans into per-layer values.

    Counts and times are per operation (spans / ops).  Failures are
    totals.  Means (``.us``, ``ns_per_point``, ``rows_per_s``) are over
    the calls that occurred and read 0 where there were none.  Self time
    is a span's duration minus the durations of its direct children;
    on one thread the children never overlap, so that is the time they
    cover.  ``trace.overhead_pct`` is left to the caller.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_t: defaultdict = defaultdict(float)
    fails: Counter = Counter()
    points: Counter = Counter()
    extra: Counter = Counter()
    monitor_s = flow_s = 0.0

    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        keys = [name, name.split(".")[0]]
        info = s[INFO]
        if name == "fields.eval_jet" and info is not None:
            m, order, nbytes = info
            key = f"fields.eval_jet.o{order}.{'m1' if m == 1 else 'batch'}"
            keys.append(key)
            points[key] += m
            if m > 1:
                extra["batch_bytes"] += nbytes
        elif info is not None and len(info) > 1:
            extra[name] += info[1]
            if name == "cli.write_trajectory_csv":
                extra["csv_bytes"] += info[2]
        for k in keys:
            calls[k] += 1
            total[k] += dur
            self_t[k] += dur - child_time[i]
            fails[k] += s[FAILED]

        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == "integrate.integrate_tghs":
            if name == "dynamics.real_velocity_jets":
                extra["rhs_calls"] += 1
            if _is_batch(s):
                monitor_s += dur
        if name == "integrate.integrate_tghs":
            while parent >= 0 and spans[parent][NAME] != "checks.run_invariant_suite":
                parent = spans[parent][PARENT]
            if parent >= 0:
                flow_s += dur

    def per_op(x):
        return x / ops

    def mean(key, scale):
        return total[key] / calls[key] * scale if calls[key] else 0.0

    def per_point(key):
        return total[key] / points[key] * 1e9 if points[key] else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per_op(calls[layer])
        out[f"{layer}.self_s"] = per_op(self_t[layer])
        out[f"{layer}.failures"] = fails[layer]
    out["fields.parse_field.calls"] = per_op(calls["fields.parse_field"])
    out["fields.parse_field.us"] = mean("fields.parse_field", 1e6)
    for k in (0, 1, 2):
        for b in ("m1", "batch"):
            key = f"fields.eval_jet.o{k}.{b}"
            out[f"{key}.calls"] = per_op(calls[key])
    out["fields.eval_jet.o1.m1.us"] = mean("fields.eval_jet.o1.m1", 1e6)
    out["fields.eval_jet.o2.m1.us"] = mean("fields.eval_jet.o2.m1", 1e6)
    out["fields.eval_jet.o1.batch.ns_per_point"] = per_point("fields.eval_jet.o1.batch")
    out["fields.eval_jet.o2.batch.ns_per_point"] = per_point("fields.eval_jet.o2.batch")
    out["fields.eval_jet.batch.out_mb"] = per_op(extra["batch_bytes"]) / 1e6
    out["fields.eval_jet.self_s"] = per_op(self_t["fields.eval_jet"])
    for kernel in ("gspb_jets", "sdyn_jets"):
        out[f"brackets.{kernel}.calls"] = per_op(calls[f"brackets.{kernel}"])
        out[f"brackets.{kernel}.self_s"] = per_op(self_t[f"brackets.{kernel}"])
    out["brackets.gspb.us"] = mean("brackets.gspb", 1e6)
    out["dynamics.real_velocity_jets.calls"] = per_op(calls["dynamics.real_velocity_jets"])
    out["dynamics.real_velocity_jets.us"] = mean("dynamics.real_velocity_jets", 1e6)
    out["dynamics.acceleration_jets.self_s"] = per_op(self_t["dynamics.acceleration_jets"])
    out["dynamics.beta_jets.self_s"] = per_op(self_t["dynamics.beta_jets"])
    for fn in ("gchs_rate", "s_dynamics", "beta", "covariant_acceleration"):
        out[f"dynamics.{fn}.us"] = mean(f"dynamics.{fn}", 1e6)
    out["bridge.cross_check.s"] = per_op(total["bridge.cross_check"])
    out["bridge.gspb_real.us"] = mean("bridge.gspb_real", 1e6)
    out["integrate.steps"] = per_op(extra["integrate.integrate_tghs"])
    out["integrate.rhs_calls"] = per_op(extra["rhs_calls"])
    out["integrate.monitor_s"] = per_op(monitor_s)
    out["integrate.integrate_tghs.s"] = per_op(total["integrate.integrate_tghs"])
    out["checks.run_invariant_suite.s"] = per_op(total["checks.run_invariant_suite"])
    out["checks.flow_s"] = per_op(flow_s)
    out["checks.invariants_passed"] = per_op(extra["checks.run_invariant_suite"])
    out["scenario.load_scenario.s"] = per_op(total["scenario.load_scenario"])
    out["cli.write_trajectory_csv.s"] = per_op(total["cli.write_trajectory_csv"])
    csv_time = total["cli.write_trajectory_csv"]
    out["cli.csv_rows_per_s"] = (extra["cli.write_trajectory_csv"] / csv_time
                                 if csv_time else 0.0)
    out["cli.csv_bytes"] = per_op(extra["csv_bytes"])
    out["cli.write_summary_json.s"] = per_op(total["cli.write_summary_json"])
    return out
