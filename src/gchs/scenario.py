"""Scenario files: strict JSON description of one run.

A scenario names the phase space, the two structural fields, named
observables, the initial point, the stepper settings and output paths.
Validation is fail fast: unknown keys anywhere are errors, as are
malformed expressions (reported with line and column) and non-finite
numbers.  Relative output paths resolve against the scenario file's
directory so a scenario bundle is relocatable; the two outputs must be
two files, neither of them the scenario file.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .brackets import StructuredSystem
from .errors import ExpressionError, ScenarioError
from .fields import ScalarField, parse_field
from .integrate import StepperConfig
from .phasespace import PhasePoint

_TOP_KEYS = {"n", "hamiltonian", "structural", "observables",
             "initial", "stepper", "outputs"}
_REQUIRED = {"n", "hamiltonian", "structural", "initial"}
_STEPPER_KEYS = {f.name for f in fields(StepperConfig)}
_OUTPUT_KEYS = {"csv", "summary"}
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
_COORD_RE = re.compile(r"[qp]([1-9][0-9]*)\Z")


@dataclass(frozen=True, eq=False)
class Scenario:
    path: Path
    n: int
    hamiltonian: str
    structural: str
    observables: dict[str, str]
    initial: PhasePoint
    stepper: StepperConfig
    csv_path: Path
    summary_path: Path
    # the expressions above, parsed once by load_scenario
    _system: StructuredSystem = field(repr=False)
    _observable_fields: dict[str, ScalarField] = field(repr=False)

    def system(self) -> StructuredSystem:
        return self._system

    def observable_fields(self) -> dict[str, ScalarField]:
        return dict(self._observable_fields)


def _parse(where: str, src: str, n: int) -> ScalarField:
    try:
        return parse_field(src, n)
    except ExpressionError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ScenarioError(f"unknown {where} field(s): {', '.join(unknown)}")


def _float(v) -> float:
    if type(v) not in (int, float):   # a bool is an int; float() reads strings
        raise TypeError(v)
    return float(v)


def _coords(raw, n: int, name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != n:
        raise ScenarioError(f"initial.{name} must be a list of {n} numbers")
    try:
        arr = np.array([_float(v) for v in raw])
    except (TypeError, OverflowError):
        raise ScenarioError(f"initial.{name} must contain only numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"initial.{name} must be finite")
    return arr


def _is_state_column(name: str, n: int) -> bool:
    """Whether name is one of the CSV's columns t, H, w, q1..qn, p1..pn
    (the length first: int() refuses thousands of digits)."""
    m = _COORD_RE.match(name)
    return name in ("t", "H", "w") or (
        m is not None and len(m[1]) <= len(str(n)) and int(m[1]) <= n)


def _file_key(path: Path):
    """What names one file: its (device, inode) where it exists (a rerun
    finds its outputs, and a hard link is one file), else its resolved
    path."""
    try:
        st = os.stat(path)
    except OSError:
        return path.resolve()
    return st.st_dev, st.st_ino


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except OSError as e:   # a directory, a file we may not read, ...
        raise ScenarioError(f"cannot read scenario file {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"invalid JSON in {path}: {e.msg} (line {e.lineno}, column {e.colno})"
        ) from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    _reject_unknown(raw, _TOP_KEYS, "scenario")
    missing = sorted(_REQUIRED - set(raw))
    if missing:
        raise ScenarioError(f"missing scenario field(s): {', '.join(missing)}")

    n = raw["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ScenarioError("n must be a positive integer")

    for key in ("hamiltonian", "structural"):
        if not isinstance(raw[key], str):
            raise ScenarioError(f"{key} must be an expression string")

    initial = raw["initial"]
    if not isinstance(initial, dict):
        raise ScenarioError("initial must be an object with q and p lists")
    _reject_unknown(initial, {"q", "p"}, "initial")
    if "q" not in initial or "p" not in initial:
        raise ScenarioError("initial needs both q and p")
    pt = PhasePoint(_coords(initial["q"], n, "q"), _coords(initial["p"], n, "p"))

    observables = raw.get("observables", {})
    if not isinstance(observables, dict):
        raise ScenarioError("observables must be an object of name: expression")
    taken = set()   # the observables' own columns so far
    for name, src in observables.items():
        if not _NAME_RE.match(name):
            raise ScenarioError(f"observable name {name!r} is not an identifier")
        if not isinstance(src, str):
            raise ScenarioError(f"observables.{name} must be an expression string")
        for column in (name, f"{name}_residual"):
            if column in taken or _is_state_column(column, n):
                raise ScenarioError(f"observable {name!r}: the CSV already has "
                                    f"a column {column!r}")
            taken.add(column)

    stepper_raw = raw.get("stepper", {})
    if not isinstance(stepper_raw, dict):
        raise ScenarioError("stepper must be an object")
    _reject_unknown(stepper_raw, _STEPPER_KEYS, "stepper")
    try:
        stepper = StepperConfig(**stepper_raw)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"stepper: {e}") from None

    outputs = raw.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ScenarioError("outputs must be an object")
    _reject_unknown(outputs, _OUTPUT_KEYS, "outputs")
    for key, value in outputs.items():
        if not isinstance(value, str):
            raise ScenarioError(f"outputs.{key} must be a path string")
    base = path.parent
    stem = path.stem
    csv_path = base / outputs.get("csv", f"{stem}_trajectory.csv")
    summary_path = base / outputs.get("summary", f"{stem}_summary.json")
    if _file_key(csv_path) == _file_key(summary_path):
        raise ScenarioError(f"outputs: the CSV and the summary are one file: {csv_path}")
    for key, out in (("csv", csv_path), ("summary", summary_path)):
        if _file_key(out) == _file_key(path):
            raise ScenarioError(f"outputs.{key} is the scenario file itself: {out}")

    # parse the expressions now so a bad scenario fails at load time
    system = StructuredSystem(n, _parse("hamiltonian", raw["hamiltonian"], n),
                              _parse("structural", raw["structural"], n))
    obs_fields = {name: _parse(f"observables.{name}", src, n)
                  for name, src in observables.items()}
    return Scenario(path=path, n=n, hamiltonian=raw["hamiltonian"],
                    structural=raw["structural"], observables=dict(observables),
                    initial=pt, stepper=stepper, csv_path=csv_path,
                    summary_path=summary_path, _system=system,
                    _observable_fields=obs_fields)
