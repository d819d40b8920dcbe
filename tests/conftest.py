"""Shared fixtures: small reference systems and scenario-file helpers."""

import json

import numpy as np
import pytest

from gchs import PhasePoint, StructuredSystem, brackets, dynamics, fields, parse_field


@pytest.fixture(autouse=True)
def fresh_store():
    """Empty the process-wide stores of parsed fields and of linear
    combinations (and so the velocity kernels and point memos kept on
    their code) before each test, as in a new process.  A test that
    checks a first build (its log line, its one compile()) or refuses
    compile() then neither sees nor leaves behind code that another test
    built from the same text."""
    fields._parsed.cache_clear()
    fields._combinations.clear()


@pytest.fixture
def code_builds(monkeypatch):
    """The (field, order, kind) of every generated code built from now on."""
    builds = []
    init = fields._Code.__init__

    def counted(self, f, order, kind):
        builds.append((f, order, kind))
        init(self, f, order, kind)

    monkeypatch.setattr(fields._Code, "__init__", counted)
    return builds


@pytest.fixture
def wirtinger_splits(monkeypatch):
    """The real gradients' q halves, one per Wirtinger pair that fields
    derives from now on (a call of fields.wirtinger_from_real)."""
    splits = []
    split = fields.wirtinger_from_real

    def counted(dq, dp):
        splits.append(dq)
        return split(dq, dp)

    monkeypatch.setattr(fields, "wirtinger_from_real", counted)
    return splits


@pytest.fixture
def kernel_runs(monkeypatch):
    """The (kernel name, first jet, second jet) of every run of a kernel
    that keeps its results per pair of jets (fields._memoized), from now
    on: a call its memo answers does not run the kernel's body."""
    runs = []
    for kernel in (brackets.pb_complex_jets, brackets.structural_derivative_jets,
                   brackets.sdyn_jets, dynamics.tghs_zdot_jets, dynamics.tghs_zbardot_jets,
                   dynamics.flow_gradient_jets):
        def counted(a, b, name=kernel.__name__, body=kernel.__wrapped__):
            runs.append((name, a, b))
            return body(a, b)

        monkeypatch.setattr(kernel, "__wrapped__", counted)
    return runs


@pytest.fixture
def flow_builds(monkeypatch):
    """The (H jet, s jet) of every flow gradient that dynamics computes
    from now on (a run of the body of dynamics.flow_gradient_jets, which
    the memo on H's jet skips)."""
    builds = []
    build = dynamics.flow_gradient_jets.__wrapped__

    def counted(Hj2, sj2):
        builds.append((Hj2, sj2))
        return build(Hj2, sj2)

    monkeypatch.setattr(dynamics.flow_gradient_jets, "__wrapped__", counted)
    return builds


@pytest.fixture
def oscillator():
    """Classical harmonic oscillator: H = (q^2 + p^2)/2, no structure."""
    return StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                            parse_field("0", 1))


@pytest.fixture
def structured():
    """The oscillator Hamiltonian with structural function s = q1."""
    return StructuredSystem(1, parse_field("(q1^2 + p1^2) / 2", 1),
                            parse_field("q1", 1))


@pytest.fixture
def pt12():
    """The reference point (q, p) = (1, 2), i.e. z = 1 + 2i."""
    return PhasePoint(np.array([1.0]), np.array([2.0]))


BASE_SCENARIO = {
    "n": 1,
    "hamiltonian": "(q1^2 + p1^2) / 2",
    "structural": "q1",
    "initial": {"q": [0.5], "p": [0.5]},
    "stepper": {"method": "rk4", "step": 1e-3, "t_end": 2.0},
}


@pytest.fixture
def coupled():
    """A scenario of three coupled degrees with a small structural s."""
    return {
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


@pytest.fixture
def write_scenario(tmp_path):
    """Write a scenario JSON file into tmp_path and return its path.

    Keyword overrides replace top-level fields; a value of None removes
    the field entirely.
    """

    def _write(name="scenario.json", **overrides):
        doc = json.loads(json.dumps(BASE_SCENARIO))
        for key, value in overrides.items():
            if value is None:
                doc.pop(key, None)
            else:
                doc[key] = value
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return path

    return _write
