"""Scenario files: strict loading, defaults, and failure messages."""

import json

import pytest

from gchs import RealnessError, ScenarioError, load_scenario
from gchs.cli import main


def test_load_minimal(write_scenario):
    path = write_scenario(observables={"z": "z1"})
    sc = load_scenario(path)
    assert sc.n == 1
    assert sc.initial.q[0] == 0.5 and sc.initial.p[0] == 0.5
    assert sc.stepper.method == "rk4"
    assert sc.stepper.t_end == 2.0
    system = sc.system()
    assert system.n == 1
    assert set(sc.observable_fields()) == {"z"}


def test_output_paths_default_to_scenario_stem(write_scenario):
    path = write_scenario(name="myrun.json")
    sc = load_scenario(path)
    assert sc.csv_path == path.parent / "myrun_trajectory.csv"
    assert sc.summary_path == path.parent / "myrun_summary.json"


def test_output_paths_resolve_against_scenario_dir(write_scenario):
    path = write_scenario(outputs={"csv": "out/t.csv", "summary": "s.json"})
    sc = load_scenario(path)
    assert sc.csv_path == path.parent / "out/t.csv"
    assert sc.summary_path == path.parent / "s.json"


def test_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/no/such/scenario.json")


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "hamiltonian": }')
    with pytest.raises(ScenarioError, match=r"line 2, column"):
        load_scenario(path)


def test_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError, match="object"):
        load_scenario(path)


def test_unknown_top_level_field(write_scenario):
    with pytest.raises(ScenarioError, match="unknown scenario field.*extra"):
        load_scenario(write_scenario(extra=1))


def test_unknown_stepper_field(write_scenario):
    path = write_scenario(stepper={"step": 1e-3, "dt": 0.1})
    with pytest.raises(ScenarioError, match="unknown stepper field.*dt"):
        load_scenario(path)


def test_unknown_initial_field(write_scenario):
    path = write_scenario(initial={"q": [0.5], "p": [0.5], "v": [1.0]})
    with pytest.raises(ScenarioError, match="unknown initial field.*v"):
        load_scenario(path)


def test_unknown_outputs_field(write_scenario):
    path = write_scenario(outputs={"csv": "a.csv", "plot": "a.png"})
    with pytest.raises(ScenarioError, match="unknown outputs field.*plot"):
        load_scenario(path)


def test_missing_required_fields(write_scenario):
    with pytest.raises(ScenarioError, match="missing scenario field.*initial"):
        load_scenario(write_scenario(initial=None))


@pytest.mark.parametrize("n", [0, -1, 1.5, "2", True])
def test_bad_n(write_scenario, n):
    with pytest.raises(ScenarioError, match="n must be"):
        load_scenario(write_scenario(n=n))


def test_non_string_expression(write_scenario):
    with pytest.raises(ScenarioError, match="hamiltonian"):
        load_scenario(write_scenario(hamiltonian=42))


def test_expression_error_names_location(write_scenario):
    path = write_scenario(hamiltonian="q1 +")
    with pytest.raises(ScenarioError, match="hamiltonian.*line 1, column"):
        load_scenario(path)


def test_observable_error_names_observable(write_scenario):
    path = write_scenario(observables={"bad": "q9"})
    with pytest.raises(ScenarioError, match="observables.bad"):
        load_scenario(path)


@pytest.mark.parametrize("observables, name, column", [
    ({"t": "q1"}, "t", "t"),
    ({"q1": "p1"}, "q1", "q1"),
    ({"p1": "q1"}, "p1", "p1"),
    ({"H": "q1"}, "H", "H"),
    ({"w": "q1"}, "w", "w"),
    ({"a": "q1", "a_residual": "p1"}, "a_residual", "a_residual"),
    ({"a_residual": "q1", "a": "p1"}, "a", "a_residual"),
])
def test_observable_columns_must_not_repeat_a_csv_column(write_scenario, observables,
                                                         name, column):
    path = write_scenario(observables=observables)
    with pytest.raises(ScenarioError, match=f"^observable '{name}': the CSV already "
                                            f"has a column '{column}'$"):
        load_scenario(path)
    assert main(["run", str(path)]) == 1


def test_observable_may_be_named_like_a_coordinate_beyond_n(write_scenario):
    # n = 1: the CSV has no q2 column
    sc = load_scenario(write_scenario(observables={"q2": "q1", "H_": "p1"}))
    assert set(sc.observables) == {"q2", "H_"}


def test_bad_observable_name(write_scenario):
    path = write_scenario(observables={"no spaces": "q1"})
    with pytest.raises(ScenarioError, match="identifier"):
        load_scenario(path)


@pytest.mark.parametrize("initial", [
    {"q": [0.5]},                       # p missing
    {"q": [0.5, 0.5], "p": [0.5]},      # wrong length
    {"q": [0.5], "p": ["x"]},           # not a number
    {"q": [0.5], "p": [float("nan")]},  # serialized as the NaN literal
])
def test_bad_initial(write_scenario, initial):
    with pytest.raises(ScenarioError, match="initial"):
        load_scenario(write_scenario(initial=initial))


def test_non_integer_stride(write_scenario):
    path = write_scenario(stepper={"stride": 2.0})
    with pytest.raises(ScenarioError, match="stride"):
        load_scenario(path)


def test_boolean_stride(write_scenario):
    # JSON true is a bool, which StepperConfig refuses as a stride
    path = write_scenario(stepper={"stride": True})
    assert '"stride": true' in path.read_text()
    with pytest.raises(ScenarioError,
                       match="^stepper: stride must be a positive integer$"):
        load_scenario(path)


@pytest.mark.parametrize("key", ["step", "abs_tol", "rel_tol", "t_end", "max_norm"])
@pytest.mark.parametrize("value", [True, False, "0.01", "1"])
def test_boolean_or_string_stepper_number(write_scenario, key, value):
    # float() takes both, but JSON true and "0.01" are no numbers
    path = write_scenario(stepper={key: value})
    with pytest.raises(ScenarioError, match=f"^stepper: {key} must be a number$"):
        load_scenario(path)


@pytest.mark.parametrize("name", ["q", "p"])
@pytest.mark.parametrize("value", [True, False, "0.25", "1"])
def test_boolean_or_string_initial_coordinate(write_scenario, name, value):
    initial = {"q": [0.5], "p": [0.5]}
    initial[name] = [value]
    with pytest.raises(ScenarioError,
                       match=f"^initial.{name} must contain only numbers$"):
        load_scenario(write_scenario(initial=initial))


def test_integer_numbers_are_numbers(write_scenario):
    sc = load_scenario(write_scenario(initial={"q": [1], "p": [0]},
                                      stepper={"step": 1, "t_end": 2}))
    assert sc.initial.q[0] == 1.0 and sc.stepper.step == 1.0
    assert type(sc.stepper.step) is float and type(sc.stepper.t_end) is float


@pytest.mark.parametrize("doc, message", [
    ({"stepper": {"step": 10 ** 400}}, "^stepper: step must be within the float range$"),
    ({"initial": {"q": [-10 ** 400], "p": [0.5]}}, "^initial.q must contain only numbers$"),
])
def test_integer_beyond_the_float_range_is_refused(write_scenario, doc, message):
    # float() raises OverflowError on it
    with pytest.raises(ScenarioError, match=message):
        load_scenario(write_scenario(**doc))


def test_bad_stepper_value(write_scenario):
    path = write_scenario(stepper={"step": -1.0})
    with pytest.raises(ScenarioError, match="stepper"):
        load_scenario(path)


def test_complex_structural_function_fails_at_load(write_scenario):
    path = write_scenario(structural="i * q1")
    with pytest.raises(RealnessError, match="real"):
        load_scenario(path)


def test_scenario_roundtrip_through_json(write_scenario):
    # the file the fixture writes is plain JSON with only known fields
    path = write_scenario()
    doc = json.loads(path.read_text())
    assert set(doc) <= {"n", "hamiltonian", "structural", "observables",
                        "initial", "stepper", "outputs"}
