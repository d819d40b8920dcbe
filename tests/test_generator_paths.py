"""Generator and parser paths that only these tests reach: powers 0 and 1,
a literal exp above 709 in a real-form field, the outer product of two
complex literals, and the parser's errors through the CLI.

Where float, point or batch code applies, its jets equal the array
code's at zero tolerance."""

import numpy as np
import pytest
from test_fields import _array_jet, _equals_dense, _same_jets

from gchs import parse_field
from gchs.cli import main
from gchs.fields import _code_for, eval_jet

POINT = np.array([[0.3]]), np.array([[-0.7]])
BATCH = np.array([[0.3, -1.25, 2.0]]), np.array([[-0.7, 0.5, 0.0]])


def _kinds(f, order):
    # the kinds eval_jet runs before the array code, where f has them
    return {kind for kind in (("float", "batch") if f.is_real_form else ("point",))
            if _code_for(f, order, kind) is not None}


def _equal_array_code(f, order):
    for Q, P in (POINT, BATCH):
        _same_jets(eval_jet(f, Q, P, order=order), _array_jet(f, Q, P, order))


@pytest.mark.parametrize("text, kinds", [
    ("q1^0", {"float", "batch"}),
    ("q1^1", {"float", "batch"}),
    ("q1^0 * p1 + q1^1 * p1^2 - (q1 + p1)^1", {"float", "batch"}),
    ("z1^0 + z1^1 * conj(z1) - (2 * z1)^1", {"point"}),
])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_powers_zero_and_one(text, kinds, order):
    f = parse_field(text, 1)
    assert _kinds(f, order) == kinds
    _equal_array_code(f, order)
    _equals_dense(f, *BATCH, order)
    if text == "q1^0":
        jet = eval_jet(f, *BATCH, order=order)
        assert jet.val.tolist() == [1.0] * 3
        assert not np.any(jet.grad) if order else jet.grad is None


@pytest.mark.parametrize("text", ["q1 + 1 / exp(1000)", "p1 * sin(exp(709.5)) + q1"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_literal_exp_above_709_leaves_the_field_to_the_array_code(text, order):
    # math.exp would overflow at 1000 and round unlike numpy at 709.5; the
    # tape folds each literal exp as the array code computes it, so the
    # float and batch code use the array code's literal
    f = parse_field(text, 1)
    assert _kinds(f, order) == {"float", "batch"}
    with np.errstate(all="ignore"):
        folded = np.exp(np.array([1000.0 if "1000" in text else 709.5], dtype=complex))
    literal = 1 / folded[0] if "1000" in text else np.sin(folded)[0]
    assert literal.imag == 0
    if literal.real:
        assert repr(float(literal.real)) in _code_for(f, order, "float").source
    _equal_array_code(f, order)
    _equals_dense(f, *BATCH, order)
    if text.startswith("q1 +"):
        # 1 / exp(1000) folds to 0 in the array code: the field is q1
        jet = eval_jet(f, *BATCH, order=order)
        assert jet.val.tolist() == BATCH[0][0].tolist()
        if order:
            assert jet.grad.tolist() == [[1.0] * 3, [0.0] * 3]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_outer_product_of_two_complex_literals(order):
    # the Hessian of (a q1)(b q1) is the product of the gradients' literals
    a, b = 0.1 + 0.7j, 0.3 + 0.9j
    f = parse_field("((0.1 + 0.7 * i) * q1) * ((0.3 + 0.9 * i) * q1)", 1)
    assert _kinds(f, order) == {"point"}
    _equal_array_code(f, order)
    _equals_dense(f, *BATCH, order)
    if order == 2:
        textbook = complex(a.real * b.real - a.imag * b.imag,
                           a.real * b.imag + a.imag * b.real)
        jet = eval_jet(f, *POINT, order=2)
        assert jet.hess[0, 0, 0] == 2 * textbook


@pytest.mark.parametrize("text, where, message", [
    ("q1 $ p1", "line 1, column 4", "unexpected character '$'"),
    ("sin q1", "line 1, column 5", "expected '(' after 'sin'"),
    ("q1 +\\n  exp q1", "line 2, column 7", "expected '(' after 'exp'"),
    ("(q1 + p1", "line 1, column 9", "expected ')'"),
    ("2 * sin(q1", "line 1, column 11", "expected ')'"),
])
def test_parser_errors_exit_1_with_line_and_column(text, where, message,
                                                   write_scenario, capsys):
    text = text.replace("\\n", "\n")
    path = write_scenario(hamiltonian=text)
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}: error: hamiltonian: {where}: {message}\n"
    assert main(["bracket", "-f", text, "-g", "p1", str(write_scenario(name="ok.json"))]) == 1
    assert capsys.readouterr().err == f"error: -f: {where}: {message}\n"
