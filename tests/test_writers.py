"""Every kind of generated code is written from one tape per field and
order (fields._Emitter, fields._Writer).

The float and batch writers rest on one numpy fact, checked here for
each operation by name: with zero imaginary parts, numpy's complex
arithmetic rounds like the float operation below it.  A seeded fuzz
then checks every writer against the array code on random trees, and
the tape is emitted once per field and order whatever the kinds built
from it."""

import math
import operator

import numpy as np
import pytest
from test_fields import _array_jet, _same_jets

from gchs import fields, parse_field
from gchs.errors import DomainError
from gchs.fields import _float_jet, eval_jet

# ---------------------------------------------------------------------------
# the writers' premise

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 1.3e154, -1.3e154,
            1.0, -1.0, 0.5, 3.0]


def _draws(rng, m=3000):
    # every magnitude, either sign, with ±0, subnormals and values near overflow
    x = rng.uniform(-2, 2, m) * 10.0 ** rng.integers(-320, 308, m)
    x[:len(_SPECIAL)] = _SPECIAL
    return x


def _chain(v: float, k: int) -> float:
    # the float writer's v ** k: binary exponentiation, one over it for k < 0;
    # NaN where a product is not finite or 1 / 0 would be taken
    e, acc, sq = abs(k), None, v
    while e:
        if e & 1:
            acc = sq if acc is None else acc * sq
        e >>= 1
        if e:
            sq = sq * sq
        if not (math.isfinite(sq) and (acc is None or math.isfinite(acc))):
            return math.nan
    return acc if k > 0 else 1.0 / acc if acc else math.nan


def _reciprocal_product(a: float, b: float) -> float:
    return a * (1.0 / b) if b and math.isfinite(b) else math.nan


#: the float code's operation and the array code's on complex arrays
_OPERATIONS = {"+": (operator.add, operator.add), "-": (operator.sub, operator.sub),
               "*": (operator.mul, operator.mul), "/": (_reciprocal_product, operator.truediv),
               "neg": (operator.neg, operator.neg), "sin": (math.sin, np.sin),
               "cos": (math.cos, np.cos), "exp": (math.exp, np.exp)}


def _signed_zeros(x: np.ndarray, rng) -> np.ndarray:
    # x as complex, each imaginary part a zero of either sign (a literal
    # of the tape, or a product of negative numbers, has -0)
    z = x.astype(complex)
    z.imag = np.copysign(0.0, rng.choice([-1.0, 1.0], x.size))
    return z


def _same_bits(name, args, want, got):
    # every finite float result equals numpy's real part in every bit, up
    # to the sign of an exact zero
    got = got.real.copy()
    bad = np.flatnonzero(np.isfinite(want) & (want.view(np.uint64) != got.view(np.uint64))
                         & ((want != 0) | (got != 0)))
    assert bad.size == 0, (f"{name}: {bad.size} draws differ, first at "
                           f"{tuple(x[bad[0]] for x in args)}: {want[bad[0]]!r} "
                           f"against {got[bad[0]]!r}")


@pytest.mark.parametrize("name", list(_OPERATIONS))
def test_each_float_operation_equals_numpys_complex_one(name):
    # the float code's Python operation against the batch code's on float64
    # arrays, the array code's on (m,) arrays and the tape's fold on (1,)
    # arrays: the failing operation names itself
    fn, complex_fn = _OPERATIONS[name]
    rng = np.random.default_rng(32)
    a, b = _draws(rng), np.roll(_draws(rng), 7)
    if name == "exp":   # the float writers guard exp's argument at 709
        a = np.concatenate([a[np.abs(a) <= 709.0], rng.uniform(-745.0, 709.0, 3000), [709.0]])
    args = (a,) if name in ("neg", "sin", "cos", "exp") else (a, b)
    with np.errstate(all="ignore"):
        want = np.array([fn(*xs) for xs in zip(*(x.tolist() for x in args))])
        if name not in ("sin", "cos", "exp"):   # batch code takes numpy's complex ones
            _same_bits(f"{name} on float64 arrays", args, want,
                       a * (1.0 / b) if name == "/" else complex_fn(*args))
        wide = [_signed_zeros(x, rng) for x in args]
        _same_bits(f"{name} on (m,) complex arrays", args, want, complex_fn(*wide))
        folded = np.concatenate([complex_fn(*(x[k:k + 1] for x in wide)) for k in range(a.size)])
        _same_bits(f"{name} on (1,) complex arrays", args, want, folded)


def test_the_power_chain_equals_numpys_complex_power_for_every_exponent():
    rng = np.random.default_rng(33)
    v = _draws(rng, 400)
    with np.errstate(all="ignore"):
        for k in (*range(-99, 0), *range(2, 100)):   # the tape leaves out v^0 and v^1
            want = np.array([_chain(x, k) for x in v.tolist()])
            V = _signed_zeros(v, rng)
            _same_bits(f"power {k} on (m,) complex arrays", (v,), want, V ** k)
            _same_bits(f"power {k} on (1,) complex arrays", (v,), want,
                       np.concatenate([V[j:j + 1] ** k for j in range(v.size)]))


# ---------------------------------------------------------------------------
# every writer against the array code

_LEAVES = ["q1", "p1", "q2", "p2", "z1", "z2", "i", "0", "(-0.0)", "1e308", "0.5", "2.5", "3"]
_FUNCTIONS = ["sin", "cos", "exp", "log", "conj"]
_EXPONENTS = [-3, -2, -1, 2, 3, 4, 7, 101]


def _tree(rng, depth: int) -> str:
    """A random text over the README grammar."""
    if depth == 0 or rng.uniform() < 0.25:
        return _LEAVES[rng.integers(len(_LEAVES))]
    shape = rng.integers(4)
    if shape == 0:
        return f"{_FUNCTIONS[rng.integers(len(_FUNCTIONS))]}({_tree(rng, depth - 1)})"
    if shape == 1:
        return f"({_tree(rng, depth - 1)})^{_EXPONENTS[rng.integers(len(_EXPONENTS))]}"
    op = "+-*/"[rng.integers(4)]
    return f"({_tree(rng, depth - 1)} {op} {_tree(rng, depth - 1)})"


# seven points with ±0, a subnormal and 1e200 among their coordinates
_Q = np.array([[0.5, 0.0, -0.0, 5e-324, 1e200, -1.25, 2.0],
               [-0.75, 1.5, 0.0, -0.0, 0.25, 1e200, 5e-324]])
_P = np.array([[0.25, -0.0, 0.0, 1.0, -0.5, 0.0, -2.0],
               [1.0, 5e-324, -0.0, 0.75, 1e200, -0.0, 0.5]])


def _outcome(evaluate):
    try:
        return evaluate()
    except DomainError as e:
        return str(e)


def _same(got, want, what):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want, what
    else:
        try:
            _same_jets(got, want)   # up to the sign of a zero, NaN equal to NaN
        except AssertionError as e:
            raise AssertionError(what) from e


def test_every_writer_equals_the_array_code_on_random_trees():
    rng = np.random.default_rng(2032)
    ran = {"float": 0, "point": 0, "batch": 0}
    with np.errstate(all="ignore"):
        for _ in range(300):
            text = _tree(rng, int(rng.integers(1, 5)))
            f = parse_field(text, 2)
            for order in (0, 1, 2):
                for k in range(_Q.shape[1]):
                    Q, P = _Q[:, k:k + 1], _P[:, k:k + 1]
                    want = _outcome(lambda: _array_jet(f, Q, P, order))
                    got = _float_jet(f, Q, P, order, None)
                    if got is not None:
                        ran["float" if f.is_real_form else "point"] += 1
                        _same(got, want, f"{text} at point {k}, order {order}")
                    _same(_outcome(lambda: eval_jet(f, Q, P, order=order)), want,
                          f"eval_jet of {text} at point {k}, order {order}")
                if f.is_real_form:
                    want = _outcome(lambda: _array_jet(f, _Q, _P, order))
                    got = _float_jet(f, _Q, _P, order, None)
                    if got is not None:
                        ran["batch"] += 1
                        _same(got, want, f"batch of {text} at order {order}")
    assert min(ran.values()) > 0, ran


@pytest.mark.parametrize("text", ["q1 / log(-2)", "p1 * log(-2) + q1", "q1 / (2 + log(-1))"])
def test_a_real_form_field_with_a_complex_literal_has_no_float_code(text):
    # log of a negative literal folds to a complex literal: the float and
    # batch writers refuse it, and the array code computes the field
    f = parse_field(text, 1)
    assert f.is_real_form
    Q, P = np.array([[0.5, -1.5]]), np.array([[0.25, 2.0]])
    for order in (0, 1, 2):
        for m in (1, 2):
            got = eval_jet(f, Q[:, :m], P[:, :m], order=order)
            assert got.val.dtype == complex and got.val[0].imag != 0
            _same_jets(got, _array_jet(f, Q[:, :m], P[:, :m], order))
        assert fields._code_for(f, order, "float") is None
        assert fields._code_for(f, order, "batch") is None


# ---------------------------------------------------------------------------
# one tape per field and order


@pytest.fixture
def emissions(monkeypatch):
    """The (order, root) of every tape emitted from now on."""
    trees = []
    tree = fields._Emitter.tree

    def counted(em, root):
        trees.append((em.order, root))
        return tree(em, root)

    monkeypatch.setattr(fields._Emitter, "tree", counted)
    return trees


def test_a_field_at_a_point_and_over_a_batch_emits_once_per_order(emissions):
    real = parse_field("q1^2 * p1 - sin(q1) / (2 + p1^2)", 1)
    complex_ = parse_field("z1 * conj(z1) + i * q1^3", 1)
    for f, kinds in ((real, {"float", "batch"}), (complex_, {"point", "array"})):
        emissions.clear()
        for order in (0, 1, 2):
            for m in (1, 3, 1, 3):
                eval_jet(f, np.full((1, m), 0.5), np.full((1, m), 0.25), order=order)
        assert emissions == [(order, f.root) for order in (0, 1, 2)]
        assert {kind for kind, _ in f._code.codes} == kinds
        assert sorted(f._code.tapes) == [0, 1, 2]
