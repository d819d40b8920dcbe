"""Point code: complex fields at one point on Python numbers.

A field with i, z_j or conj runs at a single point on its point code,
which writes the array code's statements for Python scalars (see
fields._point_line).  It must return the array code's numbers up to the
sign of an exact zero, fall back to the array code wherever that would
raise or a guard fires, and leave every single-point answer unchanged.
"""

import gc
import struct
import weakref

import numpy as np
import pytest

import gchs
from gchs import PhasePoint, StructuredSystem, brackets, dynamics, fields, parse_field
from gchs.checks import random_polynomial, random_smooth_field
from gchs.cli import main
from gchs.errors import ConsistencyError, DomainError
from gchs.fields import _outer, _power, eval_jet, point_jets
from test_fields import _array_jet, _n6_system

FIXED_TEXTS = [
    "z1 * conj(z2)",
    "z1^2 - 0.5 * conj(z2)^3 + z2^-2",
    "(z1 + 2) / (3 + conj(z2))",
    "exp(z1) * sin(conj(z2)) - cos(z1 * z2)",
    "log(2 + z1 * conj(z2)) + log(z1 + 0.5 * i)",
    "i * q1 * p2^2 + z1^3 * p1 - (q2 + i)^-3",
    "conj(exp(i * q1)) / (1.5 + z2^2) + log(3 - i * p2)",
    "(2.5 + i) * z1 * z2 - (1 - 2 * i) * q1 / (2 + p2^2)",
]


def _point_out(f, Q, P, order):
    code = fields._code_for(f, order, "point")
    return code, code.fn(*Q[:, 0].tolist(), *P[:, 0].tolist(), 0.0)


def _equal_jets(got, want):
    # equal up to the sign of an exact zero (== treats -0.0 as 0.0)
    for slot in ("val", "grad", "hess"):
        g, w = getattr(got, slot), getattr(want, slot)
        assert (g is None) == (w is None)
        if g is not None:
            assert g.dtype == w.dtype == complex
            np.testing.assert_array_equal(g, w)


def _fields(rng):
    for n in (1, 2, 3, 4):
        for _ in range(4):
            yield random_polynomial(rng, n, complex_ok=True)
            yield random_smooth_field(rng, n, complex_ok=True)
    for text in FIXED_TEXTS:
        yield parse_field(text, 2)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_point_code_equals_the_array_code(order):
    rng = np.random.default_rng(24)
    ran = 0
    tried = 0
    for f in _fields(rng):
        if f.is_real_form:   # a random field need not draw i, z_j or conj
            continue
        tried += 12
        for _ in range(12):
            Q, P = rng.uniform(-1.5, 1.5, size=(2, f.n, 1))
            code, out = _point_out(f, Q, P, order)
            assert code is not None
            ran += type(out) is tuple
            _equal_jets(eval_jet(f, Q, P, order=order), _array_jet(f, Q, P, order))
    assert tried >= 12 * (16 + len(FIXED_TEXTS)) and ran > 0.9 * tried   # few fall back


@pytest.mark.parametrize("text, q, p, message", [
    ("1 / z1", [0.0], [0.0], "division by zero"),
    ("q1 / (z1 - q1 - i * p1)", [0.3], [0.7], "division by zero"),
    ("log(z1) + i", [0.0], [0.0], "log of zero"),
    ("z1^-2", [0.0], [0.0], "zero raised to a negative power"),
    ("conj(z1)^-3 * i", [0.0], [0.0], "zero raised to a negative power"),
])
def test_a_fallback_raises_the_array_codes_domain_error(text, q, p, message):
    f = parse_field(text, 1)
    Q, P = np.array([q]), np.array([p])
    for order in (0, 1, 2):
        code, out = _point_out(f, Q, P, order)
        assert type(out) is int and message in code.reasons[out]
        with pytest.raises(DomainError) as array_error:
            _array_jet(f, Q, P, order)
        assert str(array_error.value) == message
        with pytest.raises(DomainError) as error:
            eval_jet(f, Q, P, order=order)
        assert str(error.value) == message


@pytest.mark.parametrize("text, q, p, reason", [
    # exp(-inf) is finite: a guard hands a non-finite argument on
    ("exp(-z1^2 * 1e300) + q1", [1e10], [0.0], "non-finite argument of exp"),
    ("exp(800 * z1) * i", [1.0], [0.0], "non-finite result"),
    # on log's branch cut the sign of a zero imaginary part picks the branch
    ("log(-q1) + i", [0.5], [0.3], "log of a negative real number"),
    ("log(conj(z1) * (q1 - 2)) * i", [0.5], [0.0], "log of a negative real number"),
])
def test_a_guard_hands_the_point_to_the_array_code(text, q, p, reason):
    f = parse_field(text, 1)
    Q, P = np.array([q]), np.array([p])
    for order in (0, 1, 2):
        code, out = _point_out(f, Q, P, order)
        assert type(out) is int and code.reasons[out] == reason
        with np.errstate(all="ignore"):
            got, want = eval_jet(f, Q, P, order=order), _array_jet(f, Q, P, order)
        for slot in ("val", "grad", "hess"):
            g, w = getattr(got, slot), getattr(want, slot)
            if g is not None:
                assert g.tobytes() == w.tobytes()   # the array code's own bits



@pytest.mark.parametrize("text", ["log(i)", "1/i", "q1/(1+i)", "(i)^-2", "(0 / i)",
                                  "1/(0*i)"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_complex_literal_divisor_log_argument_or_power_base(text, order):
    # a guard on a complex literal is settled when the code is written; it
    # used to crash with a TypeError from math.isfinite at one point
    f = parse_field(text, 1)
    Q, P = np.array([[0.5]]), np.array([[0.5]])
    if text == "1/(0*i)":   # 0 * i folds to 0: the array code's error
        for evaluate_ in (eval_jet, _array_jet):
            with pytest.raises(DomainError, match="^division by zero$"):
                evaluate_(f, Q, P, order=order)
        return
    _equal_jets(eval_jet(f, Q, P, order=order), _array_jet(f, Q, P, order))
    _equal_jets(point_jets(PhasePoint([0.5], [0.5]), f, order=order)[0],
                _array_jet(f, Q, P, order))


def test_complex_literal_guards_at_one_point_through_the_api_and_the_cli(write_scenario,
                                                                        capsys):
    assert gchs.evaluate(parse_field("1/i", 1), PhasePoint([0.5], [0.5])) == -1j
    path = write_scenario()
    for text in ("log(i)", "1/i", "q1/(1+i)", "(i)^-2", "(0 / i)"):
        assert main(["bracket", "-f", text, "-g", "p1", "--at", "0.5,0.5", str(path)]) == 0
    assert main(["bracket", "-f", "1/(0*i)", "-g", "p1", "--at", "0.5,0.5", str(path)]) == 4
    assert capsys.readouterr().err.endswith("error: division by zero\n")

def test_a_numpy_error_in_point_code_hands_the_point_on():
    # under np.errstate(over="raise") numpy raises in the point code; the
    # array code then raises as it always did
    f = parse_field("exp(z1) * exp(z1 * i)", 1)
    Q, P = np.array([[400.0]]), np.array([[-400.0]])
    with np.errstate(over="raise", invalid="raise"):
        code, out = _point_out(f, Q, P, 0)
        assert type(out) is int and "FloatingPointError" in code.reasons[out]
        with pytest.raises(FloatingPointError):
            eval_jet(f, Q, P, order=0)


def _seven(sys_, f, g, pt):
    return (gchs.gspb(f, g, sys_, pt), gchs.gspb_real(f, g, sys_, pt),
            gchs.gspb(f, sys_.hamiltonian, sys_, pt), gchs.gchs_rate(f, sys_, pt).total,
            gchs.s_dynamics(sys_, pt), gchs.beta(sys_, pt),
            gchs.covariant_acceleration(f, sys_, pt))


def _bits(values):
    return b"".join(struct.pack("<dd", complex(v).real, complex(v).imag) for v in values)


def test_single_point_answers_do_not_depend_on_the_point_code(monkeypatch):
    sys_, f, g = _n6_system()
    rng = np.random.default_rng(61)
    points = [PhasePoint(q, p) for q, p in rng.uniform(-1, 1, size=(100, 2, 6))]
    with_point_code = [_bits(_seven(sys_, f, g, pt)) for pt in points]
    assert f._code.codes["point", 2] is not None and g._code.codes["point", 1] is not None

    float_jet = fields._float_jet
    monkeypatch.setattr(fields, "_float_jet",
                        lambda f, *args: float_jet(f, *args) if f.is_real_form else None)
    gchs.fields._parsed.cache_clear()
    sys_, f, g = _n6_system()
    assert [_bits(_seven(sys_, f, g, pt)) for pt in points] == with_point_code
    assert ("point", 1) not in f._code.codes


def test_bracket_command_does_not_depend_on_the_point_code(write_scenario, capsys,
                                                           monkeypatch):
    path = write_scenario(n=2, hamiltonian="(q1^2 + p1^2 + q2^2 + p2^2) / 2",
                          structural="0.1 * q1 * p2 - 0.2 * q2^2",
                          initial={"q": [0.3, -0.6], "p": [0.8, 0.1]})
    argv = ["bracket", "-f", "z1 * conj(z2) + i * q1^2", "-g",
            "exp(i * q2) * z2^2 / (2 + conj(z1))", "--at", "0.4,-0.7,0.25,0.9", str(path)]
    assert main(argv) == 0
    with_point_code = capsys.readouterr().out
    monkeypatch.setattr(fields, "_float_jet", lambda *args: None)
    assert main(argv) == 0
    assert capsys.readouterr().out == with_point_code


# ---------------------------------------------------------------------------
# the numpy facts point code relies on


def _draws(rng, m=2000):
    # complex values over many magnitudes, a few with a zero part
    z = (rng.uniform(-2, 2, m) * 10.0 ** rng.integers(-3, 4, m)
         + 1j * rng.uniform(-2, 2, m) * 10.0 ** rng.integers(-3, 4, m))
    z.real[::97] = 0.0
    z.imag[::89] = 0.0
    return z


def _scalars(a):
    return [complex(x) for x in a]


def _same_bits(scalars, array, what):
    got = np.array(scalars, dtype=complex)
    bad = np.flatnonzero(got.view(np.uint64) != array.view(np.uint64))
    assert bad.size == 0, (f"{what}: {bad.size} of {array.size} draws differ, first at "
                           f"{bad[0]}: {got[bad[0]]!r} against {array[bad[0]]!r}")


@pytest.mark.parametrize("name", ["mul", "div", "power 2", "power 3", "power -1",
                                  "power -2", "power 7", "exp", "sin", "cos", "log"])
def test_each_numpy_call_of_point_code_equals_the_array_loop(name):
    # point code calls these on Python scalars; the array code on (m,)
    # arrays, m = 1 at a point; all three must give the same bits
    rng = np.random.default_rng(2000)
    a, b = _draws(rng), _draws(rng)
    ns = fields._NAMESPACES["point"]
    if name.startswith("power"):
        k = int(name.split()[1])
        a = a[np.abs(a) > 1e-2] / np.abs(a[np.abs(a) > 1e-2]) * rng.uniform(0.5, 2)
        scalar, array = (lambda x: _power(x, k)), (lambda x: x ** k)
        args = (a,)
    elif name in ("mul", "div"):
        fn = {"mul": np.multiply, "div": np.true_divide}[name]
        assert ns[name] is fn
        b = b[:a.size]
        b[b == 0] = 1.5
        scalar, array, args = fn, fn, (a, b)
    else:
        fn = getattr(np, name)
        assert ns[name] is fn
        a = a[np.abs(a) < 50] if name != "log" else a[a != 0]
        scalar, array, args = fn, fn, (a,)
    with np.errstate(all="ignore"):
        want = array(*args)
        pointwise = np.concatenate([array(*(x[k:k + 1] for x in args))
                                    for k in range(args[0].size)])
        got = [scalar(*xs) for xs in zip(*map(_scalars, args))]
    _same_bits(got, want, f"{name} on scalars against (m,) arrays")
    _same_bits(got, pointwise, f"{name} on scalars against (1,) arrays")


@pytest.mark.parametrize("name", ["complex times real", "real times complex",
                                  "plain literal times complex", "outer product",
                                  "real times real"])
def test_each_python_product_of_point_code_equals_the_array_loop(name):
    # where an operand is real, or a literal with a zero part, numpy rounds
    # each part of a product once, as Python does; an outer product is
    # the textbook product in both (_outer); up to the sign of a zero
    rng = np.random.default_rng(2001)
    a, b = _draws(rng), _draws(rng)
    x = rng.uniform(-3, 3, a.size) * 10.0 ** rng.integers(-3, 4, a.size)
    lit = np.where(rng.uniform(size=a.size) < 0.5, 1j, 1.0) * rng.uniform(-3, 3, a.size)
    pairs = {"complex times real": (a, x), "real times complex": (x, a),
             "plain literal times complex": (lit, a), "outer product": (a, b),
             "real times real": (x, x[::-1].copy())}
    left, right = pairs[name]
    py_left = left.tolist() if left.dtype == float else _scalars(left)
    py_right = right.tolist() if right.dtype == float else _scalars(right)
    got = np.array([u * v for u, v in zip(py_left, py_right)], dtype=complex)
    A, B = left.astype(complex), right.astype(complex)
    want = _outer(A, B) if name == "outer product" else A * B
    np.testing.assert_array_equal(got, want, err_msg=name)


# ---------------------------------------------------------------------------
# one memo per jet


def _runs_at_a_point(kernel_runs, pt):
    sys_, f, g = _n6_system()
    kernel_runs.clear()
    _seven(sys_, f, g, pt)
    return sys_, f, g


def test_each_memoized_kernel_runs_once_per_pair_at_a_point(kernel_runs):
    pt = PhasePoint(np.linspace(-0.9, 0.8, 6), np.linspace(0.5, -0.7, 6))
    sys_, f, g = _runs_at_a_point(kernel_runs, pt)
    keys = [(name, id(a), id(b)) for name, a, b in kernel_runs]
    assert len(keys) == len(set(keys))
    counts = {}
    for name, _, _ in kernel_runs:
        counts[name] = counts.get(name, 0) + 1
    # seven distinct pairs of pb_complex_jets, four of structural_derivative_jets
    # (f, g, H and the unit field, each with s), one of each other kernel
    assert counts == {"pb_complex_jets": 7, "structural_derivative_jets": 4,
                      "sdyn_jets": 1, "tghs_zdot_jets": 1, "tghs_zbardot_jets": 1,
                      "flow_gradient_jets": 1}

    # the order-2 queries again at the same point take the same jets from
    # point_jets and run nothing
    kernel_runs.clear()
    gchs.beta(sys_, pt)
    gchs.covariant_acceleration(f, sys_, pt)
    assert kernel_runs == []


def test_a_new_partner_jet_computes_again(kernel_runs):
    sys_, f, g = _n6_system()
    rng = np.random.default_rng(3)
    Q, P = rng.uniform(-1, 1, size=(2, 6, 5))
    fj, gj, again_gj = (eval_jet(h, Q, P, order=1) for h in (f, g, g))
    first = brackets.pb_complex_jets(fj, gj)
    assert brackets.pb_complex_jets(fj, gj) is first
    other = brackets.pb_complex_jets(fj, again_gj)
    assert other is not first and other.tobytes() == first.tobytes()
    assert brackets.pb_complex_jets(fj, gj) is first
    assert [(a, b) for _, a, b in kernel_runs] == [(fj, gj), (fj, again_gj)]


def test_a_jet_does_not_keep_its_partners_alive():
    sys_, f, g = _n6_system()
    Q, P = np.random.default_rng(4).uniform(-1, 1, size=(2, 6, 3))
    fj, gj = eval_jet(f, Q, P, order=1), eval_jet(g, Q, P, order=1)
    brackets.pb_complex_jets(fj, gj)
    dead = weakref.ref(gj)
    del gj
    gc.collect()
    assert dead() is None


def test_memoized_arrays_are_read_only():
    sys_, f, _ = _n6_system()
    Q, P = np.random.default_rng(5).uniform(-1, 1, size=(2, 6, 4))
    Hj, sj = (eval_jet(h, Q, P, order=2) for h in (sys_.hamiltonian, sys_.structural))
    fj = eval_jet(f, Q, P, order=1)
    results = [brackets.pb_complex_jets(fj, Hj),
               *brackets.structural_derivative_jets(fj, sj), brackets.sdyn_jets(Hj, sj),
               dynamics.tghs_zdot_jets(Hj, sj), dynamics.tghs_zbardot_jets(Hj, sj),
               *dynamics.flow_gradient_jets(Hj, sj)]
    for a in results:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_a_jet_keeps_its_scales():
    _, f, _ = _n6_system()
    Q, P = np.random.default_rng(6).uniform(-1, 1, size=(2, 6, 4))
    fj = eval_jet(f, Q, P, order=1)
    dz, dzbar = fj.wirtinger
    for part, x in (("val", fj.val), ("grad", fj.grad), ("dz", dz), ("dzbar", dzbar)):
        assert fj.amax(part) == float(np.abs(x).max())
        assert fj.amax(part) is fj.amax(part)


def test_a_forced_route_mismatch_still_raises(monkeypatch):
    # a derivative bug in one route: the same ConsistencyError, with the
    # deviation and the scale of the full check
    sys_, f, g = _n6_system()
    pt = PhasePoint(np.linspace(-0.9, 0.8, 6), np.linspace(0.5, -0.7, 6))
    derivative = brackets.structural_derivative_jets

    def skewed(fj, sj):
        Dz, Dzb = derivative(fj, sj)
        return Dz * (1 + 1e-6), Dzb

    monkeypatch.setattr(brackets, "structural_derivative_jets", skewed)
    monkeypatch.setattr(dynamics, "structural_derivative_jets", skewed)
    # the texts the kernels gave before they kept their results per jet
    for call, text in [
            (lambda: gchs.gspb(f, g, sys_, pt), "structural bracket: independent "
             "evaluation routes differ by 4.876e-07 (scale 1.000e+00)"),
            (lambda: gchs.s_dynamics(sys_, pt), "structural flow rate: independent "
             "evaluation routes differ by 1.679e-08 (scale 1.000e+00)"),
            (lambda: gchs.gspb(f, sys_.hamiltonian, sys_, pt), "structural bracket: "
             "independent evaluation routes differ by 1.040e-06 (scale 1.040e+00)")]:
        with pytest.raises(ConsistencyError) as error:
            call()
        assert str(error.value) == f"{text}; this is an internal derivative bug"


def test_a_non_finite_scale_still_raises_where_the_routes_agree():
    # both routes give 0 here, but the scale of the check, 1e200 * 1e200
    # * 0, is NaN: the check raises before and after skipping magnitudes
    big = parse_field("1e200", 1)
    sys_ = StructuredSystem(1, parse_field("q1^2", 1), parse_field("0", 1))
    with pytest.raises(DomainError) as error:
        gchs.gspb(big, big, sys_, PhasePoint([0.5], [0.25]))
    assert str(error.value) == "structural bracket is not finite"
