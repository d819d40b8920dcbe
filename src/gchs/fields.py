"""Scalar fields over phase space: parsing, evaluation, derivatives.

A field is an expression tree over the coordinates of an n-degree
phase space.  The concrete grammar (a strict superset of the documented
interface: one optional leading sign is allowed before the first term):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := base ['^' ['-'] INTEGER]
    base    := NUMBER | 'i' | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers: coordinates q<j>, p<j>, the complex chart z<j> (= q<j> + i p<j>),
the functions sin, cos, exp, log, conj, and the time variable t when the
field is parsed with allow_time=True.  Indices are 1-based and checked
against n.  Powers are integer-only.

All derivatives come from forward-mode jets over the 2n real
coordinates; nothing is ever differentiated symbolically.  Wirtinger
pairs are assembled from the real partials afterwards.

Jets are evaluated over a batch of points with numpy (autodiff.Jet).
A single point of a real-form field at order 0 or 1 is walked in plain
Python floats instead, which returns the same values (see _ScalarCtx).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .autodiff import Jet, JetSpace
from .errors import ExpressionError
from .phasespace import PhasePoint

_FUNCTIONS = ("sin", "cos", "exp", "log", "conj")

# printing precedence levels
_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


class _EvalCtx:
    __slots__ = ("space", "n", "Q", "P", "t")

    def __init__(self, space, n, Q, P, t):
        self.space = space
        self.n = n
        self.Q = Q
        self.P = P
        self.t = t


class _Fallback(Exception):
    """The scalar walk cannot promise the batched path's bits here."""


class _ScalarCtx:
    """One point of a real-form field, walked in Python floats.

    Each node returns (value, gradient) with the gradient a sparse dict
    {coordinate index: partial}; a missing index means zero, and no dict
    is changed after it was returned, so leaves can share theirs.

    On a real-form field every imaginary part of the batched complex jet
    is zero, and numpy's complex arithmetic then rounds like the float
    operation below it: a + b, a * b, sin, cos and exp exactly; a / b as
    a * (1 / b); integer powers through numpy's binary-exponentiation
    chain (_chain_pow).  That holds while every value stays finite.
    Overflow and NaN carry through the float operations up to the result,
    except where a division, a negative power or exp could turn them
    back into a finite number; at those points, and on a math error, a
    domain error or an operation outside that list, the walk raises
    _Fallback and eval_jet redoes the call on the batched path, which
    returns what it always did, or raises DomainError where it always
    did.  The one difference left is the sign of an exact zero: an index
    missing from the sparse gradient reads +0 where the dense product
    may give -0, and every imaginary part is +0.
    """

    __slots__ = ("q", "p", "t", "dq", "dp")

    def __init__(self, q, p, t, seeds):
        n = len(q)
        self.q = q
        self.p = p
        self.t = t
        self.dq = seeds[:n]
        self.dp = seeds[n:]


@lru_cache(maxsize=None)
def _unit_seeds(two_n: int, order: int) -> tuple[dict, ...]:
    if order == 0:
        return ({},) * two_n
    return tuple({a: 1.0} for a in range(two_n))


_NO_GRAD: dict = {}

# numpy's complex power multiplies out integer exponents below this bound
# and calls the general complex power at or above it
_CHAIN_LIMIT = 100


def _chain_pow(v: float, k: int) -> float:
    """v**k in the order numpy's complex power multiplies it out."""
    if not -_CHAIN_LIMIT < k < _CHAIN_LIMIT:
        raise _Fallback
    e = -k if k < 0 else k
    acc, sq = 1.0, v
    while True:
        if e & 1:
            acc = acc * sq
        e >>= 1
        if not e:
            break
        sq = sq * sq
    if k > 0:
        return acc
    # 1 / inf would hide the overflow, 1 / 0 is a domain error
    if acc == 0.0 or not math.isfinite(acc):
        raise _Fallback
    return 1.0 / acc


#: function name -> (value, first derivative) on floats
_FLOAT_FUNCS = {
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda x: -math.sin(x)),
    "exp": (math.exp, math.exp),
}


class Node:
    """Base expression node."""

    PREC = _ATOM

    def ev(self, ctx: _EvalCtx) -> Jet:
        raise NotImplementedError

    def ev_scalar(self, ctx: _ScalarCtx) -> tuple[float, dict]:
        raise _Fallback

    def _raw(self) -> str:
        raise NotImplementedError

    def fmt(self, parent_prec: int = _ADD) -> str:
        s = self._raw()
        if self.PREC < parent_prec:
            return f"({s})"
        return s

    def children(self):
        return ()

    def walk(self):
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True)
class Num(Node):
    value: float

    def ev(self, ctx):
        return ctx.space.const(self.value)

    def ev_scalar(self, ctx):
        return self.value, _NO_GRAD

    def _raw(self):
        return repr(float(self.value))

    def fmt(self, parent_prec: int = _ADD) -> str:
        # a negative literal prints with its sign, so in any context
        # tighter than a sum it needs parentheses to reparse
        s = self._raw()
        prec = _ADD if self.value < 0 else _ATOM
        return f"({s})" if prec < parent_prec else s


class ImagUnit(Node):
    def ev(self, ctx):
        return ctx.space.const(1j)

    def _raw(self):
        return "i"


@dataclass(frozen=True)
class CoordQ(Node):
    j: int  # 1-based

    def ev(self, ctx):
        return ctx.space.leaf(ctx.Q[self.j - 1], [(self.j - 1, 1.0)])

    def ev_scalar(self, ctx):
        return ctx.q[self.j - 1], ctx.dq[self.j - 1]

    def _raw(self):
        return f"q{self.j}"


@dataclass(frozen=True)
class CoordP(Node):
    j: int

    def ev(self, ctx):
        return ctx.space.leaf(ctx.P[self.j - 1], [(ctx.n + self.j - 1, 1.0)])

    def ev_scalar(self, ctx):
        return ctx.p[self.j - 1], ctx.dp[self.j - 1]

    def _raw(self):
        return f"p{self.j}"


@dataclass(frozen=True)
class CoordZ(Node):
    """The complex chart coordinate z_j = q_j + i p_j as a single leaf."""

    j: int

    def ev(self, ctx):
        k = self.j - 1
        return ctx.space.leaf(ctx.Q[k] + 1j * ctx.P[k], [(k, 1.0), (ctx.n + k, 1j)])

    def _raw(self):
        return f"z{self.j}"


class TimeVar(Node):
    def ev(self, ctx):
        # time is an evaluation parameter, not a differentiation variable
        return ctx.space.const(ctx.t)

    def ev_scalar(self, ctx):
        return ctx.t, _NO_GRAD

    def _raw(self):
        return "t"


@dataclass(frozen=True)
class Neg(Node):
    PREC = _ADD
    child: Node

    def ev(self, ctx):
        return -self.child.ev(ctx)

    def ev_scalar(self, ctx):
        v, g = self.child.ev_scalar(ctx)
        return -v, {a: -d for a, d in g.items()}

    def _raw(self):
        return f"-{self.child.fmt(_MUL)}"

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class _Binary(Node):
    left: Node
    right: Node

    def children(self):
        return (self.left, self.right)


class Add(_Binary):
    PREC = _ADD

    def ev(self, ctx):
        return self.left.ev(ctx) + self.right.ev(ctx)

    def ev_scalar(self, ctx):
        a, ga = self.left.ev_scalar(ctx)
        b, gb = self.right.ev_scalar(ctx)
        if not gb:
            return a + b, ga
        if not ga:
            return a + b, gb
        g = dict(ga)
        for i, d in gb.items():
            g[i] = g[i] + d if i in g else d
        return a + b, g

    def _raw(self):
        return f"{self.left.fmt(_ADD)} + {self.right.fmt(_MUL)}"


class Sub(_Binary):
    PREC = _ADD

    def ev(self, ctx):
        return self.left.ev(ctx) - self.right.ev(ctx)

    def ev_scalar(self, ctx):
        a, ga = self.left.ev_scalar(ctx)
        b, gb = self.right.ev_scalar(ctx)
        if not gb:
            return a - b, ga
        g = dict(ga)
        for i, d in gb.items():
            g[i] = g[i] - d if i in g else -d
        return a - b, g

    def _raw(self):
        return f"{self.left.fmt(_ADD)} - {self.right.fmt(_MUL)}"


class Mul(_Binary):
    PREC = _MUL

    def ev(self, ctx):
        return self.left.ev(ctx) * self.right.ev(ctx)

    def ev_scalar(self, ctx):
        # grad = a * grad_b + b * grad_a, as the batched jet sums it
        a, ga = self.left.ev_scalar(ctx)
        b, gb = self.right.ev_scalar(ctx)
        if not ga:
            return a * b, {i: a * d for i, d in gb.items()}
        g = {i: b * d for i, d in ga.items()}
        for i, d in gb.items():
            g[i] = a * d + g[i] if i in g else a * d
        return a * b, g

    def _raw(self):
        return f"{self.left.fmt(_MUL)} * {self.right.fmt(_POW)}"


class Div(_Binary):
    PREC = _MUL

    def ev(self, ctx):
        return self.left.ev(ctx) / self.right.ev(ctx)

    def ev_scalar(self, ctx):
        # grad = (grad_a - val * grad_b) / b, each division a * (1 / b)
        a, ga = self.left.ev_scalar(ctx)
        b, gb = self.right.ev_scalar(ctx)
        if b == 0.0 or not math.isfinite(b):
            raise _Fallback
        r = 1.0 / b
        val = a * r
        g = {i: d * r for i, d in ga.items()}
        for i, d in gb.items():
            g[i] = (ga[i] - val * d) * r if i in ga else -(val * d) * r
        return val, g

    def _raw(self):
        return f"{self.left.fmt(_MUL)} / {self.right.fmt(_POW)}"


@dataclass(frozen=True)
class Pow(Node):
    PREC = _POW
    base: Node
    exponent: int

    def ev(self, ctx):
        return self.base.ev(ctx) ** self.exponent

    def ev_scalar(self, ctx):
        k = self.exponent
        v, g = self.base.ev_scalar(ctx)
        if k == 0:
            return 1.0, _NO_GRAD
        if k == 1:
            return v, g
        if k == 2:
            # the chain for k = 2 and k - 1 = 1 is v * v and v itself
            val, d1 = v * v, 2 * v
        else:
            val = _chain_pow(v, k)
            if not g:
                return val, g
            d1 = k * _chain_pow(v, k - 1)
        return val, {i: d1 * d for i, d in g.items()}

    def _raw(self):
        return f"{self.base.fmt(_ATOM)}^{self.exponent}"

    def children(self):
        return (self.base,)


@dataclass(frozen=True)
class Func(Node):
    name: str
    child: Node

    def ev(self, ctx):
        return getattr(self.child.ev(ctx), self.name)()

    def ev_scalar(self, ctx):
        x, g = self.child.ev_scalar(ctx)
        # exp(-inf) would hide an overflow; log and conj stay batched
        if self.name not in _FLOAT_FUNCS or not math.isfinite(x):
            raise _Fallback
        fn, d1fn = _FLOAT_FUNCS[self.name]
        try:
            val = fn(x)
        except OverflowError:
            raise _Fallback from None
        if not g:
            return val, g
        d1 = d1fn(x)
        return val, {i: d1 * d for i, d in g.items()}

    def _raw(self):
        return f"{self.name}({self.child.fmt(_ADD)})"

    def children(self):
        return (self.child,)


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str, n: int, allow_time: bool):
        self.text = text
        self.n = n
        self.allow_time = allow_time
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        self._tokenize()

    def _tokenize(self):
        i = 0
        while i < len(self.text):
            m = _TOKEN_RE.match(self.text, i)
            if m is None:
                stripped = self.text[i:].lstrip()
                if not stripped:
                    break
                at = len(self.text) - len(stripped)
                raise ExpressionError(
                    f"unexpected character {stripped[0]!r}", self.text, at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            i = m.end()
        self.tokens.append(("eof", "", len(self.text)))

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _error(self, message, tok):
        raise ExpressionError(message, self.text, tok[2])

    def parse(self) -> Node:
        node = self.expr()
        tok = self._peek()
        if tok[0] != "eof":
            self._error(f"unexpected {tok[1]!r}", tok)
        return node

    def expr(self) -> Node:
        kind, value, _ = self._peek()
        negate = False
        if kind == "op" and value in "+-":
            self._next()
            negate = value == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                right = self.term()
                node = Add(node, right) if value == "+" else Sub(node, right)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "*/":
                self._next()
                right = self.factor()
                node = Mul(node, right) if value == "*" else Div(node, right)
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self._next()
            sign = 1
            kind, value, _ = self._peek()
            if kind == "op" and value == "-":
                self._next()
                sign = -1
            tok = self._next()
            if tok[0] != "num" or not tok[1].isdigit():
                self._error("exponent must be an integer", tok)
            node = Pow(node, sign * int(tok[1]))
        return node

    def base(self) -> Node:
        tok = self._next()
        kind, value, pos = tok
        if kind == "num":
            return Num(float(value))
        if kind == "op" and value == "(":
            node = self.expr()
            closing = self._next()
            if not (closing[0] == "op" and closing[1] == ")"):
                self._error("expected ')'", closing)
            return node
        if kind == "ident":
            return self._ident(value, tok)
        self._error(f"unexpected {value!r}" if value else "unexpected end of input", tok)

    def _ident(self, name: str, tok) -> Node:
        if name == "i":
            return ImagUnit()
        if name == "t":
            if not self.allow_time:
                self._error("t is only available in time-dependent fields", tok)
            return TimeVar()
        if name in _FUNCTIONS:
            opening = self._next()
            if not (opening[0] == "op" and opening[1] == "("):
                self._error(f"expected '(' after {name!r}", opening)
            node = self.expr()
            closing = self._next()
            if not (closing[0] == "op" and closing[1] == ")"):
                self._error("expected ')'", closing)
            return Func(name, node)
        m = re.fullmatch(r"([qpz])(\d+)", name)
        if m:
            j = int(m.group(2))
            if not 1 <= j <= self.n:
                self._error(
                    f"coordinate index out of range: {name} with n={self.n}", tok)
            return {"q": CoordQ, "p": CoordP, "z": CoordZ}[m.group(1)](j)
        self._error(f"unknown identifier {name!r}", tok)


# ---------------------------------------------------------------------------
# public field type and API


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An expression over an n-degree phase space, ready to evaluate and
    differentiate at any point."""

    root: Node
    n: int
    uses_time: bool
    is_real_form: bool
    # real form without log: its single-point jets can take the scalar walk
    walks_in_floats: bool = field(default=False, repr=False)

    def __str__(self):
        return self.root.fmt(_ADD)

    def __repr__(self):
        return f"ScalarField({str(self)!r}, n={self.n})"


def _make_field(root: Node, n: int) -> ScalarField:
    uses_time = False
    real_form = True
    has_log = False
    for node in root.walk():
        if isinstance(node, TimeVar):
            uses_time = True
        if isinstance(node, (ImagUnit, CoordZ)) or (
                isinstance(node, Func) and node.name == "conj"):
            real_form = False
        if isinstance(node, Func) and node.name == "log":
            # numpy's complex log rounds differently from math.log
            has_log = True
    return ScalarField(root, n, uses_time, real_form, real_form and not has_log)


def parse_field(text: str, n: int, allow_time: bool = False) -> ScalarField:
    """Parse an expression string into a field over n degrees of freedom."""
    if n < 1:
        raise ValueError("n must be at least 1")
    root = _Parser(text, n, allow_time).parse()
    return _make_field(root, n)


def constant_field(c: float, n: int) -> ScalarField:
    return _make_field(Num(float(c)), n)


def linear_combination(a: float, f: ScalarField, b: float, g: ScalarField) -> ScalarField:
    """The field a*f + b*g, used by the invariant suite."""
    if f.n != g.n:
        raise ValueError("fields must share the same n")
    root = Add(Mul(Num(float(a)), f.root), Mul(Num(float(b)), g.root))
    return _make_field(root, f.n)


def coordinate_field(kind: str, j: int, n: int) -> ScalarField:
    """The bare coordinate q_j, p_j or z_j as a field."""
    if not 1 <= j <= n:
        raise ValueError(f"coordinate index out of range: {kind}{j} with n={n}")
    cls = {"q": CoordQ, "p": CoordP, "z": CoordZ}[kind]
    return _make_field(cls(j), n)


def conjugate_field(f: ScalarField) -> ScalarField:
    return _make_field(Func("conj", f.root), f.n)


def eval_jet(f: ScalarField, Q: np.ndarray, P: np.ndarray,
             order: int = 0, time=None) -> Jet:
    """Evaluate a field over a batch of points, returning a jet.

    Q and P have shape (n, m).  This is the single entry point every
    bracket and rate in the package funnels through.  A single point
    (m == 1) at order 0 or 1 of a field with walks_in_floats set takes
    the scalar walk, which returns the batched path's values and falls
    back to it wherever it could not (see _ScalarCtx).
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if Q.shape != P.shape or Q.ndim != 2 or Q.shape[0] != f.n:
        raise ValueError(f"expected coordinate arrays of shape ({f.n}, m)")
    if f.uses_time and time is None:
        raise ValueError("field depends on t; pass time=")
    m = Q.shape[1]
    tval = None
    if time is not None:
        tval = np.broadcast_to(np.asarray(time, dtype=float), (m,))
    if m == 1 and order in (0, 1) and f.walks_in_floats:
        try:
            return _scalar_jet(f, Q, P, order, tval)
        except _Fallback:
            pass
    space = JetSpace(2 * f.n, m, order)
    ctx = _EvalCtx(space, f.n, Q, P, tval)
    return f.root.ev(ctx)


def _scalar_jet(f: ScalarField, Q: np.ndarray, P: np.ndarray, order: int,
                tval) -> Jet:
    """The jet of eval_jet at one point, from the scalar walk."""
    two_n = 2 * f.n
    t = None if tval is None else float(tval[0])
    ctx = _ScalarCtx(Q[:, 0].tolist(), P[:, 0].tolist(), t,
                     _unit_seeds(two_n, order))
    v, g = f.root.ev_scalar(ctx)
    # NaN and inf reach the result (see _ScalarCtx); a sum sees them all
    if not math.isfinite(sum(g.values(), v)):
        raise _Fallback
    val = np.array([v], dtype=complex)
    if order == 0:
        return Jet(val)
    grad = np.zeros((two_n, 1), dtype=complex)
    if g:
        grad[list(g), 0] = list(g.values())
    return Jet(val, grad)


def point_jets(pt: PhasePoint, *fields: ScalarField, order: int = 1,
               time=None) -> tuple[Jet, ...]:
    """Jets of each field at one point, as batches of size one."""
    for f in fields:
        if f.n != pt.n:
            raise ValueError(f"field has n={f.n}, point has n={pt.n}")
    Q, P = pt.q[:, None], pt.p[:, None]
    return tuple(eval_jet(f, Q, P, order=order, time=time) for f in fields)


def evaluate(f: ScalarField, pt: PhasePoint, time=None) -> complex:
    """Value of the field at a single point."""
    (jet,) = point_jets(pt, f, order=0, time=time)
    return complex(jet.val[0])


@dataclass(frozen=True)
class WirtingerGradient:
    """First derivatives in the complex chart: df/dz_j and df/dzbar_j."""

    dz: np.ndarray
    dzbar: np.ndarray

    @property
    def n(self) -> int:
        return self.dz.size


@dataclass(frozen=True)
class SecondDerivatives:
    """All second real partials, indexed (q1..qn, p1..pn); exactly symmetric."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2


def wirtinger_split(grad: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Turn a stacked real gradient (2n, ...) into (df/dz, df/dzbar) arrays."""
    dq = grad[:n]
    dp = grad[n:]
    return 0.5 * (dq - 1j * dp), 0.5 * (dq + 1j * dp)


def gradient(f: ScalarField, pt: PhasePoint, time=None) -> WirtingerGradient:
    """All first Wirtinger derivatives of the field at a point."""
    (jet,) = point_jets(pt, f, order=1, time=time)
    dz, dzbar = wirtinger_split(jet.grad[:, 0], f.n)
    return WirtingerGradient(dz, dzbar)


def second_derivatives(f: ScalarField, pt: PhasePoint, time=None) -> SecondDerivatives:
    """All second real partials at a point.

    Forward-mode products are symmetrized pairwise so the returned
    matrix satisfies matrix[a, b] == matrix[b, a] exactly.
    """
    (jet,) = point_jets(pt, f, order=2, time=time)
    h = jet.hess[:, :, 0]
    return SecondDerivatives(0.5 * (h + h.T))
