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
A single point of a real-form field is evaluated instead by straight-line
float code generated once per field and order, which returns the same
values (see _Emitter).
"""

from __future__ import annotations

import logging
import math
import operator
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .autodiff import Jet, JetSpace
from .errors import ExpressionError
from .phasespace import PhasePoint, wirtinger_from_real

log = logging.getLogger(__name__)

_FUNCTIONS = ("sin", "cos", "exp", "log", "conj")

# printing precedence levels
_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


class Node:
    """Base expression node."""

    PREC = _ATOM

    def ev(self, ctx: JetSpace) -> Jet:
        raise NotImplementedError

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
        return ctx.const(self.value)

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
        return ctx.const(1j)

    def _raw(self):
        return "i"


@dataclass(frozen=True)
class CoordQ(Node):
    j: int  # 1-based

    def ev(self, ctx):
        return ctx.leaf(ctx.Q[self.j - 1], [(self.j - 1, 1.0)])

    def _raw(self):
        return f"q{self.j}"


@dataclass(frozen=True)
class CoordP(Node):
    j: int

    def ev(self, ctx):
        return ctx.leaf(ctx.P[self.j - 1], [(ctx.n + self.j - 1, 1.0)])

    def _raw(self):
        return f"p{self.j}"


@dataclass(frozen=True)
class CoordZ(Node):
    """The complex chart coordinate z_j = q_j + i p_j as a single leaf."""

    j: int

    def ev(self, ctx):
        k = self.j - 1
        return ctx.leaf(ctx.Q[k] + 1j * ctx.P[k], [(k, 1.0), (ctx.n + k, 1j)])

    def _raw(self):
        return f"z{self.j}"


class TimeVar(Node):
    def ev(self, ctx):
        # time is an evaluation parameter, not a differentiation variable
        return ctx.const(ctx.t)

    def _raw(self):
        return "t"


@dataclass(frozen=True)
class Neg(Node):
    PREC = _ADD
    child: Node

    def ev(self, ctx):
        return -self.child.ev(ctx)

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

    def _raw(self):
        return f"{self.left.fmt(_ADD)} + {self.right.fmt(_MUL)}"


class Sub(_Binary):
    PREC = _ADD

    def ev(self, ctx):
        return self.left.ev(ctx) - self.right.ev(ctx)

    def _raw(self):
        return f"{self.left.fmt(_ADD)} - {self.right.fmt(_MUL)}"


class Mul(_Binary):
    PREC = _MUL

    def ev(self, ctx):
        return self.left.ev(ctx) * self.right.ev(ctx)

    def _raw(self):
        return f"{self.left.fmt(_MUL)} * {self.right.fmt(_POW)}"


class Div(_Binary):
    PREC = _MUL

    def ev(self, ctx):
        return self.left.ev(ctx) / self.right.ev(ctx)

    def _raw(self):
        return f"{self.left.fmt(_MUL)} / {self.right.fmt(_POW)}"


@dataclass(frozen=True)
class Pow(Node):
    PREC = _POW
    base: Node
    exponent: int

    def ev(self, ctx):
        return self.base.ev(ctx) ** self.exponent

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

    def _raw(self):
        return f"{self.name}({self.child.fmt(_ADD)})"

    def children(self):
        return (self.child,)


# ---------------------------------------------------------------------------
# single points in floats: straight-line code generated once per field


class _NoFloatCode(Exception):
    """The field has no float code at this order; its jets stay batched."""


# numpy's complex power multiplies out integer exponents below this bound
# and calls the general complex power at or above it
_CHAIN_LIMIT = 100

_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_FLOAT_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}

# outputs summed by one finiteness guard of the generated code
_GUARD_TERMS = 32


def _src(x) -> str:
    # an operand of the generated code: a float literal or a local's name
    return repr(x) if isinstance(x, float) else x


def _keys(*dicts) -> dict:
    # the union of the keys, in a fixed order
    return dict.fromkeys(k for d in dicts for k in d)


class _Emitter:
    """Translate one field at one order into a flat Python function.

    Emitting a node gives its value, gradient and Hessian as operands of
    the generated code, each a float literal or the name of a local.  The
    gradient {a: operand} and the Hessian {(a, b): operand} hold only the
    structurally nonzero entries, so sparsity is settled here and the
    function computes nothing else.  Equal operations share one local.

    On a real-form field every imaginary part of the batched complex jet
    is zero, and numpy's complex arithmetic then rounds like the float
    operation below it: a + b, a * b, sin, cos and exp exactly; a / b as
    a * (1 / b); integer powers through numpy's binary-exponentiation
    chain.  Every entry sums its present terms in the order of the Jet
    arithmetic in autodiff, which leaves out the same absent terms, and a
    gradient-free operand gets no derivative there either.  That holds
    while every value stays finite.  Overflow and NaN carry through the
    float operations up to the outputs, except where a division, a
    negative power or sin/cos/exp could turn them back into a finite
    number or raise; each of those gets a guard, and the last ones check
    that every output is finite.  A guard that fires
    returns its index, and eval_jet redoes the call on the batched path,
    which stays the reference and raises DomainError where it always did.
    The one difference left is the sign of an exact zero.
    """

    def __init__(self, n: int, order: int):
        self.n = n
        self.order = order
        self.lines: list[str] = []
        self.locals: dict[str, str] = {}   # expression -> the local holding it
        self.reasons: list[str] = []       # guard index -> why it fires

    # ---- statements ----------------------------------------------------

    def _local(self, expr: str) -> str:
        name = self.locals.get(expr)
        if name is None:
            name = self.locals[expr] = f"v{len(self.locals)}"
            self.lines.append(f"{name} = {expr}")
        return name

    def op(self, a, sym: str, b):
        if isinstance(a, float) and isinstance(b, float):
            v = _FLOAT_OPS[sym](a, b)   # the same IEEE operation as at run time
            if math.isfinite(v):
                return v
        if sym == "*" and (a == 1.0 or b == 1.0):
            return b if a == 1.0 else a
        if sym in "+*" and _src(b) < _src(a):
            a, b = b, a
        return self._local(f"{_src(a)} {sym} {_src(b)}")

    def neg(self, a):
        return -a if isinstance(a, float) else self._local(f"-{a}")

    def call(self, name: str, x):
        if isinstance(x, float):
            try:
                return _FLOAT_FUNCS[name](x)
            except OverflowError:
                raise _NoFloatCode(f"{name}({x!r}) overflows") from None
        return self._local(f"{name}({x})")

    def guard(self, x, reason: str, zero: bool = False):
        """Fall back when x is not finite, or when zero and x == 0."""
        if isinstance(x, float):
            if not math.isfinite(x) or (zero and x == 0.0):
                raise _NoFloatCode(reason)
            return
        test = f"not ({x} - {x} == 0.0)"
        if zero:
            test = f"{x} == 0.0 or {test}"
        self.lines.append(f"if {test}: return {len(self.reasons)}")
        self.reasons.append(reason)

    def prod(self, a, b):
        return None if a is None or b is None else self.op(a, "*", b)

    def total(self, terms):
        """Sum the present (sign, term) pairs left to right; None is an
        absent term, an exact zero in the dense jet."""
        acc = None
        for sym, term in terms:
            if term is not None:
                if acc is None:
                    acc = term if sym == "+" else self.neg(term)
                else:
                    acc = self.op(acc, sym, term)
        return acc

    def pairs(self, x: dict, y: dict) -> dict:
        # the entries of the outer product x y^T a Hessian needs
        return {(i, j): None for i in x for j in y} if self.order == 2 else {}

    def power(self, v, k: int):
        """v**k in the order numpy's complex power multiplies it out."""
        if not -_CHAIN_LIMIT < k < _CHAIN_LIMIT:
            raise _NoFloatCode(f"exponent {k} is outside numpy's multiply chain")
        e, acc, sq = abs(k), 1.0, v
        while True:
            if e & 1:
                acc = self.op(acc, "*", sq)
            e >>= 1
            if not e:
                break
            sq = self.op(sq, "*", sq)
        if k >= 0:
            return acc
        # 1 / inf would hide the overflow, 1 / 0 is a domain error
        self.guard(acc, "zero or non-finite value to a negative power", zero=True)
        return self.op(1.0, "/", acc)

    def chain(self, d1, d2, g: dict, h: dict):
        """Gradient d1 * g and Hessian d1 * h + d2 * (g_i * g_j), as
        Jet._unary forms them; d2 is None below order 2."""
        grad = {i: self.op(d1, "*", gi) for i, gi in g.items()}
        if d2 is None:
            return grad, {}
        hess = {(i, j): self.total([("+", self.prod(d1, h.get((i, j)))),
                                    ("+", self.prod(d2, self.prod(g[i], g[j])))])
                for i, j in _keys(h, self.pairs(g, g))}
        return grad, hess

    # ---- nodes -----------------------------------------------------------

    def node(self, node: Node):
        rule = _EMIT_RULES.get(type(node))
        if rule is None:
            raise _NoFloatCode(f"no float code for {type(node).__name__} nodes")
        return rule(self, node)

    def num(self, node):
        value = float(node.value)
        self.guard(value, f"non-finite literal {value!r}")
        return value, {}, {}

    def coord(self, a: int):
        return f"x{a}", ({a: 1.0} if self.order else {}), {}

    def neg_node(self, node):
        v, g, h = self.node(node.child)
        return (self.neg(v), {i: self.neg(d) for i, d in g.items()},
                {ij: self.neg(d) for ij, d in h.items()})

    def add_sub(self, node):
        sym = "+" if isinstance(node, Add) else "-"
        a, ga, ha = self.node(node.left)
        b, gb, hb = self.node(node.right)

        def merge(x, y):
            return {k: self.total([("+", x.get(k)), (sym, y.get(k))])
                    for k in _keys(x, y)}

        return self.op(a, sym, b), merge(ga, gb), merge(ha, hb)

    def mul(self, node):
        a, ga, ha = self.node(node.left)
        b, gb, hb = self.node(node.right)
        g = {i: self.total([("+", self.prod(a, gb.get(i))),
                            ("+", self.prod(b, ga.get(i)))])
             for i in _keys(gb, ga)}
        h = {(i, j): self.total([("+", self.prod(a, hb.get((i, j)))),
                                 ("+", self.prod(b, ha.get((i, j)))),
                                 ("+", self.prod(ga.get(i), gb.get(j))),
                                 ("+", self.prod(gb.get(i), ga.get(j)))])
             for i, j in _keys(hb, ha, self.pairs(ga, gb), self.pairs(gb, ga))}
        return self.op(a, "*", b), g, h

    def div(self, node):
        a, ga, ha = self.node(node.left)
        b, gb, hb = self.node(node.right)
        self.guard(b, "division by zero or by a non-finite value", zero=True)
        r = self.op(1.0, "/", b)
        val = self.op(a, "*", r)
        g = {i: self.op(self.total([("+", ga.get(i)),
                                    ("-", self.prod(val, gb.get(i)))]), "*", r)
             for i in _keys(ga, gb)}
        h = {(i, j): self.op(self.total([("+", ha.get((i, j))),
                                         ("-", self.prod(g.get(i), gb.get(j))),
                                         ("-", self.prod(gb.get(i), g.get(j))),
                                         ("-", self.prod(val, hb.get((i, j))))]),
                             "*", r)
             for i, j in _keys(ha, self.pairs(g, gb), self.pairs(gb, g), hb)}
        return val, g, h

    def pow(self, node):
        k = node.exponent
        v, g, h = self.node(node.base)
        if k == 0:
            return 1.0, {}, {}
        if k == 1:
            return v, g, h
        val = self.power(v, k)
        if not g:
            return val, {}, {}
        d1 = self.op(float(k), "*", self.power(v, k - 1))
        d2 = (self.op(float(k * (k - 1)), "*", self.power(v, k - 2))
              if self.order == 2 else None)
        return (val, *self.chain(d1, d2, g, h))

    def func(self, node):
        name = node.name
        if name not in _FLOAT_FUNCS:
            # conj is complex; numpy's complex log rounds unlike math.log
            raise _NoFloatCode(f"{name} has no float code")
        x, g, h = self.node(node.child)
        self.guard(x, f"non-finite argument of {name}")
        val = self.call(name, x)
        if not g:
            return val, {}, {}
        if name == "sin":
            d1, d2 = self.call("cos", x), self.neg(val)
        elif name == "cos":
            d1, d2 = self.neg(self.call("sin", x)), self.neg(val)
        else:
            d1 = d2 = val
        return (val, *self.chain(d1, d2 if self.order == 2 else None, g, h))


_EMIT_RULES = {
    Num: _Emitter.num,
    CoordQ: lambda em, node: em.coord(node.j - 1),
    CoordP: lambda em, node: em.coord(em.n + node.j - 1),
    TimeVar: lambda em, node: ("t", {}, {}),
    Neg: _Emitter.neg_node,
    Add: _Emitter.add_sub,
    Sub: _Emitter.add_sub,
    Mul: _Emitter.mul,
    Div: _Emitter.div,
    Pow: _Emitter.pow,
    Func: _Emitter.func,
}


def _emit(f: ScalarField, order: int) -> tuple[str, list[int], list[str]]:
    """The source of f's float code at one order, the flat slot of each
    value it returns in a dense (val, grad, hess) buffer, and the reason
    of each guard."""
    em = _Emitter(f.n, order)
    val, grad, hess = em.node(f.root)
    two_n = 2 * f.n
    outs = [val, *grad.values(), *hess.values()]
    slots = [0, *(1 + a for a in grad), *(1 + two_n * (1 + a) + b for a, b in hess)]
    names = list(dict.fromkeys(x for x in outs if isinstance(x, str)))
    # NaN and inf reach the outputs (see _Emitter); a sum sees them all.
    # Each sum is bounded, since compile() recurses on a long chain of +.
    for k in range(0, len(names), _GUARD_TERMS):
        chunk = names[k:k + _GUARD_TERMS]
        em.guard(chunk[0] if len(chunk) == 1 else em._local(" + ".join(chunk)),
                 "non-finite result")
    params = ", ".join([f"x{a}" for a in range(two_n)] + ["t"])
    body = em.lines + [f"return ({', '.join(map(_src, outs))},)"]
    source = f"def _jet({params}):\n" + "".join(f"    {line}\n" for line in body)
    return source, slots, em.reasons


def _compile(source: str):
    namespace = {"__builtins__": {}, **_FLOAT_FUNCS}
    exec(compile(source, "<float jet>", "exec"), namespace)
    return namespace["_jet"]


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
    # order -> its compiled float code, or None where the jets stay batched
    _float_code: dict = field(default_factory=dict, init=False, repr=False)

    def __str__(self):
        return self.root.fmt(_ADD)

    def __repr__(self):
        return f"ScalarField({str(self)!r}, n={self.n})"


def _make_field(root: Node, n: int) -> ScalarField:
    uses_time = False
    real_form = True
    for node in root.walk():
        if isinstance(node, TimeVar):
            uses_time = True
        if isinstance(node, (ImagUnit, CoordZ)) or (
                isinstance(node, Func) and node.name == "conj"):
            real_form = False
    return ScalarField(root, n, uses_time, real_form)


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
    (m == 1) runs the field's float code where it has one, which returns
    the batched path's values and falls back to it wherever it could not
    (see _Emitter).  Complex-valued fields and log have no float code.
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
    if m == 1 and order in (0, 1, 2):
        jet = _float_jet(f, Q, P, order, tval)
        if jet is not None:
            return jet
    space = JetSpace(f.n, Q, P, tval, order)
    return space.dense(f.root.ev(space))


def _code_for(f: ScalarField, order: int):
    """f's compiled float code at one order (cached on f), or None."""
    if order in f._float_code:
        return f._float_code[order]
    t0 = perf_counter()
    try:
        source, slots, reasons = _emit(f, order)
        fn = _compile(source)
    except (_NoFloatCode, RecursionError, MemoryError, SyntaxError) as e:
        # too deep or too large for the emitter or compile(): stay batched
        log.debug("no float code for %s at order %d: %s: %s", f, order,
                  type(e).__name__, e)
        code = None
    else:
        code = (fn, np.array(slots, dtype=np.intp), reasons)
        log.debug("float code for %s at order %d: %d statements, %.3f ms",
                  f, order, source.count("\n") - 1, 1e3 * (perf_counter() - t0))
    f._float_code[order] = code
    return code


def _float_jet(f: ScalarField, Q: np.ndarray, P: np.ndarray, order: int,
               tval) -> Jet | None:
    """The jet of eval_jet at one point from f's float code, or None
    where the batched path has to compute it."""
    code = _code_for(f, order)
    if code is None:
        return None
    fn, slots, reasons = code
    t = 0.0 if tval is None else float(tval[0])
    try:
        out = fn(*Q[:, 0].tolist(), *P[:, 0].tolist(), t)
    except (OverflowError, ValueError, ZeroDivisionError) as e:
        out = f"{type(e).__name__}: {e}"
    if type(out) is not tuple:
        log.debug("%s at order %d falls back to the batched jets: %s", f, order,
                  reasons[out] if type(out) is int else out)
        return None
    two_n = 2 * f.n
    size = (1, 1 + two_n, (1 + two_n) ** 2 - two_n)[order]
    buf = np.zeros(size, dtype=complex)
    buf[slots] = out
    if order == 0:
        return Jet(buf)
    grad = buf[1:1 + two_n].reshape(two_n, 1)
    if order == 1:
        return Jet(buf[:1], grad, order=1)
    return Jet(buf[:1], grad, buf[1 + two_n:].reshape(two_n, two_n, 1), 2)


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
    return wirtinger_from_real(grad[:n], grad[n:])


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
