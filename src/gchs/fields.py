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
against n.  Powers are integer-only.  str(f) prints a field in this grammar
at any length, and the text of a parsed field reparses to an equal tree.

All derivatives come from forward-mode jets over the 2n real
coordinates; nothing is ever differentiated symbolically.  Wirtinger
pairs are assembled from the real partials afterwards, once per jet
(Jet.wirtinger).

Jets are computed by straight-line code generated once per parsed text
or combination (see parse_field, linear_combination) and order: one
tape of numpy calls on complex arrays (_Emitter).  Each kind of code is
a writer of that tape, compiled once (_Writer, _Code): the array code
("array"); for a real-form field, code that returns the same values on
Python floats at a single point ("float") and on float64 arrays over a
batch ("batch"); and for any other field, the tape on the Python numbers
of a single point ("point").  Each code, dynamics' velocity kernel too,
is one function from one compile step (_compiled), and only array code
raises: the others return a reason's index.
"""

from __future__ import annotations

import functools
import logging
import math
import operator
import re
import threading
import weakref
from dataclasses import dataclass, field, replace
from functools import lru_cache
from time import perf_counter

import numpy as np

from .errors import DomainError, ExpressionError
from .phasespace import PhasePoint, wirtinger_from_real

log = logging.getLogger(__name__)

_FUNCTIONS = ("sin", "cos", "exp", "log", "conj")

# printing precedence levels
_ADD, _MUL, _POW, _ATOM = 1, 2, 3, 4


class Node:
    """Base expression node; printing and emission are rules keyed by its
    type (_PRINT_RULES, _EMIT_RULES), applied by fold."""

    def children(self):
        return ()

    def walk(self):
        """Every node of the tree, each before its subtrees, the right
        subtree before the left one.  The walk keeps its own stack, since
        a field may nest deeper than Python's recursion limit."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(node.children())

    def fold(self, rule):
        """rule(node, *the results of its children) at every node,
        children first; the result at the root.  No recursion (see walk)."""
        done: list = []
        for node in reversed(list(self.walk())):   # left subtree, right subtree, root
            k = len(node.children())
            args = done[len(done) - k:]
            del done[len(done) - k:]
            done.append(rule(node, *args))
        return done[0]


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class ImagUnit(Node):
    pass


@dataclass(frozen=True)
class CoordQ(Node):
    j: int  # 1-based


@dataclass(frozen=True)
class CoordP(Node):
    j: int


@dataclass(frozen=True)
class CoordZ(Node):
    """The complex chart coordinate z_j = q_j + i p_j as a single leaf."""

    j: int


@dataclass(frozen=True)
class TimeVar(Node):
    pass


@dataclass(frozen=True)
class Neg(Node):
    child: Node

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class _Binary(Node):
    left: Node
    right: Node

    def children(self):
        return (self.left, self.right)


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int

    def children(self):
        return (self.base,)


@dataclass(frozen=True)
class Func(Node):
    name: str
    child: Node

    def children(self):
        return (self.child,)


def _operand(result, slot: int) -> str:
    # the text of an operand, parenthesized where it binds looser than its slot
    text, prec = result
    return f"({text})" if prec < slot else text


def _num_text(node):
    # a literal printed with its sign (-0.0 too) is parenthesized as a sum
    # is; an infinite one prints as 1e999, which reads back as inf
    text = repr(float(node.value)).replace("inf", "1e999")
    return text, _ADD if text[0] == "-" else _ATOM


def _infix(sym: str, prec: int):
    # left-associative: the right operand binds one level tighter
    return lambda node, a, b: (f"{_operand(a, prec)} {sym} {_operand(b, prec + 1)}", prec)


# each rule gives a node's text and its precedence level
_PRINT_RULES = {
    Num: _num_text,
    ImagUnit: lambda node: ("i", _ATOM),
    CoordQ: lambda node: (f"q{node.j}", _ATOM),
    CoordP: lambda node: (f"p{node.j}", _ATOM),
    CoordZ: lambda node: (f"z{node.j}", _ATOM),
    TimeVar: lambda node: ("t", _ATOM),
    Neg: lambda node, x: (f"-{_operand(x, _MUL)}", _ADD),
    Add: _infix("+", _ADD), Sub: _infix("-", _ADD),
    Mul: _infix("*", _MUL), Div: _infix("/", _MUL),
    Pow: lambda node, b: (f"{_operand(b, _ATOM)}^{node.exponent}", _POW),
    Func: lambda node, x: (f"{node.name}({x[0]})", _ATOM),
}


# ---------------------------------------------------------------------------
# jets by generated code: one tape per field and order, written for each kind


class _NoFloatCode(Exception):
    """The field has no code of this kind."""


# numpy's complex power multiplies out integer exponents below this bound
# and calls the general complex power at or above it
_CHAIN_LIMIT = 100

_FLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}

# outputs summed by one finiteness guard of the kinds that never raise
_GUARD_TERMS = 32


#: the DomainError the array code raises where an operand has a zero
_REFUSALS = {"divisor": "division by zero", "log_arg": "log of zero",
             "power_base": "zero raised to a negative power"}


def _refuse(x, check: str):
    # a check of the array code: its DomainError where x has a zero
    if np.count_nonzero(x == 0):
        raise DomainError(_REFUSALS[check])


def _outer(a, b):
    """a * b as the textbook complex product, which is how the outer
    products of forward-mode jets round (numpy's * rounds like an FMA)."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _real_of(fn):
    # the real part of numpy's complex fn, which is what the array code
    # computes for a real argument (numpy's float exp may round otherwise)
    return lambda x: fn(x, dtype=complex).real.copy()


def _power(x, k: int):
    # x ** k as the array code computes it: numpy turns the power of an
    # array into its own loops (square for k = 2), unlike np.power on a scalar
    return (np.array((x,), dtype=complex) ** k)[0]


_FLOAT_ERRORS = (OverflowError, ValueError, ZeroDivisionError, FloatingPointError)

# the names the code of each kind reads
_NAMESPACES = {
    # float_errors: what the code of the kinds that never raise catches,
    # to return a reason's index
    "float": {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "float_errors": _FLOAT_ERRORS},
    "batch": {"sin": _real_of(np.sin), "cos": _real_of(np.cos),
              "exp": _real_of(np.exp), "any": np.any, "all": np.all,
              "float_errors": _FLOAT_ERRORS},
    "array": {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "conj": np.conj, "outer": _outer, "complex": complex,
              "inf": math.inf, "nan": math.nan, "refuse": _refuse},
    # the array code's numpy calls on Python scalars (see _Writer.point)
    "point": {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "mul": np.multiply, "div": np.true_divide, "power": _power,
              "complex": complex, "inf": math.inf, "nan": math.nan,
              "float_errors": _FLOAT_ERRORS},
}


def _src(x) -> str:
    # an operand in the source: a local's name or a literal (the array
    # code's namespace has inf, nan and complex)
    if type(x) is str:
        return x
    return f"complex({x.real!r}, {x.imag!r})" if type(x) is complex else repr(x)


def _plain(x) -> bool:
    # a literal with a zero real or imaginary part: numpy's * then rounds
    # each part of a product once, as the textbook product does
    return not isinstance(x, str) and (x.real == 0 or x.imag == 0)


def _keys(*dicts) -> dict:
    # the union of the keys, in a fixed order
    return dict.fromkeys(k for d in dicts for k in d)


class _Emitter:
    """Translate fields at one order into straight-line code: the tape,
    the same for every kind of code (see _Writer).

    Emitting a node gives its value, gradient and Hessian over the 2n
    real coordinates as operands of the code, each a literal or the name
    of a local.  The gradient {a: operand} and the Hessian {(a, b):
    operand} hold only the structurally nonzero entries, so sparsity is
    settled here and the code computes nothing else.  Equal operations
    share one local, and operations on literals are folded as the code
    would compute them.  Every entry sums its present terms in the order
    of the textbook forward-mode formulas, leaving out each term with an
    identically zero factor:

        a * b      ((a hb_ij + b ha_ij) + ga_i gb_j) + gb_i ga_j
        a / b      ((((ha_ij - g_i gb_j) - gb_i g_j) - val hb_ij) / b
        u(x)       d1 h_ij + d2 (g_i g_j),  with d1 = u'(x), d2 = u''(x)

    The statements (self.tape) are numpy's calls of those formulas on
    complex (m,) arrays, entry by entry: a / b, v ** k, sin, cos, exp,
    log, conj, and the leaf z_j = q_j + 1j * p_j with seeds 1 and 1j.
    Products keep their operand order, since numpy's complex * rounds
    like an FMA whose result depends on it; the terms g_i g_j of an outer
    product take the textbook product (_outer).  Literals are folded by
    the same numpy calls, so zero imaginary parts keep their signs.  A
    statement (target, op, operands, source) has the op +, -, *, /, **,
    neg, outer or a function's name; a check (target None) names an
    operand that may be zero where the array code raises DomainError: a
    divisor, the argument of log or the base of a negative power (see
    _REFUSALS).  Every parsed field has a tape.
    """

    def __init__(self, n: int, order: int):
        self.n, self.order = n, order
        self.tape: list[tuple] = []       # (target or None, op, operands, source)
        self.locals: dict[str, str] = {}  # source -> the local holding it

    # ---- statements ----------------------------------------------------

    def _local(self, op: str, fn, *args, text: str = ""):
        """op of args: the local holding it, one per equal source, or where
        every operand is a literal, fn of them computed now as the code
        would compute it, on complex arrays of one element."""
        if not any(isinstance(x, str) for x in args):
            with np.errstate(all="ignore"):
                v = fn(*(np.array([x], dtype=complex) for x in args))[0].item()
            # a literal with imaginary part +0 reads as the float it equals
            return v.real if v.imag == 0 and math.copysign(1.0, v.imag) > 0 else v
        if not text:
            s = [_src(x) for x in args]
            text = f"-{s[0]}" if op == "neg" else f"{op}({', '.join(s)})"
        name = self.locals.get(text)
        if name is None:
            name = self.locals[text] = f"v{len(self.locals)}"
            self.tape.append((name, op, args, text))
        return name

    def op(self, a, sym: str, b):
        sa, sb = _src(a), _src(b)
        if sym == "+" and sb < sa:
            a, b, sa, sb = b, a, sb, sa
        return self._local(sym, _FLOAT_OPS[sym], a, b, text=f"{sa} {sym} {sb}")

    def neg(self, a):
        return self._local("neg", np.negative, a)

    def call(self, name: str, x):
        return self._local(name, _NAMESPACES["array"][name], x)

    def check(self, x, check: str):
        """The check statement of x, where x may be zero."""
        if isinstance(x, str) or x == 0:
            self.tape.append((None, check, (x,), f"refuse({_src(x)}, {check!r})"))

    def prod(self, a, b):
        """The term a * b of a derivative; None where a factor is absent.
        A factor 1, a coordinate's seed, is left out (up to the sign of a
        zero imaginary part, x * 1 is x)."""
        if a is None or b is None:
            return None
        if a == 1.0 or b == 1.0:
            return b if a == 1.0 else a
        return self.op(a, "*", b)

    def outer(self, a, b):
        """The term a * b of an outer product of two gradients."""
        if a is None or b is None or _plain(a) or _plain(b):
            return self.prod(a, b)
        return self._local("outer", _outer, a, b)

    def total(self, terms):
        """Sum the present (sign, term) pairs left to right; None is an
        absent term, an identically zero one."""
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
        """v ** k, numpy's power (which returns v ** 0 and v ** 1 exactly)."""
        if k in (0, 1):
            return 1.0 if k == 0 else v
        # k is the statement's second operand; a fold raises to the int k
        return self._local("**", lambda x, _: x ** k, v, k, text=f"{v} ** {k}")

    def chain(self, d1, d2, g: dict, h: dict):
        """Gradient d1 * g_i and Hessian d1 * h_ij + d2 * (g_i g_j) of a
        function of one operand; d2 is None below order 2."""
        grad = {i: self.prod(d1, gi) for i, gi in g.items()}
        if d2 is None:
            return grad, {}
        hess = {(i, j): self.total([("+", self.prod(d1, h.get((i, j)))),
                                    ("+", self.prod(d2, self.outer(g[i], g[j])))])
                for i, j in _keys(h, self.pairs(g, g))}
        return grad, hess

    # ---- nodes -----------------------------------------------------------

    def tree(self, root: Node):
        """Emit root, children first."""
        def emit(node, *args):
            rule = _EMIT_RULES.get(type(node))
            if rule is None:
                raise _NoFloatCode(f"no rule for {type(node).__name__} nodes")
            return rule(self, node, *args)
        return root.fold(emit)

    def coord(self, a: int):
        return f"x{a}", ({a: 1.0} if self.order else {}), {}

    def coord_z(self, node):
        k, n = node.j - 1, self.n
        val = self.op(f"x{k}", "+", self.op(1j, "*", f"x{n + k}"))
        return val, ({k: 1.0, n + k: 1j} if self.order else {}), {}

    def each(self, fn, child):
        # a linear function of one operand: fn of its value and of every entry
        v, g, h = child
        return fn(v), {i: fn(d) for i, d in g.items()}, {ij: fn(d) for ij, d in h.items()}

    def add_sub(self, node, left, right):
        sym = "+" if isinstance(node, Add) else "-"
        (a, ga, ha), (b, gb, hb) = left, right

        def merge(x, y):
            return {k: self.total([("+", x.get(k)), (sym, y.get(k))])
                    for k in _keys(x, y)}

        return self.op(a, sym, b), merge(ga, gb), merge(ha, hb)

    def mul(self, node, left, right):
        (a, ga, ha), (b, gb, hb) = left, right
        g = {i: self.total([("+", self.prod(a, gb.get(i))),
                            ("+", self.prod(b, ga.get(i)))])
             for i in _keys(gb, ga)}
        h = {(i, j): self.total([("+", self.prod(a, hb.get((i, j)))),
                                 ("+", self.prod(b, ha.get((i, j)))),
                                 ("+", self.outer(ga.get(i), gb.get(j))),
                                 ("+", self.outer(gb.get(i), ga.get(j)))])
             for i, j in _keys(hb, ha, self.pairs(ga, gb), self.pairs(gb, ga))}
        return self.op(a, "*", b), g, h

    def div(self, node, left, right):
        (a, ga, ha), (b, gb, hb) = left, right
        self.check(b, "divisor")
        val = self.op(a, "/", b)
        g = {i: self.op(self.total([("+", ga.get(i)), ("-", self.prod(val, gb.get(i)))]),
                        "/", b)
             for i in _keys(ga, gb)}
        h = {(i, j): self.op(self.total([("+", ha.get((i, j))),
                                         ("-", self.outer(g.get(i), gb.get(j))),
                                         ("-", self.outer(gb.get(i), g.get(j))),
                                         ("-", self.prod(val, hb.get((i, j))))]), "/", b)
             for i, j in _keys(ha, self.pairs(g, gb), self.pairs(gb, g), hb)}
        return val, g, h

    def pow(self, node, base):
        k = node.exponent
        v, g, h = base
        if k == 0:
            return 1.0, {}, {}
        if k == 1:
            return v, g, h
        if k < 0:
            self.check(v, "power_base")
        val = self.power(v, k)
        if not g:
            return val, {}, {}
        d1 = self.op(float(k), "*", self.power(v, k - 1))
        d2 = (self.op(float(k * (k - 1)), "*", self.power(v, k - 2))
              if self.order == 2 else None)
        return (val, *self.chain(d1, d2, g, h))

    def func(self, node, child):
        name = node.name
        x, g, h = child
        if name == "conj":
            return self.each(lambda d: self.call(name, d), child)
        if name == "log":
            self.check(x, "log_arg")
        val = self.call(name, x)
        if not g:
            return val, {}, {}
        if name == "sin":
            d1, d2 = self.call("cos", x), lambda: self.neg(val)
        elif name == "cos":
            d1, d2 = self.neg(self.call("sin", x)), lambda: self.neg(val)
        elif name == "exp":
            d1, d2 = val, lambda: val
        else:
            d1, d2 = self.op(1.0, "/", x), lambda: self.op(-1.0, "/", self.power(x, 2))
        return (val, *self.chain(d1, d2() if self.order == 2 else None, g, h))


_EMIT_RULES = {
    Num: lambda em, node: (float(node.value), {}, {}),
    ImagUnit: lambda em, node: (1j, {}, {}),
    CoordZ: _Emitter.coord_z, Neg: lambda em, node, child: em.each(em.neg, child),
    Add: _Emitter.add_sub, Sub: _Emitter.add_sub,
    Mul: _Emitter.mul, Div: _Emitter.div, Pow: _Emitter.pow, Func: _Emitter.func,
    CoordQ: lambda em, node: em.coord(node.j - 1),
    CoordP: lambda em, node: em.coord(em.n + node.j - 1),
    TimeVar: lambda em, node: ("t", {}, {}),
}


def _with_dels(lines: list, outs: list) -> list:
    """The lines with each local deleted after its last use, so code on
    arrays holds only the arrays it still needs."""
    kept, used = [], set(outs)
    for line in reversed(lines):   # each local's last use comes first
        dead = [x for x in dict.fromkeys(line[2])
                if type(x) is str and x[0] == "v" and x not in used]
        used.update(dead)
        kept += [(None, "del " + ", ".join(dead), ())] if dead else []
        kept.append(line)
    return kept[::-1]


def _compile(source: str, namespace: dict) -> dict:
    namespace = {"__builtins__": {}, **namespace}
    exec(compile(source, "<jet code>", "exec"), namespace)
    return namespace


class _Writer:
    """A tape (see _Emitter) written as the lines of one kind of code.

    - "array" is the tape as it is; a check raises DomainError where its
      operand has a zero.  Every tape has array code.
    - "float" runs a real-form field on the Python floats of one point,
      "batch" on float64 arrays (where sin, cos and exp are the real part
      of numpy's complex functions).  Neither takes a complex literal (an
      imaginary part other than ±0), conj or log.  With every imaginary
      part zero, numpy's complex arithmetic rounds like the float
      operation below it: a + b, a * b, sin and cos exactly, exp up to an
      argument of 709 (above it numpy's complex exp scales the argument
      and may round another way); a / b as a * r, with r = 1.0 / b once
      per divisor; integer powers multiplied out in numpy's binary-
      exponentiation order.  So the code returns the array code's
      numbers while every value stays finite, up to the sign of an exact
      zero.  Equal lines are written once.
    - "point" writes each statement for the Python numbers of one point
      (see point).

    Neither float, batch nor point code takes an exponent beyond numpy's
    multiply chain (numpy's power goes through log there).  Each guards
    what could make a finite number of a non-finite one, or raise: a
    check fires where its operand is zero or not finite, as does the
    argument of sin, cos and exp, and float and batch code guard the
    product of a negative power; the last guards check that every output
    is finite.  A guard that fires returns its index (reasons says why),
    as the code does where Python raises, and eval_jet runs the point, or
    the whole batch, on the array code instead; a guard on a literal that
    would fire leaves the kind without code."""

    def __init__(self, em: _Emitter, kind: str):
        self.kind = kind
        self.lines: list[tuple] = []      # (target or None, source, names read)
        self.reasons: list[str] = []      # guard index -> why it fires
        self.made: dict[str, str] = {}    # source -> the local holding it; a guard's test -> None
        self.alias: dict[str, str] = {}   # tape local -> the local holding its value
        self.base = len(em.locals)       # the tape's locals are v0 .. v{base - 1}
        self.real = {f"x{a}" for a in range(2 * em.n)} | {"t"}   # point code's floats
        for target, op, args, text in em.tape:
            if kind == "array":
                self.lines.append((target, text, args))
            elif target is None:
                self.guard(args[0], f"{_REFUSALS[op]} or a non-finite operand", zero=True)
            elif op == "**" and not -_CHAIN_LIMIT < args[1] < _CHAIN_LIMIT:
                raise _NoFloatCode(f"exponent {args[1]} is outside numpy's multiply chain")
            else:
                if op in ("sin", "cos", "exp"):
                    # exp(-inf) is finite; sin and cos of a non-finite number are not
                    self.guard(args[0], f"non-finite argument of {op}")
                if kind == "point":
                    self.point(target, op, args, text)
                else:
                    self.real_valued(target, op, *args)

    def src(self, x) -> str:
        """An operand in the source; float-valued code has a float for a
        literal, and no code for a complex or non-finite one."""
        if isinstance(x, str):
            return self.alias.get(x, x)
        if self.kind not in ("float", "batch"):
            return _src(x)
        if x.imag != 0 or not math.isfinite(x.real):
            raise _NoFloatCode(f"{'non-finite' if x.imag == 0 else 'complex'} literal {x!r}")
        return repr(float(x.real))

    def write(self, text: str, *reads, target: str | None = None) -> str:
        """The local holding text: target's, or a new one's, unless an
        equal line was written before."""
        name = self.made.get(text)
        if name is None:
            name = self.made[text] = target or f"v{self.base + len(self.made)}"
            self.lines.append((name, text, reads))
        elif target:
            self.alias[target] = name
        return name

    def guard(self, x, reason: str, zero: bool = False, most: float | None = None):
        """Return the guard's index where x is not finite, or where zero
        and x == 0; or, given most (for a local), where not x <= most."""
        if not isinstance(x, str):
            if not (math.isfinite(x.real) and math.isfinite(x.imag)) or (zero and x == 0):
                raise _NoFloatCode(reason)
            return
        x = self.src(x)
        some, every = ("any", "all") if self.kind == "batch" else ("", "")
        ok = f"{x} - {x} == 0.0" if most is None else f"{x} <= {most!r}"
        test = f"not {every}({ok})"
        if zero:
            test = f"{some}({x} == 0.0) or {test}"
        if test not in self.made:
            self.made[test] = None
            self.lines.append((None, f"if {test}: return {len(self.reasons)}", (x,)))
            self.reasons.append(reason)

    def point(self, target, op, args, text):
        """A statement for the Python numbers of one point.  The operations
        below round each part of a complex number once, in Python as in
        numpy, so they run in Python: + and -, negation, conj, the
        textbook product of an outer product, and a product with a
        real-typed (a Python float) or a _plain operand.  Every other one
        is the array code's numpy call on scalars, on complex operands as
        there: the product of two complex values (numpy's rounds like an
        FMA), a / b, v ** k (_power), sin, cos, exp and log.  A guard
        fires where log's argument is a negative real number, whose branch
        the sign of a zero imaginary part picks, which a real-typed local
        does not carry."""
        x = args[0]
        if op == "log":
            self.lines.append((None, f"if not {x}.imag and {x}.real < 0.0: "
                               f"return {len(self.reasons)}", (x,)))
            self.reasons.append("log of a negative real number")
        reals = [a in self.real if type(a) is str else type(a) is float for a in args]
        real = all(reals)
        if op == "outer":
            text = " * ".join(map(_src, args))
        elif op == "conj":
            text = f"{x}.conjugate()"
        elif op not in ("+", "-", "neg") and not (op == "*" and any(
                r or _plain(a) for r, a in zip(reals, args))):
            srcs = [_src(a) for a in args]
            if real:
                srcs[0] = f"complex({srcs[0]})"
            text, real = f"{_POINT_CALLS.get(op, op)}({', '.join(srcs)})", False
        if real:
            self.real.add(target)
        self.lines.append((target, text, args))

    def real_valued(self, target, op, x, b=None):
        if op in ("log", "conj"):
            raise _NoFloatCode(f"{op} has no float code")
        if op == "**":
            return self.power(target, x, b)
        if op == "exp":
            # numpy's complex exp scales a larger argument and then
            # rounds unlike math.exp in the last bit
            self.guard(x, "argument of exp above 709", most=709.0)
        if b is None:
            sx = self.src(x)
            return self.write(f"-{sx}" if op == "neg" else f"{op}({sx})", sx, target=target)
        if op == "/":   # its check guards a local divisor; src refuses a non-finite literal
            b = self.write(f"1.0 / {self.src(b)}", self.src(b))
        sa, sb = self.src(x), self.src(b)
        op = "*" if op in ("/", "outer") else op
        return self.write(f"{sa} {op} {sb}", sa, sb, target=target)

    def power(self, target, v: str, k: int):
        """v ** k as numpy's complex power multiplies it out, by binary
        exponentiation, and for k < 0 one over that."""
        e, acc, sq = abs(k), None, self.src(v)
        while e:
            if e & 1:
                acc = sq if acc is None else self.real_valued(None, "*", acc, sq)
            e >>= 1
            if e:
                sq = self.real_valued(None, "*", sq, sq)
        if k < 0:
            # 1 / inf would hide the overflow, 1 / 0 is a domain error
            self.guard(acc, "zero or non-finite value to a negative power", zero=True)
            acc = self.write(f"1.0 / {acc}", acc)
        self.alias[target] = acc


_POINT_CALLS = {"*": "mul", "/": "div", "**": "power"}


def _compiled(em: _Emitter, kind: str, outs: list, finite: list | None = None):
    """em's tape written for kind (_Writer) as the function _jet(x0, ...,
    x{2n-1}, t=0.0) that returns outs, compiled in the kind's namespace:
    the function, its source and the reasons of its guards.  All but
    array code first guard each output of finite (default outs), in
    bounded sums (compile() recurses on a chain of +), and return a
    reason's index where Python or numpy raises one of float_errors.
    Code on arrays deletes each local after its last use.  _NoFloatCode
    where the kind has no code or compile() refuses it."""
    w = _Writer(em, kind)
    if kind != "array":
        names = list(dict.fromkeys(w.src(x) for x in (outs if finite is None else finite)
                                   if isinstance(x, str)))
        for k in range(0, len(names), _GUARD_TERMS):
            terms = names[k:k + _GUARD_TERMS]
            w.guard(w.write(" + ".join(terms), *terms) if len(terms) > 1 else terms[0],
                    "non-finite result")
    outs = [w.src(x) for x in outs]
    lines = w.lines if kind in ("float", "point") else _with_dels(w.lines, outs)
    lines = [text if lhs is None else f"{lhs} = {text}" for lhs, text, _ in lines]
    lines.append(f"return ({', '.join(outs)},)")
    if kind != "array":
        lines = ["try:", *(f"    {line}" for line in lines),
                 f"except float_errors: return {len(w.reasons)}"]
        w.reasons.append("Python or numpy raised OverflowError, ValueError, "
                         "ZeroDivisionError or FloatingPointError")
    params = "".join(f"x{a}, " for a in range(2 * em.n))
    source = f"def _jet({params}t=0.0):\n" + "".join(f"    {line}\n" for line in lines)
    try:
        return _compile(source, _NAMESPACES[kind])["_jet"], source, w.reasons
    except (RecursionError, MemoryError, SyntaxError) as e:
        raise _NoFloatCode(f"compile() refuses {kind} code of "
                           f"{source.count(chr(10))} lines: {type(e).__name__}: {e}") from None


class _Code:
    """The generated code of one field at one order and of one kind: the
    field's tape at that order written for the kind and compiled when it
    is built (_compiled).  The tape (the emitter, the outputs and their
    slots) is emitted once per field code and order and kept in
    f._code.tapes for every kind.  fn(x0, ..., x{2n-1}, t) returns the
    outputs, which slots places in a dense jet (the kinds other than
    array return instead the index of a guard that fired or of Python
    raising; reasons says why).  Raises _NoFloatCode where the field has
    no code of this kind (see _Writer) or compile() refuses the code.
    """

    def __init__(self, f: ScalarField, order: int, kind: str):
        t0 = perf_counter()
        tapes = f._code.tapes
        if order not in tapes:
            em = _Emitter(f.n, order)
            val, grad, hess = em.tree(f.root)
            two_n = 2 * f.n
            # the flat slot of each output in a dense (val, grad, hess) column
            slots = np.array([0, *(1 + a for a in grad),
                              *(1 + two_n * (1 + a) + b for a, b in hess)], dtype=np.intp)
            tapes[order] = em, [val, *grad.values(), *hess.values()], slots
        em, outs, self.slots = tapes[order]
        self.fn, self.source, self.reasons = _compiled(em, kind, outs)
        log.debug("%s code for %s at order %d: %d statements, %.3f ms", kind, f, order,
                  self.source.count("\n") - 1, 1e3 * (perf_counter() - t0))


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
        try:
            node = self.expr()
        except RecursionError:   # each parenthesis is a few calls deeper
            raise ExpressionError("expression nests too deeply", self.text,
                                  self._peek()[2]) from None
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


class _FieldCode:
    """A field's tapes by order (see _Code), its codes by (kind, order) (None
    where it has no code of a kind other than array), and as H of a
    system, the velocity kernels by s's code (dynamics.velocity_kernel;
    an entry goes when s's code does), and point, the (key, jet)
    point_jets evaluated last.  The fields of one parsed text share one
    (see _parsed)."""

    def __init__(self):
        self.tapes = {}
        self.codes = {}
        self.kernels = weakref.WeakKeyDictionary()
        self.point = None


@dataclass(frozen=True, eq=False)
class ScalarField:
    """An expression over an n-degree phase space, ready to evaluate and
    differentiate at any point."""

    root: Node
    n: int
    uses_time: bool
    is_real_form: bool
    _code: _FieldCode = field(default_factory=_FieldCode, repr=False)

    def __str__(self):
        return self.root.fold(lambda node, *args: _PRINT_RULES[type(node)](node, *args))[0]

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


#: fields kept by each store, _parsed's and linear_combination's (gchs
#: check parses 7 texts and 2n + 1 fixed fields, and combines 2)
_STORE_SIZE = 64


@lru_cache(maxsize=_STORE_SIZE)
def _parsed(text: str, n: int, allow_time: bool) -> ScalarField:
    # the store: the fields of the texts last parsed (never a parse error)
    return _make_field(_Parser(text, n, allow_time).parse(), n)


def parse_field(text: str, n: int, allow_time: bool = False) -> ScalarField:
    """Parse an expression string into a field over n degrees of freedom: a
    new field, sharing the tree and code of earlier ones of its text (_parsed)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return replace(_parsed(text, n, allow_time))


def _literal(c: float) -> Num:
    if math.isnan(float(c)):   # the grammar has no NaN literal
        raise ValueError("a field's coefficient must not be NaN")
    return Num(float(c))


def constant_field(c: float, n: int) -> ScalarField:
    return _make_field(_literal(c), n)


#: the fields of linear_combination, by the bits of a and b and the codes
#: of f and g, the last used last; at most _STORE_SIZE of them
_combinations: dict[tuple, ScalarField] = {}
_combinations_lock = threading.Lock()


def linear_combination(a: float, f: ScalarField, b: float, g: ScalarField) -> ScalarField:
    """The field a*f + b*g, used by the invariant suite: a new field,
    sharing the tree and code of earlier ones of the same combination.

    The store keys a and b by their exact bits (0.0 and -0.0 print apart)
    and f and g by their code, which the fields of one parsed text share
    (_parsed); never by a tree, whose == conflates 0.0 and -0.0 and whose
    hash would recurse as deep as the tree."""
    if f.n != g.n:
        raise ValueError("fields must share the same n")
    key = (float(a).hex(), f._code, float(b).hex(), g._code)
    with _combinations_lock:
        stored = _combinations.pop(key, None)
        if stored is None:
            stored = _make_field(Add(Mul(_literal(a), f.root), Mul(_literal(b), g.root)), f.n)
            if len(_combinations) >= _STORE_SIZE:
                del _combinations[next(iter(_combinations))]
        _combinations[key] = stored
    return replace(stored)


def coordinate_field(kind: str, j: int, n: int) -> ScalarField:
    """The bare coordinate q_j, p_j or z_j as a field."""
    if not 1 <= j <= n:
        raise ValueError(f"coordinate index out of range: {kind}{j} with n={n}")
    cls = {"q": CoordQ, "p": CoordP, "z": CoordZ}[kind]
    return _make_field(cls(j), n)


def conjugate_field(f: ScalarField) -> ScalarField:
    return _make_field(Func("conj", f.root), f.n)


def _amax(x: np.ndarray) -> float:
    # the largest magnitude; np.maximum.reduce is the reduction .max() runs
    return float(np.maximum.reduce(np.abs(x), axis=None)) if x.size else 0.0


class Jet:
    """A field's value and real partials over a batch of m points, dense:
    val (m,), grad (2n, m) and hess (2n, 2n, m), the last two None above
    the order asked for; float64 where a batch ran on batch code, else
    complex.

    The arrays every kernel derives from them are computed on first
    access and kept as long as the jet: wirtinger, the pair
    (df/dz, df/dzbar) of (n, m) arrays, and sym_hess, the Hessian
    symmetrized pairwise, (h + h^T) / 2 entry by entry.  Its memo keeps
    the rest: the largest magnitudes of amax, and the result of each
    kernel of two jets that _memoized makes, with this jet first.

    A jet may be shared by every caller at one point (point_jets), so
    every array it holds or derives is read-only."""

    __slots__ = ("val", "grad", "hess", "_wirtinger", "_sym_hess", "_memo",
                 "__weakref__")

    def __init__(self, val, grad=None, hess=None):
        self.val, self.grad, self.hess = val, grad, hess
        self._wirtinger = self._sym_hess = None
        self._memo = {}

    @property
    def n(self) -> int:
        """Degrees of freedom, read off the gradient (order 1 and up)."""
        return len(self.grad) // 2

    @property
    def wirtinger(self) -> tuple[np.ndarray, np.ndarray]:
        if self._wirtinger is None:
            n = self.n
            dz, dzbar = wirtinger_from_real(self.grad[:n], self.grad[n:])
            dz.setflags(False)   # as in _read_only, without its call
            dzbar.setflags(False)
            self._wirtinger = dz, dzbar
        return self._wirtinger

    @property
    def sym_hess(self) -> np.ndarray:
        if self._sym_hess is None:
            (self._sym_hess,) = _read_only(0.5 * (self.hess + np.swapaxes(self.hess, 0, 1)))
        return self._sym_hess

    def amax(self, part: str) -> float:
        """_amax of val, grad or a Wirtinger half, dz or dzbar: the scale
        of a dual-route check, computed once per jet."""
        memo = self._memo
        if part not in memo:
            memo[part] = _amax(getattr(self, part) if part in ("val", "grad")
                               else self.wirtinger[part == "dzbar"])
        return memo[part]


def _memoized(kernel):
    """kernel(a, b) of two jets, computed once per pair: the result is
    kept in a's memo, keyed by the kernel and b, held by a weak reference
    (so no jet keeps another alive, and a new jet is a new key even at
    the address of a dead one).  The body runs as __wrapped__.  Like the
    jets, the result is read-only, each array of a tuple too."""
    @functools.wraps(kernel)
    def memoized(a, b):
        memo, key = a._memo, (memoized, weakref.ref(b))
        out = memo.get(key)
        if out is None:
            out = memoized.__wrapped__(a, b)
            _read_only(*(out if type(out) is tuple else (out,)))
            memo[key] = out
        return out
    return memoized


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """arrays, each flagged read-only (see Jet).  setflags(False) is
    setflags(write=False): numpy parses the positional form in a third of
    the time, which a call at a new point pays once per array."""
    for a in arrays:
        a.setflags(False)
    return arrays


def eval_jet(f: ScalarField, Q: np.ndarray, P: np.ndarray,
             order: int = 0, time=None) -> Jet:
    """Evaluate a field over a batch of points, returning a jet.

    Q and P have shape (n, m).  This is the single entry point every
    bracket and rate in the package funnels through.  It runs the code
    written once per field, order and kind (see _Writer): at a single
    point (m == 1) the float code of a real-form field, and the point
    code of any other, into complex arrays; over a batch the batch code
    of a real-form field into float64 arrays; the array code, into
    complex arrays, everywhere else and wherever those fall back.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    if Q.shape != P.shape or Q.ndim != 2 or Q.shape[0] != f.n:
        raise ValueError(f"expected coordinate arrays of shape ({f.n}, m)")
    if f.uses_time and time is None:
        raise ValueError("field depends on t; pass time=")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    m = Q.shape[1]
    tval = None
    if time is not None:
        tval = np.broadcast_to(np.asarray(time, dtype=float), (m,))
    if m == 1 or f.is_real_form:
        jet = _float_jet(f, Q, P, order, tval)
        if jet is not None:
            return jet
    code = _code_for(f, order, "array")
    t = 0.0 if tval is None else tval.astype(complex)
    return _filled(code, code.fn(*Q.astype(complex), *P.astype(complex), t), f.n, order, m)


def _code_for(f: ScalarField, order: int, kind: str) -> _Code | None:
    """f's code of one kind at one order (None where a kind other than
    array has none), built once and cached in f._code."""
    codes, key = f._code.codes, (kind, order)
    if key not in codes:
        try:
            codes[key] = _Code(f, order, kind)
        except _NoFloatCode as e:
            if kind == "array":
                raise TypeError(str(e)) from None
            log.debug("no %s code for %s at order %d: %s", kind, f, order, e)
            codes[key] = None
    return codes[key]


def _size(n: int, order: int) -> int:
    # the slots of a dense jet, flat: val, grad, then hess row by row
    two_n = 2 * n
    return (1, 1 + two_n, (1 + two_n) ** 2 - two_n)[order]


def _split(buf: np.ndarray, n: int, order: int) -> Jet:
    # flagged once here, so every view sliced from buf is read-only too
    buf.setflags(False)   # as in _read_only, without its call
    two_n = 2 * n
    if order == 0:
        return Jet(buf[0])
    grad = buf[1:1 + two_n]
    if order == 1:
        return Jet(buf[0], grad)
    return Jet(buf[0], grad, buf[1 + two_n:].reshape(two_n, two_n, -1))


def _filled(code: _Code, out: tuple, n: int, order: int, m: int, dtype=complex) -> Jet:
    # the dense jet of code's outputs over m points
    buf = np.zeros((_size(n, order), m), dtype=dtype)
    for slot, x in zip(code.slots, out):
        buf[slot] = x
    return _split(buf, n, order)


def _float_jet(f: ScalarField, Q: np.ndarray, P: np.ndarray, order: int,
               tval) -> Jet | None:
    """The jet of eval_jet from f's code of a kind that never raises, or
    None where the array code has to compute it: at one point by the
    float code (a real-form field) or the point code (any other) on
    Python numbers, into complex arrays (numpy calls mixing dtypes cost
    more at size one); over a batch of a real-form field by the batch
    code, into float64 arrays."""
    m = Q.shape[1]
    code = _code_for(f, order, ("float" if f.is_real_form else "point") if m == 1
                     else "batch")
    if code is None:
        return None
    if m == 1:
        t = 0.0 if tval is None else float(tval[0])
        out = code.fn(*Q[:, 0].tolist(), *P[:, 0].tolist(), t)
    else:
        with np.errstate(all="ignore"):   # a guard hands a non-finite value on
            out = code.fn(*Q, *P, 0.0 if tval is None else tval)
    if type(out) is int:
        log.debug("%s at order %d falls back to the array code: %s", f, order,
                  code.reasons[out])
        return None
    if m > 1:
        return _filled(code, out, f.n, order, m, float)
    buf = np.zeros(_size(f.n, order), dtype=complex)
    buf[code.slots] = out
    return _split(buf[:, None], f.n, order)


def point_jets(pt: PhasePoint, *fields: ScalarField, order: int = 1,
               time=None) -> tuple[Jet, ...]:
    """Jets of each field at one point, as batches of size one.

    Each field's code keeps the jet it was last asked for here
    (_FieldCode.point), keyed by the exact bits of the point's
    coordinates, the order and the bits of the time.  A call with the
    same key returns that jet, so several questions at one point
    evaluate each field once; any other call evaluates the field and
    replaces the entry.  The jet is shared, which is why its arrays are
    read-only (see Jet)."""
    for f in fields:
        if f.n != pt.n:
            raise ValueError(f"field has n={f.n}, point has n={pt.n}")
    Q, P = pt.q[:, None], pt.p[:, None]
    key = (pt.q.tobytes(), pt.p.tobytes(), order,
           None if time is None else np.asarray(time, dtype=float).tobytes())
    jets = []
    for f in fields:
        code = f._code
        memo = code.point   # read once: another thread may replace it
        if memo is None or memo[0] != key:
            memo = code.point = (key, eval_jet(f, Q, P, order=order, time=time))
        jets.append(memo[1])
    return tuple(jets)


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


def gradient(f: ScalarField, pt: PhasePoint, time=None) -> WirtingerGradient:
    """All first Wirtinger derivatives of the field at a point."""
    (jet,) = point_jets(pt, f, order=1, time=time)
    dz, dzbar = jet.wirtinger
    return WirtingerGradient(dz[:, 0], dzbar[:, 0])


def second_derivatives(f: ScalarField, pt: PhasePoint, time=None) -> SecondDerivatives:
    """All second real partials at a point.

    Forward-mode products are symmetrized pairwise so the returned
    matrix satisfies matrix[a, b] == matrix[b, a] exactly.
    """
    (jet,) = point_jets(pt, f, order=2, time=time)
    return SecondDerivatives(jet.sym_hess[:, :, 0])
