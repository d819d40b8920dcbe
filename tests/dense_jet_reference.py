"""Dense forward-mode jets: the reference for the generated jet code in
gchs.fields.

Every jet here carries a full complex gradient (2n, m) and Hessian
(2n, 2n, m) from the start, zeros included, and the arithmetic applies
the textbook formulas to all of them, on complex arrays.  The generated
code computes only the structurally nonzero entries and leaves out the
terms an identically zero factor would contribute; on finite values the
two give equal arrays up to the sign of an exact zero.  A subtree with
no coordinate in it has exact-zero derivatives here too, as in the
generated code, whatever its value.  (Elsewhere, where a value is not
finite, a dense jet multiplies it by a zero entry and gets NaN; a
left-out term has no such NaN.)

dense_eval walks a parsed field's expression tree with these jets.
"""

import operator

import numpy as np

from gchs import DomainError, fields


def _outer(x, y):
    return np.einsum("i...,j...->ij...", x, y)


class DenseJet:
    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if self.grad is None:
            return DenseJet(self.val + other.val)
        if self.hess is None:
            return DenseJet(self.val + other.val, self.grad + other.grad)
        return DenseJet(self.val + other.val, self.grad + other.grad,
                        self.hess + other.hess)

    def __sub__(self, other):
        if self.grad is None:
            return DenseJet(self.val - other.val)
        if self.hess is None:
            return DenseJet(self.val - other.val, self.grad - other.grad)
        return DenseJet(self.val - other.val, self.grad - other.grad,
                        self.hess - other.hess)

    def __neg__(self):
        if self.grad is None:
            return DenseJet(-self.val)
        if self.hess is None:
            return DenseJet(-self.val, -self.grad)
        return DenseJet(-self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        a, b = self, other
        val = a.val * b.val
        if a.grad is None:
            return DenseJet(val)
        grad = a.val * b.grad + b.val * a.grad
        if a.hess is None:
            return DenseJet(val, grad)
        hess = (a.val * b.hess + b.val * a.hess
                + _outer(a.grad, b.grad) + _outer(b.grad, a.grad))
        return DenseJet(val, grad, hess)

    def __truediv__(self, other):
        a, b = self, other
        if np.any(b.val == 0):
            raise DomainError("division by zero")
        val = a.val / b.val
        if a.grad is None:
            return DenseJet(val)
        grad = (a.grad - val * b.grad) / b.val
        if a.hess is None:
            return DenseJet(val, grad)
        hess = (a.hess - _outer(grad, b.grad) - _outer(b.grad, grad)
                - val * b.hess) / b.val
        return DenseJet(val, grad, hess)

    def __pow__(self, k):
        if k == 0:
            grad = None if self.grad is None else np.zeros_like(self.grad)
            hess = None if self.hess is None else np.zeros_like(self.hess)
            return DenseJet(np.ones_like(self.val), grad, hess)
        if k == 1:
            return self
        if k < 0 and np.any(self.val == 0):
            raise DomainError("zero raised to a negative power")
        return self._unary(
            self.val ** k,
            lambda v: k * v ** (k - 1),
            lambda v: k * (k - 1) * v ** (k - 2),
        )

    def _unary(self, val, d1fn, d2fn):
        if self.grad is None:
            return DenseJet(val)
        d1 = d1fn(self.val)
        grad = d1 * self.grad
        if self.hess is None:
            return DenseJet(val, grad)
        d2 = d2fn(self.val)
        hess = d1 * self.hess + d2 * _outer(self.grad, self.grad)
        return DenseJet(val, grad, hess)

    def sin(self):
        return self._unary(np.sin(self.val), np.cos, lambda v: -np.sin(v))

    def cos(self):
        return self._unary(np.cos(self.val), lambda v: -np.sin(v),
                           lambda v: -np.cos(v))

    def exp(self):
        e = np.exp(self.val)
        return self._unary(e, lambda v: e, lambda v: e)

    def log(self):
        if np.any(self.val == 0):
            raise DomainError("log of zero")
        return self._unary(np.log(self.val), lambda v: 1.0 / v,
                           lambda v: -1.0 / v ** 2)

    def conj(self):
        if self.grad is None:
            return DenseJet(np.conj(self.val))
        if self.hess is None:
            return DenseJet(np.conj(self.val), np.conj(self.grad))
        return DenseJet(np.conj(self.val), np.conj(self.grad),
                        np.conj(self.hess))


class DenseSpace:
    """The evaluation context of dense_eval: points, time, order, and the
    ids of the nodes whose subtree has no coordinate."""

    def __init__(self, n, Q, P, t, order, constant):
        self.n, self.Q, self.P, self.t, self.order = n, Q, P, t, order
        self.constant = constant
        self.m = Q.shape[1]

    def _zeros(self):
        grad = hess = None
        if self.order >= 1:
            grad = np.zeros((2 * self.n, self.m), dtype=complex)
        if self.order >= 2:
            hess = np.zeros((2 * self.n, 2 * self.n, self.m), dtype=complex)
        return grad, hess

    def const(self, c):
        val = np.broadcast_to(np.asarray(c, dtype=complex), (self.m,)).copy()
        return DenseJet(val, *self._zeros())

    def leaf(self, values, seeds):
        val = np.asarray(values, dtype=complex).copy()
        grad, hess = self._zeros()
        if grad is not None:
            for idx, coeff in seeds:
                grad[idx] = coeff
        return DenseJet(val, grad, hess)


_BINARY = {fields.Add: operator.add, fields.Sub: operator.sub,
           fields.Mul: operator.mul, fields.Div: operator.truediv}


_LEAVES = (fields.CoordQ, fields.CoordP, fields.CoordZ)


def _constants(node, out: set) -> bool:
    """Whether node's subtree has no coordinate; adds the id of every such
    node in it to out."""
    constant = not isinstance(node, _LEAVES)
    for child in node.children():
        constant &= _constants(child, out)
    if constant:
        out.add(id(node))
    return constant


def _walk(node, ctx):
    """The dense jet of one expression node."""
    if ctx.order and id(node) in ctx.constant:
        # exact zeros, also where the value is not finite: the dense
        # product rule would give inf * 0 = NaN (1 / exp(1000))
        at_order_0 = DenseSpace(ctx.n, ctx.Q, ctx.P, ctx.t, 0, ctx.constant)
        return DenseJet(_walk(node, at_order_0).val, *ctx._zeros())
    kind = type(node)
    if kind is fields.Num:
        return ctx.const(node.value)
    if kind is fields.ImagUnit:
        return ctx.const(1j)
    if kind is fields.TimeVar:
        # time is an evaluation parameter, not a differentiation variable
        return ctx.const(ctx.t)
    if kind is fields.CoordQ:
        return ctx.leaf(ctx.Q[node.j - 1], [(node.j - 1, 1.0)])
    if kind is fields.CoordP:
        return ctx.leaf(ctx.P[node.j - 1], [(ctx.n + node.j - 1, 1.0)])
    if kind is fields.CoordZ:
        k = node.j - 1
        return ctx.leaf(ctx.Q[k] + 1j * ctx.P[k], [(k, 1.0), (ctx.n + k, 1j)])
    if kind is fields.Neg:
        return -_walk(node.child, ctx)
    if kind is fields.Pow:
        return _walk(node.base, ctx) ** node.exponent
    if kind is fields.Func:
        return getattr(_walk(node.child, ctx), node.name)()
    return _BINARY[kind](_walk(node.left, ctx), _walk(node.right, ctx))


def dense_eval(f, Q, P, order, time=None):
    """The dense jet of field f at the points Q, P of shape (n, m)."""
    Q = np.asarray(Q, dtype=float)
    P = np.asarray(P, dtype=float)
    t = None
    if time is not None:
        t = np.broadcast_to(np.asarray(time, dtype=float), (Q.shape[1],))
    constant = set()
    _constants(f.root, constant)
    return _walk(f.root, DenseSpace(f.n, Q, P, t, order, constant))
