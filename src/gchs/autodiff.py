"""Vectorized forward-mode jets.

A jet carries the value of an expression at a batch of points together
with its derivatives with respect to the 2n real phase coordinates
(q1..qn, p1..pn).  Order 0 holds values only, order 1 adds the gradient,
order 2 the full Hessian.  Every slot is complex so the same arithmetic
serves complex-valued observables; for expressions built from real
operations on real coordinates the imaginary parts stay exactly zero.

Shapes, with m the batch size:

    val   (m,)
    grad  (2n, m)
    hess  (2n, 2n, m)

One tree walk therefore yields value, gradient and Hessian at every
point of the batch simultaneously.

Inside the walk a derivative slot of None means identically zero:
numbers, i and t carry only a value, a coordinate leaf has no Hessian,
and the arithmetic skips every term with an absent factor.  Each entry
still sums its present terms left to right in the order of the dense
formulas, so, since x + 0 == x, the values are those of dense jets up to
the sign of an exact zero while every value stays finite.  (Where a
value is not finite, a dense jet would multiply it by a zero slot and
get NaN; a skipped term has no such NaN.)  A jet knows its order, since
a product of two gradients makes a Hessian term only at order 2.
JetSpace.dense fills the absent slots with zeros where eval_jet hands a
jet out, so callers always see the shapes above.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _outer(x, y):
    # outer product over the derivative axis, batched over the rest
    if x is None or y is None:
        return None
    return np.einsum("i...,j...->ij...", x, y)


# slot arithmetic, where None is an identically zero slot


def _add(x, y):
    return y if x is None else x if y is None else x + y


def _sub(x, y):
    return x if y is None else -y if x is None else x - y


def _times(c, x):
    return None if x is None else c * x


def _over(x, d):
    return None if x is None else x / d


def _map(fn, x):
    return None if x is None else fn(x)


class Jet:
    __slots__ = ("val", "grad", "hess", "order")

    def __init__(self, val, grad=None, hess=None, order=0):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.order = order

    # ---- arithmetic -------------------------------------------------

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.val + other.val, _add(self.grad, other.grad),
                   _add(self.hess, other.hess), self.order)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.val - other.val, _sub(self.grad, other.grad),
                   _sub(self.hess, other.hess), self.order)

    def __neg__(self) -> "Jet":
        return Jet(-self.val, _map(np.negative, self.grad),
                   _map(np.negative, self.hess), self.order)

    def __mul__(self, other: "Jet") -> "Jet":
        a, b = self, other
        grad = _add(_times(a.val, b.grad), _times(b.val, a.grad))
        hess = None
        if self.order == 2:
            hess = _add(_add(_add(_times(a.val, b.hess), _times(b.val, a.hess)),
                             _outer(a.grad, b.grad)), _outer(b.grad, a.grad))
        return Jet(a.val * b.val, grad, hess, self.order)

    def __truediv__(self, other: "Jet") -> "Jet":
        a, b = self, other
        if np.any(b.val == 0):
            raise DomainError("division by zero")
        val = a.val / b.val
        grad = _over(_sub(a.grad, _times(val, b.grad)), b.val)
        hess = None
        if self.order == 2:
            hess = _over(_sub(_sub(_sub(a.hess, _outer(grad, b.grad)),
                                   _outer(b.grad, grad)), _times(val, b.hess)),
                         b.val)
        return Jet(val, grad, hess, self.order)

    def __pow__(self, k: int) -> "Jet":
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            # x**0 is the constant 1, its derivatives vanish
            return Jet(np.ones_like(self.val), order=self.order)
        if k == 1:
            return self
        if k < 0 and np.any(self.val == 0):
            raise DomainError("zero raised to a negative power")
        return self._unary(
            self.val ** k,
            lambda v: k * v ** (k - 1),
            lambda v: k * (k - 1) * v ** (k - 2),
        )

    # ---- elementary functions ---------------------------------------

    def _unary(self, val, d1fn, d2fn) -> "Jet":
        if self.grad is None:
            return Jet(val, order=self.order)
        d1 = d1fn(self.val)
        hess = None
        if self.order == 2:
            hess = _add(_times(d1, self.hess),
                        d2fn(self.val) * _outer(self.grad, self.grad))
        return Jet(val, d1 * self.grad, hess, self.order)

    def sin(self) -> "Jet":
        return self._unary(np.sin(self.val), np.cos, lambda v: -np.sin(v))

    def cos(self) -> "Jet":
        return self._unary(np.cos(self.val), lambda v: -np.sin(v), lambda v: -np.cos(v))

    def exp(self) -> "Jet":
        e = np.exp(self.val)
        return self._unary(e, lambda v: e, lambda v: e)

    def log(self) -> "Jet":
        if np.any(self.val == 0):
            raise DomainError("log of zero")
        return self._unary(np.log(self.val), lambda v: 1.0 / v, lambda v: -1.0 / v ** 2)

    def conj(self) -> "Jet":
        # differentiation variables are real, so conjugation commutes
        # with every derivative slot
        return Jet(np.conj(self.val), _map(np.conj, self.grad),
                   _map(np.conj, self.hess), self.order)


class JetSpace:
    """One evaluation: the points Q, P of shape (n, m) of an n-degree
    phase space, the time t (shape (m,), or None) and the derivative
    order.  Expression nodes build their jets from it."""

    __slots__ = ("n", "Q", "P", "t", "m", "order")

    def __init__(self, n: int, Q: np.ndarray, P: np.ndarray, t, order: int):
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        self.n, self.Q, self.P, self.t, self.order = n, Q, P, t, order
        self.m = Q.shape[1]

    def const(self, c: complex | np.ndarray) -> Jet:
        val = np.broadcast_to(np.asarray(c, dtype=complex), (self.m,)).copy()
        return Jet(val, order=self.order)

    def leaf(self, values: np.ndarray, seeds: list[tuple[int, complex]]) -> Jet:
        """A coordinate-like leaf: given values and unit derivative seeds."""
        val = np.asarray(values, dtype=complex).copy()
        grad = None
        if self.order:
            grad = np.zeros((2 * self.n, self.m), dtype=complex)
            for idx, coeff in seeds:
                grad[idx] = coeff
        return Jet(val, grad, order=self.order)

    def dense(self, jet: Jet) -> Jet:
        """The jet with zeros in its absent slots up to the order."""
        two_n, m = 2 * self.n, self.m
        grad, hess = jet.grad, jet.hess
        if self.order and grad is None:
            grad = np.zeros((two_n, m), dtype=complex)
        if self.order == 2 and hess is None:
            hess = np.zeros((two_n, two_n, m), dtype=complex)
        return Jet(jet.val, grad, hess, self.order)
