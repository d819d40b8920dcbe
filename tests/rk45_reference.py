"""Dormand-Prince 5(4) on numpy arrays: the reference for the RK45 float
march in gchs.integrate.

Every operation is one elementwise numpy operation on the flat state, so
each rounds once per component, and they come in the float march's order:

- stage j's point is x + h*(a_j1*k1 + a_j2*k2 + ...), the sum taken left
  to right over the nonzero entries of the tableau;
- the last row of the tableau is the fifth-order weights, so the new
  state x5 is the last stage's point;
- the error is sqrt(s / 2n), where s sums r*r left to right (cumsum) and
  r = (x5 - x4) / (abs_tol + rel_tol*max(|x|, |x5|)).

No np.dot: it goes through BLAS, whose summation order depends on the
CPU.  The step controller and the horizon rule are those of the float
march, so both must give the same times and states bit for bit.

rhs(t, x) takes and returns float64 arrays of shape (2n,).
"""

import numpy as np
from rk4_reference import check_norm

from gchs import StepUnderflowError

C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
B4 = [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
      187 / 2100, 1 / 40]


def stage_point(x, h, weights, k):
    """x + h * (the weighted sum of the stages k, left to right, zero
    weights left out)."""
    acc = None
    for w, kj in zip(weights, k):
        if w != 0.0:
            acc = w * kj if acc is None else acc + w * kj
    return x + h * acc


def adaptive_rk45(rhs, x0: np.ndarray, cfg):
    """(times, states, accepted, rejected) of the march of rhs from x0
    under cfg."""
    t_end = cfg.t_end
    near = 1e-12 * max(1.0, t_end)

    times = [0.0]
    states = [x0.copy()]
    check_norm(x0, 0.0, cfg.max_norm)
    t = 0.0
    x = x0.copy()
    h = min(t_end, max(1e-6, t_end / 100.0))
    err_prev = 1.0
    accepted = rejected = 0

    while t_end - t > near:
        capped = h >= t_end - t
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepUnderflowError(h, t)

        k = [rhs(t, x)]
        for i in range(1, 7):
            xi = stage_point(x, h, A[i], k)
            k.append(rhs(t + C[i] * h, xi))
        x5 = xi
        x4 = stage_point(x, h, B4, k)
        r = (x5 - x4) / (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(x), np.abs(x5)))
        err = float(np.sqrt(np.cumsum(r * r)[-1] / x.size))

        if err <= 1.0:
            t = t_end if capped else t + h
            x = x5
            check_norm(x, t, cfg.max_norm)
            accepted += 1
            if accepted % cfg.stride == 0:
                times.append(t)
                states.append(x.copy())
            e = max(err, 1e-10)
            factor = 0.9 * e ** -0.14 * err_prev ** 0.08
            err_prev = e
        else:
            rejected += 1
            factor = 0.9 * max(err, 1e-10) ** -0.2
        h = h * min(5.0, max(0.2, factor))

    if abs(times[-1] - t_end) > near:
        times.append(t_end)
        states.append(x.copy())
    return np.array(times), np.array(states), accepted, rejected
