"""Fixed-step RK4 on numpy arrays: the reference for the float march in
gchs.integrate.

This is the array form of the stepper: every stage and the final
combination are whole-array numpy operations on the flat state, and the
blow-up test takes the max of the absolute state after each step.  The
float march in gchs.integrate must give the same times and states bit
for bit, and the same BlowUpError (norm and t), for the same
right-hand side.

rhs(t, x) takes and returns float64 arrays of shape (2n,).
"""

import numpy as np

from gchs import BlowUpError


def check_norm(x: np.ndarray, t: float, max_norm: float):
    norm = float(np.max(np.abs(x)))
    if not (norm <= max_norm):
        raise BlowUpError(norm, t)


def fixed_rk4(rhs, x0: np.ndarray, cfg):
    """(times, states) of the march of rhs from x0 under cfg."""
    h = cfg.step
    t_end = cfg.t_end
    nfull = int(np.floor(t_end / h + 1e-12))
    rem = t_end - nfull * h
    if rem <= 1e-12 * max(1.0, t_end):
        rem = 0.0

    times = [0.0]
    states = [x0.copy()]
    check_norm(x0, 0.0, cfg.max_norm)
    x = x0.copy()
    steps = 0

    def advance(t, x, h):
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    for i in range(nfull):
        t = i * h
        x = advance(t, x, h)
        t_next = (i + 1) * h
        check_norm(x, t_next, cfg.max_norm)
        steps += 1
        if steps % cfg.stride == 0:
            times.append(t_next)
            states.append(x.copy())
    if rem > 0.0:
        x = advance(nfull * h, x, rem)
        check_norm(x, t_end, cfg.max_norm)
        steps += 1
    if abs(times[-1] - t_end) > 1e-12 * max(1.0, abs(t_end)):
        times.append(t_end)
        states.append(x.copy())
    return np.array(times), np.array(states)
