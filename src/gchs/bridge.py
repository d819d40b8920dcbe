"""Independent real-chart engine for cross-checking the complex one.

Everything here is deliberately written against the real-partial form
of the brackets, sharing no formula with the complex-chart routes, so
agreement between the two is a meaningful check and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brackets import StructuredSystem, pb_real_jets
from .dynamics import CovariantRate
from .errors import RealnessError
from .fields import ScalarField, eval_jet, point_jets
from .phasespace import PhasePoint


def _w_real(Hj, sj, n: int) -> np.ndarray:
    w = pb_real_jets(sj, Hj, n)
    dev = float(np.max(np.abs(w.imag))) if w.size else 0.0
    if dev > 1e-10 * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0):
        raise RealnessError("structural flow rate came out complex in the "
                            "real-chart engine; H and s must be real-valued")
    return w.real


def gspb_real_jets(fj, gj, sj, n: int) -> np.ndarray:
    return (pb_real_jets(fj, gj, n)
            + fj.val * pb_real_jets(sj, gj, n)
            - gj.val * pb_real_jets(sj, fj, n))


def gspb_real(f: ScalarField, g: ScalarField, sys: StructuredSystem,
              pt: PhasePoint) -> complex:
    """The structural bracket assembled purely from real partials."""
    fj, gj, sj = point_jets(pt, f, g, sys.structural)
    return complex(gspb_real_jets(fj, gj, sj, sys.n)[0])


def gchs_real_rate(f: ScalarField, sys: StructuredSystem,
                   pt: PhasePoint) -> CovariantRate:
    """Covariant total rate from the real-chart engine."""
    fj, Hj, sj = point_jets(pt, f, sys.hamiltonian, sys.structural)
    n = sys.n
    w = _w_real(Hj, sj, n)
    thorough = pb_real_jets(fj, Hj, n) - Hj.val * pb_real_jets(sj, fj, n)
    total = thorough + fj.val * w
    return CovariantRate(value=complex(fj.val[0]), thorough=complex(thorough[0]),
                         sdyn=float(w[0]), total=complex(total[0]))


@dataclass(frozen=True)
class CrossCheckReport:
    """Maximum deviations between the complex-chart and real-chart engines."""

    points: int
    max_gspb_dev: float
    max_rate_dev: float
    max_w_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.max_gspb_dev, self.max_rate_dev, self.max_w_dev)


def cross_check(f: ScalarField, g: ScalarField, sys: StructuredSystem,
                points: Sequence[PhasePoint]) -> CrossCheckReport:
    """Run both engines over a batch of points and report the gaps."""
    from .brackets import gspb_jets
    from .dynamics import total_rate_jets

    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    Q = np.stack([pt.q for pt in pts], axis=1)
    P = np.stack([pt.p for pt in pts], axis=1)
    n = sys.n

    fj, gj, Hj, sj = (eval_jet(field, Q, P, order=1)
                      for field in (f, g, sys.hamiltonian, sys.structural))

    gspb_c = gspb_jets(fj, gj, sj, n)
    gspb_r = gspb_real_jets(fj, gj, sj, n)

    _, w_c, total_c = total_rate_jets(fj, Hj, sj, n)
    w_r = _w_real(Hj, sj, n)
    total_r = (pb_real_jets(fj, Hj, n) - Hj.val * pb_real_jets(sj, fj, n)
               + fj.val * w_r)

    return CrossCheckReport(
        points=len(pts),
        max_gspb_dev=float(np.max(np.abs(gspb_c - gspb_r))),
        max_rate_dev=float(np.max(np.abs(total_c - total_r))),
        max_w_dev=float(np.max(np.abs(w_c - w_r))),
    )
