"""Independent real-chart engine for cross-checking the complex one.

Everything here is deliberately written against the real-partial form
of the brackets, sharing no formula with the complex-chart routes, so
agreement between the two is a meaningful check and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .brackets import (StructuredSystem, _real_part, _time_free, gspb_jets,
                       pb_real_jets)
from .dynamics import CovariantRate, total_rate_jets
from .fields import ScalarField, eval_jet, point_jets
from .phasespace import PhasePoint


def gspb_real_jets(fj, gj, sj) -> np.ndarray:
    return (pb_real_jets(fj, gj)
            + fj.val * pb_real_jets(sj, gj)
            - gj.val * pb_real_jets(sj, fj))


def _real_rate_jets(fj, Hj, sj):
    """(thorough, w, total) from the real partials alone, the twin of
    dynamics.total_rate_jets; total is (pb(f,H) - H * pb(s,f)) + f * w."""
    w = _real_part(pb_real_jets(sj, Hj),
                   "structural flow rate in the real-chart engine")
    thorough = pb_real_jets(fj, Hj) - Hj.val * pb_real_jets(sj, fj)
    return thorough, w, thorough + fj.val * w


def gspb_real(f: ScalarField, g: ScalarField, sys: StructuredSystem,
              pt: PhasePoint) -> complex:
    """The structural bracket assembled purely from real partials."""
    fj, gj, sj = point_jets(pt, _time_free(f), _time_free(g), sys.structural)
    return complex(gspb_real_jets(fj, gj, sj)[0])


def gchs_real_rate(f: ScalarField, sys: StructuredSystem,
                   pt: PhasePoint) -> CovariantRate:
    """Covariant total rate from the real-chart engine."""
    fj, Hj, sj = point_jets(pt, _time_free(f), sys.hamiltonian, sys.structural)
    thorough, w, total = _real_rate_jets(fj, Hj, sj)
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
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    Q = np.stack([pt.q for pt in pts], axis=1)
    P = np.stack([pt.p for pt in pts], axis=1)

    fj, gj, Hj, sj = (eval_jet(field, Q, P, order=1)
                      for field in (_time_free(f), _time_free(g),
                                    sys.hamiltonian, sys.structural))

    gspb_c = gspb_jets(fj, gj, sj)
    gspb_r = gspb_real_jets(fj, gj, sj)

    _, w_c, total_c = total_rate_jets(fj, Hj, sj)
    _, w_r, total_r = _real_rate_jets(fj, Hj, sj)

    return CrossCheckReport(
        points=len(pts),
        max_gspb_dev=float(np.max(np.abs(gspb_c - gspb_r))),
        max_rate_dev=float(np.max(np.abs(total_c - total_r))),
        max_w_dev=float(np.max(np.abs(w_c - w_r))),
    )
