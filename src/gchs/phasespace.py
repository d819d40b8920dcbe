"""Phase-space points in paired real and complex form.

The real coordinates (q1..qn, p1..pn) are the source of truth; the
complex chart z_j = q_j + i p_j is derived on demand.  Derivatives with
respect to z_j and conj(z_j) follow the usual complex-chart rules

    d/dz    = (d/dq - i d/dp) / 2
    d/dzbar = (d/dq + i d/dp) / 2

and these two conversions are exact inverses of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A single point (q, p) in a 2n-dimensional real phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape or q.size < 1:
            raise ValueError("q and p must be 1-d arrays of equal positive length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase-space coordinates must be finite")
        q = q.copy()
        p = p.copy()
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size

    def flat(self) -> np.ndarray:
        """Concatenated (q1..qn, p1..pn) copy, the layout the integrators use."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_flat(cls, x: np.ndarray) -> "PhasePoint":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2 != 0:
            raise ValueError("flat state must be a 1-d array of even length")
        n = x.size // 2
        return cls(x[:n], x[n:])

    def __repr__(self):
        return f"PhasePoint(q={self.q.tolist()}, p={self.p.tolist()})"


@dataclass(frozen=True, eq=False)
class ComplexCoords:
    """The same point in the complex chart z_j = q_j + i p_j."""

    z: np.ndarray

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex)).copy()
        if z.ndim != 1 or z.size < 1:
            raise ValueError("z must be a 1-d array of positive length")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.z.size

    def __repr__(self):
        return f"ComplexCoords(z={self.z.tolist()})"


def to_complex(pt: PhasePoint) -> ComplexCoords:
    """Map (q, p) to z = q + i p componentwise."""
    return ComplexCoords(pt.q + 1j * pt.p)


def from_complex(zc: ComplexCoords) -> PhasePoint:
    """Map z back to (Re z, Im z).  Rejects non-finite components."""
    z = zc.z
    if not np.all(np.isfinite(z)):
        raise ValueError("complex coordinates must be finite")
    return PhasePoint(z.real, z.imag)


def wirtinger_from_real(dq: complex, dp: complex) -> tuple[complex, complex]:
    """Convert real partials (df/dq, df/dp) into (df/dz, df/dzbar);
    numbers or arrays of one shape."""
    dz = 0.5 * (dq - 1j * dp)
    dzbar = 0.5 * (dq + 1j * dp)
    return dz, dzbar


def real_from_wirtinger(dz: complex, dzbar: complex) -> tuple[complex, complex]:
    """Inverse of wirtinger_from_real: recover (df/dq, df/dp)."""
    dq = dz + dzbar
    dp = 1j * (dz - dzbar)
    return dq, dp
