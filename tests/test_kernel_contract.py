"""The batched kernels take a jet first.

A profiler that wraps the *_jets kernels reads the batch size of a call
off its first argument (`args[0].val`), so every kernel of brackets,
dynamics and bridge keeps a fields.Jet in that place, whatever caches
the jets carry.
"""

import sys

import numpy as np

from gchs import (PhasePoint, beta, brackets, bridge, covariant_acceleration,
                  dynamics, gchs_rate, gspb, gspb_real, parse_field,
                  run_invariant_suite, s_dynamics)
from gchs.checks import random_system
from gchs.fields import Jet


def _kernels():
    """(module, name, function) of every *_jets function defined in
    brackets, dynamics and bridge."""
    for mod in (brackets, dynamics, bridge):
        for name, fn in vars(mod).items():
            if (name.endswith("_jets") and callable(fn)
                    and fn.__module__ == mod.__name__):
                yield mod, name, fn


def _wrap_kernels(monkeypatch):
    """Rebind every kernel, wherever a gchs module holds it, to a wrapper
    that records (name, first argument); returns the record."""
    calls = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "gchs" or key.startswith("gchs."))]
    for mod, name, fn in list(_kernels()):
        def wrapper(*args, _fn=fn, _name=f"{mod.__name__}.{name}", **kwargs):
            calls.append((_name, args[0] if args else None))
            return _fn(*args, **kwargs)

        for holder in modules:
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    monkeypatch.setattr(holder, attr, wrapper)
    return calls


def test_every_kernel_call_takes_a_jet_first(monkeypatch):
    calls = _wrap_kernels(monkeypatch)

    system = random_system(np.random.default_rng(3), 2, max_degree=3)
    run_invariant_suite(system, 42, 30, initial=PhasePoint([0.3, -0.2], [0.1, 0.4]))

    f = parse_field("z1 * conj(z2) - i * q1 * p2", 2)
    g = parse_field("conj(z1) * z2 + i * p1^2", 2)
    pt = PhasePoint([0.4, -0.7], [0.2, 0.5])
    gspb(f, g, system, pt)
    gspb_real(f, g, system, pt)
    gspb(f, system.hamiltonian, system, pt)
    gchs_rate(f, system, pt)
    s_dynamics(system, pt)
    beta(system, pt)
    covariant_acceleration(f, system, pt)

    names = {name for name, _ in calls}
    assert {"gchs.brackets.gspb_jets", "gchs.brackets.sdyn_jets",
            "gchs.dynamics.flow_gradient_jets", "gchs.dynamics.beta_jets",
            "gchs.dynamics.acceleration_jets", "gchs.dynamics.total_rate_jets",
            "gchs.bridge.gspb_real_jets"} <= names
    bad = [(name, type(first).__name__) for name, first in calls
           if not (isinstance(first, Jet) and np.ndim(first.val) == 1)]
    assert not bad
