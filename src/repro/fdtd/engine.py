"""Time-domain solver engine: FDFD-compatible solves via pulsed FDTD runs.

:class:`FdtdFrequencyEngine` plugs the leapfrog stepper of
:mod:`repro.fdtd.core` into the engine registry under the name ``"fdtd"``, so
``Simulation(engine="fdtd")``, dataset generation and every other consumer of
the fidelity seam can select the time-domain tier without code changes.  A
``solve_batch`` call turns its right-hand sides back into current patterns
(``J = rhs / (i omega)``), runs one pulsed time-domain simulation with the
whole batch stacked along the leading dimension, and extracts the
frequency-domain fields with a spectrum-normalized running DFT at the warped
frequency — the result satisfies the FDFD equations at the target frequency
exactly in the interior (see :mod:`repro.fdtd.core`); accuracy is limited only
by the absorbing-boundary mismatch and the residual ring-down below
``decay_tol``.

The per-solve economics are the inverse of the direct tier: no factorization
to amortize, cost proportional to the number of timesteps instead.  Its
broadband superpower — many wavelengths from *one* run — lives in
:class:`repro.fdtd.broadband.FdtdSimulation`, which bypasses the one-frequency
``solve_batch`` shape.
"""

from __future__ import annotations

import numpy as np

from repro.fdfd.engine import SolverEngine, register_engine
from repro.fdfd.grid import Grid
from repro.fdtd.core import run_pulsed


class FdtdFrequencyEngine(SolverEngine):
    """Exact-stencil frequency-domain solves computed by time stepping.

    Parameters
    ----------
    courant:
        Fraction of the 2-D stability limit used for the timestep.
    tau_s:
        Pulse envelope width in seconds (auto-designed from the carrier by
        default, see :func:`repro.fdtd.core.design_pulse`).
    decay_tol:
        Relative field-envelope level at which the ring-down is considered
        finished; directly bounds the DFT truncation error.
    max_steps:
        Hard cap on the number of timesteps per run.
    check_every:
        Steps between decay checks.
    """

    name = "fdtd"

    def __init__(
        self,
        courant: float = 0.9,
        tau_s: float | None = None,
        decay_tol: float = 1e-3,
        max_steps: int = 200_000,
        check_every: int = 200,
        precision: str = "double",
    ):
        self.courant = float(courant)
        self.tau_s = tau_s
        self.decay_tol = float(decay_tol)
        self.max_steps = int(max_steps)
        self.check_every = int(check_every)
        self.precision = str(precision)

    @property
    def supports_warm_start(self) -> bool:
        return False

    @property
    def fidelity_signature(self) -> tuple:
        # Deterministic across instances: two engines with identical stepping
        # parameters produce identical fields, so their normalization cache
        # entries are safely interchangeable — but never with
        # another tier's ("exact" direct solves in particular).
        return (
            "fdtd",
            self.courant,
            self.tau_s,
            self.decay_tol,
            self.max_steps,
            self.precision,
        )

    def solve_batch(self, grid: Grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        currents = np.asarray(rhs, dtype=complex) / (1j * float(omega))
        fields = run_pulsed(
            grid,
            eps_r,
            currents,
            np.array([float(omega)]),
            courant=self.courant,
            tau_s=self.tau_s,
            decay_tol=self.decay_tol,
            max_steps=self.max_steps,
            check_every=self.check_every,
            precision=self.precision,
        )
        return fields[0]


register_engine("fdtd", FdtdFrequencyEngine)
