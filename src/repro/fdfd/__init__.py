"""A 2-D finite-difference frequency-domain (FDFD) Maxwell solver.

The solver works with the Ez polarization (TM in the photonics convention:
fields ``Ez``, ``Hx``, ``Hy``) on a uniform Yee grid with stretched-coordinate
perfectly matched layers (SC-PML).

Architecture — solver engines and fidelity tiers
------------------------------------------------
Every linear solve in the package flows through the pluggable engine layer in
:mod:`repro.fdfd.engine`:

* :class:`~repro.fdfd.engine.SolverEngine` — the fidelity seam: a batched
  ``solve_batch(grid, omega, eps_r, rhs_stack)`` interface.
* :class:`~repro.fdfd.engine.DirectEngine` — exact SuperLU solves; one
  factorization per ``(grid, omega, permittivity)`` serves arbitrarily many
  stacked right-hand sides (forward, adjoint and normalization solves).
  Every LU in the package is an exact complex128 factor built by
  :func:`~repro.fdfd.engine.factor_lu`.  Given a device's design region, a
  solve that names its port rows and whose right-hand sides vanish off the
  region and those rows condenses onto the region's Schur complement;
  every other solve is one full-grid solve.
* :class:`~repro.fdfd.engine.RecycledEngine` — the optimization-loop tier,
  on a device's design region only: the exact LU of a reference Schur
  complement refines the nearby operators an optimizer visits
  (refactorizing when refinement fails), with warm starts threaded through a
  :class:`~repro.fdfd.engine.SolveWorkspace`.
* ``"neural"`` — a trained surrogate (registered by :mod:`repro.surrogate`),
  making the switch between an exact tier and a learned one a one-line
  engine swap.  Discretization fidelity (a device's ``fidelity="low"`` or
  ``"high"``) sets the grid, not the engine.
* :class:`~repro.fdfd.engine.FactorizationCache` — a process-wide LRU keyed by
  ``(grid, omega, eps fingerprint)``, shared by every engine instance so that
  independent call sites (simulations, normalization runs, adjoint solves,
  dataset generation) never duplicate a factorization.

On top of the engines the package provides:

* sparse assembly of the Maxwell operator ``A(eps_r)``,
* :class:`~repro.fdfd.solver.FdfdSolver`, a thin shim binding one
  ``(grid, omega)`` pair to an engine, with batched multi-RHS entry points,
* a 1-D slab eigenmode solver for waveguide port sources and modal overlaps,
* flux and S-parameter monitors,
* adjoint solves and permittivity gradients for inverse design, and
* the high-level :class:`~repro.fdfd.simulation.Simulation` facade — including
  :meth:`~repro.fdfd.simulation.Simulation.solve_multi`, which batches all
  excitations of a device into one factorize-once/solve-many call — used by
  the device library, the dataset generator and the inverse-design toolkit,
* the nonlinear (Kerr) tier in :mod:`repro.fdfd.nonlinear` —
  :class:`~repro.fdfd.nonlinear.KerrSolver` damped-Born/Newton fixed points
  whose inner iterations are diagonal-only operator updates riding the same
  engine seam, fronted by
  :class:`~repro.fdfd.nonlinear.NonlinearSimulation`.
"""

from repro.fdfd.grid import Grid
from repro.fdfd.engine import (
    DirectEngine,
    FactorizationCache,
    RecycledEngine,
    SolverEngine,
    SolveWorkspace,
    available_engines,
    default_factorization_cache,
    eps_fingerprint,
    make_engine,
    resolve_engine,
    warmup_operators,
)
from repro.fdfd.solver import FdfdSolver
from repro.fdfd.modes import solve_slab_modes, solve_slab_modes_batch, ModeProfile
from repro.fdfd.monitors import Port, poynting_flux_through_port, mode_overlap
from repro.fdfd.simulation import ExcitationSpec, Simulation, SimulationResult
from repro.fdfd.nonlinear import (
    ConvergenceError,
    KerrNonlinearity,
    KerrSolver,
    NonlinearSimulation,
    NonlinearStats,
    kerr_eps_effective,
)

__all__ = [
    "Grid",
    "FdfdSolver",
    "SolverEngine",
    "DirectEngine",
    "RecycledEngine",
    "SolveWorkspace",
    "FactorizationCache",
    "default_factorization_cache",
    "eps_fingerprint",
    "make_engine",
    "resolve_engine",
    "available_engines",
    "warmup_operators",
    "solve_slab_modes",
    "solve_slab_modes_batch",
    "ModeProfile",
    "Port",
    "poynting_flux_through_port",
    "mode_overlap",
    "ExcitationSpec",
    "Simulation",
    "SimulationResult",
    "ConvergenceError",
    "KerrNonlinearity",
    "KerrSolver",
    "NonlinearSimulation",
    "NonlinearStats",
    "kerr_eps_effective",
]
