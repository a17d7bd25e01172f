"""Kerr-type nonlinear FDFD on the recycling seam.

The nonlinear tier solves ``A(eps_eff) Ez = i omega J`` self-consistently for
a field-dependent permittivity

    ``eps_eff = eps_r + chi3 * |Ez|^2``

(the instantaneous Kerr effect; ``chi3`` is a real map over the grid, zero
outside the nonlinear material).  Two fixed-point strategies are provided:

* **damped Born** — re-solve the *linear* problem at the current
  ``eps_eff`` and relax toward the new field, backtracking the damping factor
  whenever the true nonlinear residual would increase;
* **Newton** — solve the linearized Kerr system.  The Jacobian splits into
  ``dF/dE = A(eps_r + 2 chi3 |E|^2)`` — a *standard* FDFD operator with a
  modified diagonal — plus a diagonal conjugate coupling
  ``dF/dE* = omega^2 eps0 chi3 E^2``, handled by a few cheap inner sweeps
  against the same operator.

Every inner solve goes through the ordinary engine seam (any
:class:`~repro.fdfd.engine.SolverEngine` or registry name), and consecutive
iterations differ *only on the operator diagonal* — exactly the update
:class:`~repro.fdfd.engine.RecycledEngine` refines against its reference LU
instead of refactorizing, which is what makes the nonlinear loop cheap.
``direct`` remains the oracle: every iteration is an exact solve.

Given ``port_rows`` and an engine with a design region (where ``chi3``
lives), every inner solve condenses onto the region and takes the engine's
port block: Newton residuals are zeroed on the linear exterior equations,
which hold only LU roundoff.

Adjoint gradients go *through* the converged fixed point via the
implicit-function theorem.  At convergence ``F(E, E*, eps) = 0``, so for a
real objective ``G`` with adjoint source ``g = dG/dEz`` (the standard
convention of :mod:`repro.invdes.objectives`) the adjoint field solves the
conjugate-coupled system

    ``A(eps_r + 2 chi3 |E|^2) lam + conj(omega^2 eps0 chi3 E^2) conj(lam) = g``

— one solve with the (symmetric) Newton operator plus a couple of coupling
sweeps, the "two extra solves" of the nonlinear adjoint — after which the
permittivity gradient is the *same* ``-2 omega^2 eps0 Re(lam * Ez)`` formula
as the linear path (:meth:`~repro.fdfd.solver.FdfdSolver.permittivity_gradient`).

:class:`NonlinearSimulation` packages all of this behind the familiar
:class:`~repro.fdfd.simulation.Simulation` facade with a ``source_scale``
power knob; convergence telemetry rides in :class:`NonlinearStats` and
failures raise :class:`ConvergenceError` loudly instead of returning silent
wrong fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields, replace

import numpy as np

from repro.constants import EPSILON_0
from repro.fdfd.engine import (
    SolverEngine,
    StatsCounters,
    assemble_system_matrix,
    eps_fingerprint,
    resolve_engine,
    scoped_stats,
    update_system_diagonal,
)
from repro.fdfd.grid import Grid
from repro.fdfd.simulation import Simulation, SimulationResult

__all__ = [
    "ConvergenceError",
    "KerrNonlinearity",
    "KerrSolver",
    "NonlinearSimulation",
    "NonlinearStats",
    "kerr_eps_effective",
]


class ConvergenceError(RuntimeError):
    """The nonlinear fixed point failed to converge.

    Raised when the iteration cap is exhausted or backtracking hits the
    damping floor — typically past the bistability/power threshold of a
    self-focusing Kerr problem, where no stable fixed point is reachable by
    relaxation.  Carries the :class:`NonlinearStats` collected so far so
    callers can inspect the residual history instead of silently consuming
    wrong fields.
    """

    def __init__(self, message: str, stats: "NonlinearStats"):
        super().__init__(message)
        self.stats = stats


@dataclass
class NonlinearStats:
    """Convergence telemetry of one nonlinear solve."""

    method: str = "born"
    #: Accepted damped-Born relaxation steps.
    born_iterations: int = 0
    #: Accepted Newton steps.
    newton_iterations: int = 0
    #: Linear solves performed through the inner engine (including the
    #: initial linear solve and any Newton/adjoint coupling sweeps).
    inner_solves: int = 0
    #: Relative nonlinear residual ||A(eps_eff)E - b|| / ||b|| after the
    #: initial linear solve and after every accepted step.
    residuals: list[float] = field(default_factory=list)
    #: Backtracking halvings of the damping factor.
    damping_events: int = 0
    #: Damping factor in effect when the solve finished.
    final_damping: float = 1.0
    converged: bool = False
    #: Scoped per-solve counters of the inner engine (and its factorization
    #: cache), keyed by holder name — what *this* solve cost, not the
    #: engine's lifetime totals (see :func:`repro.fdfd.engine.scoped_stats`).
    engine_stats: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        """Accepted outer iterations (Born or Newton)."""
        return self.born_iterations + self.newton_iterations


@dataclass(frozen=True)
class KerrNonlinearity:
    """Kerr-solve configuration threaded through the invdes/data seams.

    ``chi3`` scales the device's nonlinear-material map
    (:meth:`repro.devices.base.Device.chi3_map`); None uses the device's own
    ``chi3`` attribute.  ``source_scale`` multiplies the injected mode source
    — the power knob of a power sweep (field amplitudes scale linearly with
    it in the linear limit, so the Kerr perturbation scales quadratically).
    The remaining knobs mirror :class:`KerrSolver`.
    """

    chi3: float | None = None
    source_scale: float = 1.0
    method: str = "newton"
    rtol: float = 1e-8
    max_iterations: int = 64
    damping: float = 1.0
    min_damping: float = 1.0 / 64.0
    coupling_sweeps: int = 8

    def with_scale(self, source_scale: float) -> "KerrNonlinearity":
        """The same nonlinearity at a different injected power."""
        return replace(self, source_scale=float(source_scale))

    def solver_kwargs(self) -> dict:
        """Constructor kwargs for the :class:`KerrSolver` this spec describes."""
        return dict(
            method=self.method,
            rtol=self.rtol,
            max_iterations=self.max_iterations,
            damping=self.damping,
            min_damping=self.min_damping,
            coupling_sweeps=self.coupling_sweeps,
        )


def kerr_eps_effective(eps_r: np.ndarray, chi3: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """The field-dependent permittivity ``eps_r + chi3 |ez|^2`` (real)."""
    return np.asarray(eps_r, dtype=float) + np.asarray(chi3, dtype=float) * (
        np.abs(np.asarray(ez)) ** 2
    )


class KerrSolver:
    """Damped-Born / Newton Kerr fixed point over the linear engine seam.

    Parameters
    ----------
    grid, omega:
        The (linear) FDFD problem the nonlinearity perturbs.
    engine:
        Inner linear engine or registry name; None solves exactly
        (``direct``).  A :class:`~repro.fdfd.engine.RecycledEngine` (built
        with the device's design region, e.g. ``resolve_engine("recycled",
        design_region=device.geometry.design_slice)``) turns every
        iteration's diagonal-only operator update into a reference-LU
        refinement on the region.
    method:
        ``"born"`` (damped fixed point) or ``"newton"`` (quadratic near the
        solution; roughly ``1 + coupling sweeps`` inner solves per step).
    rtol:
        Convergence threshold on the relative nonlinear residual
        ``||A(eps_eff)E - b|| / ||b||``.  A solve also terminates (converged)
        when the proposed update falls below ``rtol`` relative to the field —
        the fixed point is then stationary to the inner engine's accuracy,
        which an approximate inner tier may reach before the true residual
        does.
    max_iterations:
        Outer-iteration cap; exceeding it raises :class:`ConvergenceError`.
    damping, min_damping:
        Initial relaxation factor and the backtracking floor.  A step that
        would increase the nonlinear residual is retried at half the damping
        (no extra linear solve — only a matvec); hitting the floor raises
        :class:`ConvergenceError`.  Accepted steps let the damping recover
        toward its initial value.
    coupling_sweeps:
        Cap on the conjugate-coupling sweeps of Newton steps and adjoint
        solves (each sweep is one back-substitution against the operator the
        step already factorized; the sweeps stop early once the update is
        ``rtol``-stationary).
    port_rows:
        Grid rows the caller reads; inner solves pass them as ``FdfdSolver``
        does, and condense on an engine with a ``design_region`` (see
        :meth:`_newton_step`).
    """

    def __init__(
        self,
        grid: Grid,
        omega: float,
        engine: SolverEngine | str | None = None,
        method: str = "newton",
        rtol: float = 1e-8,
        max_iterations: int = 64,
        damping: float = 1.0,
        min_damping: float = 1.0 / 64.0,
        coupling_sweeps: int = 8,
        port_rows: np.ndarray | None = None,
    ):
        if method not in ("born", "newton"):
            raise ValueError(f"unknown nonlinear method {method!r}; expected born or newton")
        if not 0.0 < damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {damping}")
        self.grid = grid
        self.omega = float(omega)
        self.engine = resolve_engine(engine)
        self.method = method
        self.rtol = float(rtol)
        self.max_iterations = int(max_iterations)
        self.damping = float(damping)
        self.min_damping = float(min_damping)
        self.coupling_sweeps = int(coupling_sweeps)
        has_region = port_rows is not None and self.engine.design_region is not None
        self._ports = {"port_rows": port_rows} if has_region else {}
        self._matrix = None  # scratch operator for residuals (diagonal re-used in place)

    # -- pieces -----------------------------------------------------------------
    def _operator(self, eps_r: np.ndarray):
        if self._matrix is None:
            self._matrix = assemble_system_matrix(self.grid, self.omega, eps_r)
        else:
            update_system_diagonal(self._matrix, self.grid, self.omega, eps_r)
        return self._matrix

    def _residual_norm(self, eps_eff: np.ndarray, ez_flat: np.ndarray, rhs_flat: np.ndarray) -> float:
        return float(np.linalg.norm(self._operator(eps_eff) @ ez_flat - rhs_flat))

    def _inner_solve(
        self,
        stats: NonlinearStats,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        stats.inner_solves += 1
        guess = None if x0 is None else x0.reshape((1,) + self.grid.shape)
        out = self.engine.solve_batch(
            self.grid,
            self.omega,
            eps_r,
            rhs.reshape((1,) + self.grid.shape),
            fingerprint=eps_fingerprint(eps_r),
            x0=guess,
            **self._ports,
        )
        return np.asarray(out)[0]  # a Deferred stack resolves in full

    def _stats_holders(self) -> list:
        holders = []
        for holder in (self.engine, getattr(self.engine, "cache", None)):
            if holder is not None and isinstance(getattr(holder, "stats", None), StatsCounters):
                holders.append(holder)
        return holders

    @staticmethod
    def _record_engine_stats(stats: NonlinearStats, holders: list, scopes: list) -> None:
        for holder, scope in zip(holders, scopes):
            name = getattr(holder, "name", None) or type(holder).__name__.lower()
            if "cache" in type(holder).__name__.lower():
                name = "cache"
            stats.engine_stats[name] = {
                spec.name: int(getattr(scope, spec.name)) for spec in dataclass_fields(scope)
            }

    # -- forward fixed point ------------------------------------------------------
    def solve(
        self,
        eps_r: np.ndarray,
        chi3: np.ndarray | float,
        source: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, NonlinearStats]:
        """Converged ``Ez`` (and stats) for ``eps_eff = eps_r + chi3 |Ez|^2``.

        ``source`` is the current density ``Jz`` (the right-hand side is
        ``i omega J``, matching the linear solver).  ``x0`` optionally seeds
        the iteration with a previous nonlinear solution (power-sweep
        continuation); the default seed is the linear solve, which keeps the
        ``chi3 = 0`` limit bit-identical to the linear path.
        """
        eps_r = np.asarray(eps_r, dtype=float)
        chi3 = np.broadcast_to(np.asarray(chi3, dtype=float), self.grid.shape)
        if eps_r.shape != self.grid.shape:
            raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {self.grid.shape}")
        rhs = 1j * self.omega * np.asarray(source, dtype=complex)
        if rhs.shape != self.grid.shape:
            raise ValueError(f"source shape {rhs.shape} does not match grid {self.grid.shape}")
        rhs_flat = rhs.ravel()
        b_norm = float(np.linalg.norm(rhs_flat))
        if b_norm == 0.0:
            raise ValueError("nonlinear solve needs a non-zero source")

        stats = NonlinearStats(method=self.method, final_damping=self.damping)
        holders = self._stats_holders()
        # Started from the linear solve, every iterate satisfies the linear
        # exterior equations (the rows off the engine's region and chi3's
        # support) to roundoff; a seed need not.
        exterior_rows = self._exterior_rows(chi3) if x0 is None else None
        with scoped_stats(*holders) as scopes:
            try:
                ez = self._run_fixed_point(
                    stats, eps_r, chi3, rhs, rhs_flat, b_norm, x0, exterior_rows
                )
            finally:
                self._record_engine_stats(stats, holders, scopes)
        return ez, stats

    def _exterior_rows(self, chi3: np.ndarray) -> np.ndarray | None:
        """Flat mask of the rows off the engine's region and ``supp(chi3)``; None without ports."""
        if not self._ports:
            return None
        rows = chi3 == 0.0
        rows[self.engine.design_region] = False
        return rows.ravel()

    def _run_fixed_point(self, stats, eps_r, chi3, rhs, rhs_flat, b_norm, x0, exterior_rows):
        if x0 is None:
            ez = self._inner_solve(stats, eps_r, rhs)
        else:
            ez = np.asarray(x0, dtype=complex).reshape(self.grid.shape)
        residual = (
            self._residual_norm(kerr_eps_effective(eps_r, chi3, ez), ez.ravel(), rhs_flat)
            / b_norm
        )
        stats.residuals.append(residual)
        damping = self.damping

        while residual > self.rtol:
            if stats.iterations >= self.max_iterations:
                raise ConvergenceError(
                    f"Kerr {self.method} iteration did not reach rtol={self.rtol:g} in "
                    f"{self.max_iterations} iterations (residual {residual:.3e}); the "
                    "power is likely past the stable fixed-point regime — reduce the "
                    "source scale or chi3, or increase damping/max_iterations",
                    stats,
                )
            if self.method == "born":
                step = self._born_step(stats, eps_r, chi3, rhs, ez)
            else:
                step = self._newton_step(stats, eps_r, chi3, rhs_flat, ez, exterior_rows)

            step_norm = float(np.linalg.norm(step.ravel()))
            if step_norm <= self.rtol * float(np.linalg.norm(ez.ravel())):
                # Stationary to the inner engine's accuracy: the fixed point
                # is as converged as the linear tier can express.
                break

            # Backtracking line search on the *true* nonlinear residual: a
            # rejected trial costs one sparse matvec, never a linear solve.
            while True:
                trial = ez + damping * step
                trial_residual = (
                    self._residual_norm(
                        kerr_eps_effective(eps_r, chi3, trial), trial.ravel(), rhs_flat
                    )
                    / b_norm
                )
                if trial_residual < residual:
                    break
                damping *= 0.5
                stats.damping_events += 1
                if damping < self.min_damping:
                    stats.final_damping = damping
                    raise ConvergenceError(
                        f"Kerr {self.method} backtracking hit the damping floor "
                        f"{self.min_damping:g} at residual {residual:.3e} — no "
                        "residual-decreasing step exists (bistable/unstable power "
                        "regime); reduce the source scale or chi3",
                        stats,
                    )
            ez = trial
            residual = trial_residual
            stats.residuals.append(residual)
            if self.method == "born":
                stats.born_iterations += 1
            else:
                stats.newton_iterations += 1
            # Let the damping recover so one hard step does not slow the tail.
            damping = min(self.damping, damping * 2.0)

        stats.converged = True
        stats.final_damping = damping
        return ez

    def _born_step(self, stats, eps_r, chi3, rhs, ez) -> np.ndarray:
        """Proposed update: re-solve the linear problem at the current eps_eff."""
        eps_eff = kerr_eps_effective(eps_r, chi3, ez)
        candidate = self._inner_solve(stats, eps_eff, rhs, x0=ez)
        return candidate - ez

    def _newton_step(self, stats, eps_r, chi3, rhs_flat, ez, exterior_rows=None) -> np.ndarray:
        """Newton update through the conjugate-coupled Kerr Jacobian.

        ``F(E) = A(eps_r + chi3 |E|^2) E - b`` has ``dF/dE = A(eps_r +
        2 chi3 |E|^2)`` (diagonal-only away from the linear operator — the
        recycling fast path) and a diagonal conjugate block ``dF/dE* =
        omega^2 eps0 chi3 E^2``.  The coupled 2x2 system is solved by fixed
        point on the conjugate term: every sweep is one more solve against
        the *same* already-factorized Newton operator.

        ``exterior_rows`` (given when the inner solves condense) are the rows
        off the engine's region and ``supp(chi3)``: linear exterior equations,
        which the exterior recovery satisfies exactly.  ``F`` holds only LU
        roundoff there, and zeroing it keeps every right-hand side on ``I ∪
        P``, the engine's port path.  Where ``chi3`` reaches outside the
        region those rows stay, and the solve is a full-grid one.
        """
        intensity = np.abs(ez) ** 2
        eps_now = eps_r + chi3 * intensity
        eps_newton = eps_r + 2.0 * chi3 * intensity
        f_flat = self._operator(eps_now) @ ez.ravel() - rhs_flat
        if exterior_rows is not None:
            f_flat[exterior_rows] = 0.0
        coupling = (self.omega**2 * EPSILON_0) * chi3 * ez**2

        de = self._inner_solve(stats, eps_newton, -f_flat.reshape(self.grid.shape))
        for _ in range(max(self.coupling_sweeps - 1, 0)):
            corrected = -f_flat.reshape(self.grid.shape) - coupling * np.conj(de)
            de_next = self._inner_solve(stats, eps_newton, corrected, x0=de)
            if np.linalg.norm((de_next - de).ravel()) <= self.rtol * np.linalg.norm(
                de_next.ravel()
            ):
                de = de_next
                break
            de = de_next
        return de

    # -- adjoint through the fixed point ------------------------------------------
    def solve_adjoint(
        self,
        eps_r: np.ndarray,
        chi3: np.ndarray | float,
        ez: np.ndarray,
        adjoint_source: np.ndarray,
    ) -> np.ndarray:
        """Adjoint field of a real objective at the *converged* Kerr solution.

        Implicit-function formulation: with ``g = dG/dEz`` (same convention as
        the linear path), ``lam`` solves

            ``A(eps_r + 2 chi3 |E|^2) lam + conj(omega^2 eps0 chi3 E^2) conj(lam) = g``

        via one solve with the symmetric Newton operator plus coupling sweeps
        (the "two extra solves").  The permittivity gradient is then the
        linear formula ``-2 omega^2 eps0 Re(lam * Ez)`` — the conjugate
        coupling is exactly what makes that formula exact through the fixed
        point.  With ``chi3 = 0`` this is the ordinary linear adjoint solve.
        """
        eps_r = np.asarray(eps_r, dtype=float)
        chi3 = np.broadcast_to(np.asarray(chi3, dtype=float), self.grid.shape)
        ez = np.asarray(ez, dtype=complex).reshape(self.grid.shape)
        g = np.asarray(adjoint_source, dtype=complex).reshape(self.grid.shape)

        eps_newton = eps_r + 2.0 * chi3 * np.abs(ez) ** 2
        coupling = np.conj((self.omega**2 * EPSILON_0) * chi3 * ez**2)

        stats = NonlinearStats(method="adjoint")
        lam = self._inner_solve(stats, eps_newton, g)
        if not np.any(chi3):
            return lam
        for _ in range(max(self.coupling_sweeps, 1)):
            lam_next = self._inner_solve(
                stats, eps_newton, g - coupling * np.conj(lam), x0=lam
            )
            if np.linalg.norm((lam_next - lam).ravel()) <= self.rtol * np.linalg.norm(
                lam_next.ravel()
            ):
                return lam_next
            lam = lam_next
        return lam


class NonlinearSimulation(Simulation):
    """Simulation facade whose forward solves converge a Kerr fixed point.

    Drop-in for :class:`~repro.fdfd.simulation.Simulation` wherever forward
    results are consumed: ``solve`` / ``solve_multi`` return ordinary
    :class:`~repro.fdfd.simulation.SimulationResult` objects, with per-
    excitation :class:`NonlinearStats` collected in :attr:`last_stats`.

    ``chi3`` is the Kerr coefficient map (grid-shaped, or a scalar applied
    everywhere); ``source_scale`` multiplies the injected *mode* sources (the
    power-sweep knob — explicit ``ExcitationSpec.source`` arrays are used
    verbatim).  The normalization run stays linear (the feeding waveguide is
    outside the nonlinear material) and is rescaled to the injected power, so
    transmissions remain fractions of the actual input power.

    Each excitation is its own fixed point — superposition does not hold —
    so excitations are converged one at a time.
    """

    def __init__(
        self,
        grid: Grid,
        eps_r: np.ndarray,
        wavelength: float,
        ports,
        chi3: np.ndarray | float,
        engine: SolverEngine | str | None = None,
        source_scale: float = 1.0,
        method: str = "newton",
        rtol: float = 1e-8,
        max_iterations: int = 64,
        damping: float = 1.0,
        min_damping: float = 1.0 / 64.0,
        coupling_sweeps: int = 8,
    ):
        super().__init__(grid, eps_r, wavelength, ports, engine=engine)
        self.chi3 = np.ascontiguousarray(
            np.broadcast_to(np.asarray(chi3, dtype=float), grid.shape)
        )
        self.source_scale = float(source_scale)
        self.kerr = KerrSolver(
            grid,
            self.omega,
            engine=self.solver.engine,
            method=method,
            rtol=rtol,
            max_iterations=max_iterations,
            damping=damping,
            min_damping=min_damping,
            coupling_sweeps=coupling_sweeps,
            port_rows=self.port_rows,
        )
        #: :class:`NonlinearStats` per excitation of the most recent
        #: ``solve_multi`` call, in excitation order.
        self.last_stats: list[NonlinearStats] = []

    @classmethod
    def from_nonlinearity(
        cls,
        grid: Grid,
        eps_r: np.ndarray,
        wavelength: float,
        ports,
        chi3: np.ndarray | float,
        nonlinearity: KerrNonlinearity,
        engine: SolverEngine | str | None = None,
        source_scale: float | None = None,
    ) -> "NonlinearSimulation":
        """Build from a :class:`KerrNonlinearity` spec (the invdes/data seam)."""
        scale = nonlinearity.source_scale if source_scale is None else source_scale
        return cls(
            grid,
            eps_r,
            wavelength,
            ports,
            chi3,
            engine=engine,
            source_scale=scale,
            **nonlinearity.solver_kwargs(),
        )

    def _normalization(self, port_name: str, mode_index: int) -> tuple[float, complex]:
        flux, overlap = super()._normalization(port_name, mode_index)
        # The injected mode source is scaled by source_scale; the linear
        # normalization run is not re-solved — its fields scale linearly with
        # the source, its flux quadratically — so the reference is rescaled
        # to the actually injected power.
        return flux * self.source_scale**2, overlap * self.source_scale

    def mode_source(self, port_name: str, mode_index: int = 0) -> np.ndarray:
        """The injected mode source: the linear one scaled by ``source_scale``."""
        return super().mode_source(port_name, mode_index) * self.source_scale

    def solve_multi(self, excitations, workspace=None, guess_keys=None):
        if workspace is not None:
            raise ValueError(
                "nonlinear solves manage their own iteration; warm-start "
                "workspaces are not supported"
            )
        specs = self._excitation_specs(excitations)
        if not specs:
            return []
        sources = self._excitation_sources(specs)

        self.last_stats = []
        results: list[SimulationResult] = []
        for spec, source in zip(specs, sources):
            ez, stats = self.kerr.solve(self.eps_r, self.chi3, source)
            self.last_stats.append(stats)
            hx, hy = self.solver.e_to_h(ez)
            results.append(self._measure(spec, source, ez, hx, hy))
        return results

    def solve_adjoint(self, ez: np.ndarray, adjoint_source: np.ndarray) -> np.ndarray:
        """Adjoint field through the converged fixed point ``ez`` (see
        :meth:`KerrSolver.solve_adjoint`)."""
        return self.kerr.solve_adjoint(self.eps_r, self.chi3, ez, adjoint_source)

    def maxwell_residual(self, result: SimulationResult) -> float:
        """Relative residual of the *nonlinear* operator at the result's field."""
        eps_eff = kerr_eps_effective(self.eps_r, self.chi3, result.ez)
        residual = self.solver.residual(eps_eff, result.ez, result.source)
        rhs = 1j * self.omega * result.source
        denom = np.linalg.norm(rhs.ravel())
        return float(np.linalg.norm(residual.ravel()) / (denom + 1e-30))
