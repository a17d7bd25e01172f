"""Assembly and solution of the frequency-domain Maxwell operator.

For the Ez polarization with the ``exp(+i omega t)`` convention the governing
equation discretized on the Yee grid is::

    [ (1/mu0) (Dxf Dxb + Dyf Dyb) + omega^2 eps0 diag(eps_r) ] Ez = i omega Jz

and the magnetic fields follow from the curl of ``Ez``::

    Hx = -1/(i omega mu0) Dyb Ez
    Hy = +1/(i omega mu0) Dxb Ez

The operator is complex symmetric outside the PML only; the adjoint solve
reuses ``A`` for ``A^T``, exact outside the PML (see
:class:`~repro.fdfd.engine.SolverEngine`).

:class:`FdfdSolver` is a thin convenience shim binding one ``(grid, omega)``
pair to a :class:`~repro.fdfd.engine.SolverEngine`.  All factorization state
lives in the engine layer's shared :class:`~repro.fdfd.engine.FactorizationCache`,
so independent solver instances working on the same operator reuse one
factorization, and batched multi-RHS solves (:meth:`FdfdSolver.solve_batch`,
:meth:`FdfdSolver.solve_adjoint_batch`) amortize it further.

Served solves are one engine name away: ``FdfdSolver(..., engine="service")``
routes every solve through the process-wide
:class:`~repro.service.SolveService`, which micro-batches concurrently
arriving requests (from any number of solver instances and threads) into
single batched engine calls — and a :class:`~repro.service.SolveService`
instance itself is accepted wherever an engine is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.constants import EPSILON_0, MU_0
from repro.fdfd.engine import (
    SolverEngine,
    assemble_system_matrix,
    eps_fingerprint,
    operators,
    resolve_engine,
)
from repro.fdfd.grid import Grid
from repro.fdfd.lazy import Deferred, LazyField, known


@dataclass
class FieldSolution:
    """Electric and magnetic fields of a single forward solve (grid shaped).

    After a port-reduced solve the fields are :class:`~repro.fdfd.lazy.Deferred`:
    reading ``ez``, ``hx`` or ``hy`` recovers the exact full field once.
    """

    ez: np.ndarray = LazyField()
    hx: np.ndarray = LazyField()
    hy: np.ndarray = LazyField()
    omega: float

    @property
    def shape(self) -> tuple[int, int]:
        return known(self, "ez").shape


class FdfdSolver:
    """FDFD solver for one grid and one angular frequency.

    Parameters
    ----------
    grid:
        The simulation grid (including PML cells).
    omega:
        Angular frequency in rad/s.
    engine:
        Solver engine, engine name or None (exact direct solves).  The engine
        determines the fidelity tier; see :mod:`repro.fdfd.engine`.
        ``"service"`` (or a :class:`~repro.service.SolveService` instance)
        serves solves through the coalescing async front-end.
    """

    def __init__(self, grid: Grid, omega: float, engine: SolverEngine | str | None = None):
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.grid = grid
        self.omega = float(omega)
        self.engine = resolve_engine(engine)
        self._derivs = operators(grid, self.omega)
        self._solved_fingerprints: set[str] = set()

    # -- operator assembly ------------------------------------------------------
    def system_matrix(self, eps_r: np.ndarray) -> sp.csr_matrix:
        """Assemble ``A(eps_r)`` for a grid-shaped relative permittivity."""
        return assemble_system_matrix(self.grid, self.omega, self._check_eps(eps_r))

    def _check_eps(self, eps_r: np.ndarray) -> np.ndarray:
        eps_r = np.asarray(eps_r)
        if eps_r.shape != self.grid.shape:
            raise ValueError(
                f"eps_r shape {eps_r.shape} does not match grid {self.grid.shape}"
            )
        return eps_r

    def clear_cache(self) -> None:
        """Evict the factorizations of every permittivity this solver solved."""
        cache = getattr(self.engine, "cache", None)
        if cache is not None:
            for fingerprint in self._solved_fingerprints:
                cache.evict(self.grid, self.omega, fingerprint)
        self._solved_fingerprints.clear()

    def _solve_stack(
        self,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        fingerprint: str | None,
        x0: np.ndarray | None = None,
        port_rows: np.ndarray | None = None,
    ) -> list:
        """Solution rows: arrays, or :class:`Deferred` rows from a port-reduced solve."""
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        self._solved_fingerprints.add(fingerprint)
        extra = {}
        if port_rows is not None and self.engine.design_region is not None:
            extra["port_rows"] = port_rows
        stack = self.engine.solve_batch(
            self.grid, self.omega, eps_r, rhs, fingerprint=fingerprint, x0=x0, **extra
        )
        return stack.rows() if isinstance(stack, Deferred) else list(stack)

    # -- solves ---------------------------------------------------------------------
    def solve(
        self, eps_r: np.ndarray, source: np.ndarray, fingerprint: str | None = None
    ) -> FieldSolution:
        """Solve for the fields produced by a current density ``Jz``.

        Parameters
        ----------
        eps_r:
            Relative permittivity, grid shaped (real or complex).
        source:
            Current density ``Jz`` on the grid (complex allowed).
        fingerprint:
            Optional pre-computed :func:`~repro.fdfd.engine.eps_fingerprint`.

        Returns
        -------
        FieldSolution
            Grid-shaped ``Ez``, ``Hx``, ``Hy``.
        """
        return self.solve_batch(eps_r, [source], fingerprint=fingerprint)[0]

    def solve_batch(
        self,
        eps_r: np.ndarray,
        sources: list[np.ndarray] | np.ndarray,
        fingerprint: str | None = None,
        x0: np.ndarray | None = None,
        port_rows: np.ndarray | None = None,
    ) -> list[FieldSolution]:
        """Solve one operator against many current sources at once.

        The permittivity is factorized (or fetched from the shared cache)
        exactly once; every source costs only a back-substitution.  ``x0`` is
        an optional stack of ``Ez`` initial guesses (previous-iteration fields
        from a :class:`~repro.fdfd.engine.SolveWorkspace`) for warm-startable
        engines; exact engines ignore it.  ``port_rows`` (grid rows the
        caller reads, see :func:`~repro.fdfd.monitors.port_rows`) go to an
        engine with a ``design_region``, which condenses the solve onto it;
        the fields are then deferred and recovered in full on first read.  :meth:`solve` (the normalization runs) passes none.
        """
        eps_r = self._check_eps(eps_r)
        stack = np.stack([np.asarray(s, dtype=complex) for s in sources], axis=0)
        if stack.shape[1:] != self.grid.shape:
            raise ValueError(
                f"source shape {stack.shape[1:]} does not match grid {self.grid.shape}"
            )
        rhs = 1j * self.omega * stack
        solutions = []
        for ez in self._solve_stack(eps_r, rhs, fingerprint, x0=x0, port_rows=port_rows):
            if isinstance(ez, Deferred):
                # Exact on the port rows' H lines, whose curls read only
                # computed Ez rows; both recomputed by one curl of the full
                # Ez when either is first read.
                curls = Deferred(self.e_to_h(ez.partial), lambda ez=ez: self.e_to_h(ez.resolve()))
                hx, hy = curls.rows()
            else:
                hx, hy = self.e_to_h(ez)
            solutions.append(FieldSolution(ez=ez, hx=hx, hy=hy, omega=self.omega))
        return solutions

    def solve_adjoint(
        self, eps_r: np.ndarray, adjoint_source: np.ndarray, fingerprint: str | None = None
    ) -> np.ndarray:
        """Solve the adjoint system ``A^T lambda = rhs`` with the forward factorization.

        ``A`` stands in for ``A^T`` (exact outside the PML).  The adjoint
        source is ``dF/dEz`` (grid shaped, complex).
        """
        return self.solve_adjoint_batch(eps_r, [adjoint_source], fingerprint=fingerprint)[0]

    def solve_adjoint_batch(
        self,
        eps_r: np.ndarray,
        adjoint_sources: list[np.ndarray] | np.ndarray,
        fingerprint: str | None = None,
        x0: np.ndarray | None = None,
        port_rows: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Batched adjoint solves against one (cached) factorization.

        ``x0`` optionally stacks previous adjoint fields as warm starts for
        the recycled engine's refinement (ignored by exact engines).  With ``port_rows`` (see
        :meth:`solve_batch`) the entries may be
        :class:`~repro.fdfd.lazy.Deferred`: exact on the engine's design
        region and those rows, resolved in full on request.
        """
        eps_r = self._check_eps(eps_r)
        stack = np.stack([np.asarray(s, dtype=complex) for s in adjoint_sources], axis=0)
        if stack.shape[1:] != self.grid.shape:
            raise ValueError(
                f"adjoint source shape {stack.shape[1:]} does not match grid "
                f"{self.grid.shape}"
            )
        return self._solve_stack(eps_r, stack, fingerprint, x0=x0, port_rows=port_rows)

    # -- derived fields ---------------------------------------------------------------
    def e_to_h(self, ez: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Magnetic fields from the electric field via the discrete curl."""
        ez_flat = np.asarray(ez).ravel()
        factor = -1.0 / (1j * self.omega * MU_0)
        hx = factor * (self._derivs["Dyb"] @ ez_flat)
        hy = -factor * (self._derivs["Dxb"] @ ez_flat)
        return hx.reshape(self.grid.shape), hy.reshape(self.grid.shape)

    def residual(self, eps_r: np.ndarray, ez: np.ndarray, source: np.ndarray) -> np.ndarray:
        """Maxwell-equation residual ``A ez - i omega J`` for a candidate field.

        This is the physics-driven loss used by MAPS-Train: a perfect field
        prediction has zero residual regardless of the label.
        """
        matrix = self.system_matrix(self._check_eps(eps_r))
        rhs = 1j * self.omega * np.asarray(source).ravel().astype(complex)
        res = matrix @ np.asarray(ez).ravel().astype(complex) - rhs
        return res.reshape(self.grid.shape)

    def permittivity_gradient(
        self, ez: np.ndarray, adjoint_field: np.ndarray
    ) -> np.ndarray:
        """Adjoint gradient of a real objective with respect to ``eps_r``.

        With ``A = C + omega^2 eps0 diag(eps_r)`` and objective ``F(Ez)``, the
        chain rule gives ``dF/deps_r = -2 omega^2 eps0 Re(lambda * Ez)`` where
        ``lambda`` solves ``A^T lambda = dF/dEz``.
        """
        ez = np.asarray(ez)
        adjoint_field = np.asarray(adjoint_field)
        if ez.shape != self.grid.shape or adjoint_field.shape != self.grid.shape:
            raise ValueError("field shapes must match the grid")
        return -2.0 * self.omega**2 * EPSILON_0 * np.real(adjoint_field * ez)
