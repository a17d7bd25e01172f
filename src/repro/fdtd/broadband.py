"""Broadband device simulation: one pulsed FDTD run, many wavelengths.

:class:`FdtdSimulation` is the time-domain sibling of
:class:`repro.fdfd.simulation.Simulation`: same grid, permittivity and port
semantics, but constructed with a *list* of wavelengths.  A single pulsed run
with running DFTs (see :mod:`repro.fdtd.core`) yields the frequency-domain
fields at every wavelength at once; each is then measured by the FDFD
tier's own :func:`~repro.fdfd.simulation.measure_ports` — Poynting flux and
modal overlap per port, divided by the flux/overlap of the same source
travelling the extruded reference waveguide
(:func:`repro.fdfd.simulation.normalization_geometry`, also computed
broadband from one time-domain run).  The per-wavelength
results are ordinary :class:`~repro.fdfd.simulation.SimulationResult`
objects, so every downstream consumer (labels, objectives, datasets) works
unchanged.

The mode source is solved at the band-centre frequency and injected for all
wavelengths; any per-wavelength mode mismatch this introduces is common to
the device and normalization runs and cancels in the transmission ratio.

Where the FDFD facade amortizes one factorization over many right-hand
sides, this facade amortizes one time-domain run over many wavelengths: for
N wavelengths it replaces 2N FDFD factorizations (device + normalization per
wavelength) with 2 runs plus cheap per-wavelength DFT bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MU_0, wavelength_to_omega
from repro.fdfd.grid import Grid
from repro.fdfd.monitors import Port
from repro.fdfd.pml import create_sfactor
from repro.fdfd.simulation import (
    SimulationResult,
    find_port,
    measure_incident,
    measure_ports,
    normalization_geometry,
    port_mode_source,
    port_table,
)
from repro.fdtd.core import run_pulsed
from repro.utils.cache import BoundedCache

# Broadband normalization runs are fully determined by the source-port
# cross-section, grid, wavelength set and stepping parameters — not by the
# design — so optimization loops and sibling simulations share one run.
# Values are small lists of per-wavelength incident (flux, overlap) pairs.
_NORM_CACHE = BoundedCache(64)


def _e_to_h(ez: np.ndarray, grid: Grid, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Magnetic fields from Ez, identical to :meth:`FdfdSolver.e_to_h`.

    Matrix-free version of ``factor * (Dyb @ ez)`` / ``-factor * (Dxb @ ez)``:
    the PML-stretched backward difference is a plain neighbour difference
    (Dirichlet closure keeps ``ez[0]`` in row 0) scaled by ``1 / (s dl)``, so
    two slicing ops per component replace a per-wavelength sparse-operator
    build that this facade would otherwise pay for every extraction frequency.
    """
    factor = -1.0 / (1j * omega * MU_0)
    sx_b = create_sfactor(omega, grid.dl_m, grid.nx, grid.npml, shifted=False)
    sy_b = create_sfactor(omega, grid.dl_m, grid.ny, grid.npml, shifted=False)
    dxb = np.empty(grid.shape, dtype=complex)
    dxb[1:, :] = ez[1:, :] - ez[:-1, :]
    dxb[0, :] = ez[0, :]
    dyb = np.empty(grid.shape, dtype=complex)
    dyb[:, 1:] = ez[:, 1:] - ez[:, :-1]
    dyb[:, 0] = ez[:, 0]
    hx = factor * dyb / (grid.dl_m * sy_b[None, :])
    hy = -factor * dxb / (grid.dl_m * sx_b[:, None])
    return hx, hy


class FdtdSimulation:
    """Pulsed time-domain simulation measured at many wavelengths at once.

    Parameters
    ----------
    grid, eps_r, ports:
        As for :class:`repro.fdfd.simulation.Simulation` (permittivity must
        be real — the leapfrog update has no conductivity term).
    wavelengths:
        Free-space wavelengths (micrometres) to extract; one time-domain run
        serves all of them.
    courant, tau_s, decay_tol, max_steps, check_every, precision:
        Stepping parameters, see :func:`repro.fdtd.core.run_pulsed`; this
        facade defaults to single-precision states (the broadband label
        tolerances sit far above leapfrog roundoff and the running DFT
        accumulates in double regardless).
    """

    def __init__(
        self,
        grid: Grid,
        eps_r: np.ndarray,
        wavelengths,
        ports: list[Port],
        courant: float = 0.9,
        tau_s: float | None = None,
        decay_tol: float = 1e-3,
        max_steps: int = 200_000,
        check_every: int = 200,
        precision: str = "single",
    ):
        eps_r = np.asarray(eps_r, dtype=float)
        if eps_r.shape != grid.shape:
            raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {grid.shape}")
        wavelengths = [float(w) for w in np.atleast_1d(wavelengths)]
        if not wavelengths:
            raise ValueError("at least one wavelength is required")
        self.ports = port_table(ports)
        self.grid = grid
        self.eps_r = eps_r
        self.wavelengths = wavelengths
        self.omegas = np.array([wavelength_to_omega(w) for w in wavelengths])
        #: Band-centre frequency: where the source mode is solved.
        self.omega_center = float(self.omegas.mean())
        self._params = dict(
            courant=courant,
            tau_s=tau_s,
            decay_tol=decay_tol,
            max_steps=max_steps,
            check_every=check_every,
            precision=precision,
        )

    def _run(self, eps_r: np.ndarray, currents: np.ndarray) -> np.ndarray:
        return run_pulsed(
            self.grid,
            eps_r,
            currents[None],
            self.omegas,
            real_fields=True,
            **self._params,
        )[:, 0]

    # -- normalization ---------------------------------------------------------
    def _normalization_key(self, port: Port, mode_index: int, eps_line: np.ndarray) -> tuple:
        return (
            self.grid,
            tuple(self.wavelengths),
            tuple(sorted(self._params.items())),
            port.normal_axis,
            port.position,
            port.center,
            port.span,
            port.direction,
            mode_index,
            eps_line.tobytes(),
        )

    # -- the broadband solve ---------------------------------------------------
    def solve(
        self,
        source_port: str | None = None,
        mode_index: int = 0,
        monitor_ports: list[str] | None = None,
    ) -> list[SimulationResult]:
        """One pulsed run; returns one result per wavelength, in order."""
        if source_port is None:
            source_port = next(iter(self.ports))
        port = find_port(self.ports, source_port)
        source = port_mode_source(port, self.eps_r, self.grid, self.omega_center, mode_index)

        # The normalization waveguide extrudes the source port's own
        # cross-section, so its guided mode — and hence its injected current —
        # is identical to the device's.  On a cache miss the reference run
        # therefore rides along as a second batch item of the same time
        # integration (per-batch permittivity), amortizing every per-step cost
        # over both geometries instead of paying for two runs.
        eps_line = port.eps_line(self.eps_r, self.grid)
        key = self._normalization_key(port, mode_index, eps_line)
        incident = _NORM_CACHE.get(key)
        if incident is not None:
            fields = self._run(self.eps_r, source)
        else:
            eps_norm, monitor = normalization_geometry(self.grid, port, eps_line)
            stacked = run_pulsed(
                self.grid,
                np.stack([self.eps_r, eps_norm]),
                np.stack([source, source]),
                self.omegas,
                real_fields=True,
                **self._params,
            )
            fields = stacked[:, 0]
            incident = [
                measure_incident(
                    stacked[k, 1],
                    *_e_to_h(stacked[k, 1], self.grid, omega),
                    eps_norm,
                    monitor,
                    self.grid,
                    omega,
                    mode_index,
                )
                for k, omega in enumerate(self.omegas)
            ]
            _NORM_CACHE.put(key, incident)

        results = []
        for k, (wavelength, omega) in enumerate(zip(self.wavelengths, self.omegas)):
            hx, hy = _e_to_h(fields[k], self.grid, omega)
            results.append(
                measure_ports(
                    fields[k],
                    hx,
                    hy,
                    source,
                    self.eps_r,
                    self.grid,
                    omega,
                    wavelength,
                    self.ports,
                    source_port,
                    mode_index,
                    monitor_ports,
                    incident[k],
                )
            )
        return results
