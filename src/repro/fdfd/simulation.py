"""High-level simulation facade used by devices, datasets and inverse design.

:class:`Simulation` wires together the solver engine, mode sources, monitors
and normalization runs so that callers can ask directly for fields,
transmissions and S-parameters of a device described by a permittivity map and
a list of ports.

All linear solves go through the pluggable engine layer
(:mod:`repro.fdfd.engine`): ``Simulation(..., engine=<engine>)`` or
``engine="neural:<checkpoint.npz>"`` swaps the solver tier without touching
any other code.
:meth:`Simulation.solve_multi` batches every excitation of a device into one
factorize-once/solve-many call; normalization runs share the same process-wide
factorization cache, so repeated simulations of the same feeding waveguide are
back-substitutions rather than fresh factorizations.

Port measurement is one function, :func:`measure_ports`: every tier — this
facade, the Kerr :class:`~repro.fdfd.nonlinear.NonlinearSimulation`, the
broadband :class:`~repro.fdtd.broadband.FdtdSimulation` and the neural field
backend — produces its fields its own way and hands them to it, together with
the incident flux and overlap that :func:`measure_incident` takes from the
source port's reference waveguide.

Results are not memoized: every :meth:`Simulation.solve_multi` call solves,
and fingerprints the permittivity once (:func:`~repro.fdfd.engine.eps_fingerprint`)
so that an in-place edit of ``eps_r`` never reads a stale factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import wavelength_to_omega
from repro.fdfd.engine import SolverEngine, SolveWorkspace, eps_fingerprint
from repro.fdfd.grid import Grid
from repro.fdfd.modes import ModeProfile, mode_source_amplitude, solve_slab_modes_batch
from repro.fdfd.lazy import LazyField, known
from repro.fdfd.monitors import Port, mode_overlap, port_rows, poynting_flux_through_port
from repro.fdfd.solver import FdfdSolver
from repro.utils.cache import BoundedCache


# Process-wide cache of normalization results.  The normalization structure is
# fully determined by the source-port cross-section (plus port geometry, grid
# and frequency) — not by the design — so every iteration of an optimization
# loop, and every Simulation instance of the same device family, recomputes a
# byte-identical (flux, overlap) pair.  Keying on the cross-section content
# lets them all share one computation, and keeps in-place edits of ``eps_r``
# from ever reading a stale entry.  Entries are tiny floats.
_NORMALIZATION_CACHE = BoundedCache(256)


def result_cache_stats() -> dict:
    """Counters of the deleted end-to-end result cache: always zero.

    Kept only until a benchmark-only change drops the import of this name
    from ``perfbench/episode.py``.
    """
    return {"hits": 0, "misses": 0, "size": 0}


def normalization_geometry(
    grid: Grid, port: Port, eps_line: np.ndarray
) -> tuple[np.ndarray, Port]:
    """Reference waveguide and monitor used to normalize a source port.

    The structure is obtained by extruding the source-port permittivity
    cross-section along the port normal through the whole domain — i.e. the
    waveguide feeding the port, continued straight — and the monitor is a
    far-side copy of the port (near side when the port sits past the domain
    midpoint).  Shared by the FDFD :class:`Simulation` and the time-domain
    :class:`repro.fdtd.broadband.FdtdSimulation` so both tiers normalize
    against byte-identical reference structures.
    """
    eps_line = np.asarray(eps_line, dtype=float)
    eps_norm = np.full(grid.shape, float(eps_line.min()))
    if port.normal_axis == "x":
        index = port.indices(grid)[1]
        eps_norm[:, index] = eps_line[None, :]
        monitor_position = grid.size_x - (grid.npml + 4) * grid.dl
        if port.position > grid.size_x / 2:
            monitor_position = (grid.npml + 4) * grid.dl
    else:
        index = port.indices(grid)[0]
        eps_norm[index, :] = eps_line[:, None]
        monitor_position = grid.size_y - (grid.npml + 4) * grid.dl
        if port.position > grid.size_y / 2:
            monitor_position = (grid.npml + 4) * grid.dl

    monitor = Port(
        name="__norm__",
        normal_axis=port.normal_axis,
        position=monitor_position,
        center=port.center,
        span=port.span,
        direction=+1 if monitor_position > port.position else -1,
    )
    return eps_norm, monitor


def port_table(ports: list[Port]) -> dict[str, Port]:
    """Ports keyed by name; rejects an empty list and duplicate names."""
    if not ports:
        raise ValueError("at least one port is required")
    names = [p.name for p in ports]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate port names: {names}")
    return {p.name: p for p in ports}


def find_port(ports: dict[str, Port], name: str) -> Port:
    """The port called ``name``; a KeyError listing the available names otherwise."""
    if name not in ports:
        raise KeyError(f"unknown port {name!r}; available: {sorted(ports)}")
    return ports[name]


def port_mode_source(
    port: Port, eps_r: np.ndarray, grid: Grid, omega: float, mode_index: int
) -> np.ndarray:
    """Current source injecting guided mode ``mode_index`` of the port cross-section."""
    modes = port.solve_modes(eps_r, grid, omega, num_modes=mode_index + 1)
    if len(modes) <= mode_index:
        raise ValueError(
            f"port {port.name!r} guides only {len(modes)} mode(s); "
            f"mode {mode_index} requested"
        )
    return port.scatter_line(mode_source_amplitude(modes[mode_index]), grid)


def measure_incident(
    ez: np.ndarray,
    hx: np.ndarray,
    hy: np.ndarray,
    eps_norm: np.ndarray,
    monitor: Port,
    grid: Grid,
    omega: float,
    mode_index: int,
) -> tuple[float, complex]:
    """Incident ``(flux, overlap)`` of a normalization run at its monitor.

    ``eps_norm`` and ``monitor`` come from :func:`normalization_geometry`; the
    overlap is taken with the monitor line's own guided mode ``mode_index``.
    """
    flux = poynting_flux_through_port(ez, hx, hy, monitor, grid)
    modes = monitor.solve_modes(eps_norm, grid, omega, num_modes=mode_index + 1)
    return abs(float(flux)), mode_overlap(ez, monitor, modes[mode_index], grid)


def measure_ports(
    ez: np.ndarray,
    hx: np.ndarray,
    hy: np.ndarray,
    source: np.ndarray,
    eps_r: np.ndarray,
    grid: Grid,
    omega: float,
    wavelength: float,
    ports: dict[str, Port],
    source_port: str,
    mode_index: int,
    monitor_ports: list[str] | tuple[str, ...] | None,
    incident: tuple[float, complex],
) -> SimulationResult:
    """Port fluxes, S-parameters and transmissions of one solved field.

    The one port measurement of every tier (FDFD, Kerr, FDTD, neural): each
    monitor port gets the Poynting flux through it and the overlap with its
    fundamental mode, divided by the ``incident`` ``(flux, overlap)`` of the
    same source in the reference waveguide (:func:`measure_incident`).
    ``monitor_ports`` None measures every port except the source port.  The
    fields may be :class:`~repro.fdfd.lazy.Deferred` (a port-reduced solve):
    they are measured on their port rows and stay deferred in the result.
    """
    norm_flux, norm_overlap = incident
    if monitor_ports is None:
        monitor_ports = [name for name in ports if name != source_port]
    fluxes: dict[str, float] = {}
    s_params: dict[str, complex] = {}
    transmissions: dict[str, float] = {}
    ez_line, hx_line, hy_line = known(ez), known(hx), known(hy)
    for name in monitor_ports:
        monitor = find_port(ports, name)
        flux = poynting_flux_through_port(ez_line, hx_line, hy_line, monitor, grid)
        fluxes[name] = float(flux)
        modes = monitor.solve_modes(eps_r, grid, omega, num_modes=1)
        overlap = mode_overlap(ez_line, monitor, modes[0], grid) if modes else 0.0j
        s_params[name] = complex(overlap / norm_overlap) if norm_overlap else 0.0j
        transmissions[name] = float(np.clip(flux / norm_flux, 0.0, None)) if norm_flux else 0.0
    return SimulationResult(
        ez=ez,
        hx=hx,
        hy=hy,
        source=source,
        wavelength=wavelength,
        source_port=source_port,
        source_mode=mode_index,
        fluxes=fluxes,
        s_params=s_params,
        transmissions=transmissions,
        input_flux=norm_flux,
        input_overlap=norm_overlap,
    )


@dataclass
class SimulationResult:
    """Everything measured in one forward solve.

    The attributes correspond to the "rich labels" that MAPS-Data attaches to
    each sample: the full field maps, per-port fluxes and S-parameters, the
    source that was injected and the incident normalization.

    ``ez``, ``hx`` and ``hy`` are always the exact full fields.  After a
    port-reduced solve (an engine with a design region) only
    their port rows were computed for the measurements; the first read of a
    field runs its one-back-substitution recovery, shared by every result of
    the batch and done at most once.
    """

    ez: np.ndarray = LazyField()
    hx: np.ndarray = LazyField()
    hy: np.ndarray = LazyField()
    source: np.ndarray
    wavelength: float
    source_port: str
    source_mode: int
    fluxes: dict[str, float] = field(default_factory=dict)
    s_params: dict[str, complex] = field(default_factory=dict)
    transmissions: dict[str, float] = field(default_factory=dict)
    input_flux: float = 0.0
    input_overlap: complex = 0.0

    def total_transmission(self, ports: list[str] | None = None) -> float:
        """Sum of power transmissions over ``ports`` (all output ports by default)."""
        names = ports if ports is not None else list(self.transmissions)
        return float(sum(self.transmissions[name] for name in names))

    @property
    def radiation(self) -> float:
        """Fraction of input power not collected by any monitored port."""
        return max(0.0, 1.0 - self.total_transmission())


@dataclass(frozen=True)
class ExcitationSpec:
    """One excitation of a :meth:`Simulation.solve_multi` batch.

    ``source`` overrides the mode source (used when replaying stored dataset
    samples); ``monitor_ports`` defaults to every port except the source port.
    """

    source_port: str
    mode_index: int = 0
    source: np.ndarray | None = None
    monitor_ports: tuple[str, ...] | None = None


class Simulation:
    """FDFD simulation of a device: permittivity map + ports + wavelength.

    Parameters
    ----------
    grid:
        The simulation grid (including PML cells).
    eps_r:
        Relative permittivity on the grid.
    wavelength:
        Operating free-space wavelength in micrometres.
    ports:
        All device ports.  The first port is the default source port.
    engine:
        Solver engine, engine name (``"direct"``,
        ``"neural:<checkpoint.npz>"``, ...) or None for exact direct solves.
        The recycled tier needs the device's design region, so it is passed
        as an instance (``resolve_engine("recycled", design_region=...)``).
    """

    def __init__(
        self,
        grid: Grid,
        eps_r: np.ndarray,
        wavelength: float,
        ports: list[Port],
        engine: SolverEngine | str | None = None,
    ):
        eps_r = np.asarray(eps_r, dtype=float)
        if eps_r.shape != grid.shape:
            raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {grid.shape}")
        self.ports = port_table(ports)
        self.grid = grid
        self.eps_r = eps_r
        self.wavelength = float(wavelength)
        self.omega = wavelength_to_omega(wavelength)
        self.solver = FdfdSolver(grid, self.omega, engine=engine)
        self._fingerprint: str | None = None

    @property
    def engine(self) -> SolverEngine:
        """The solver engine all field solves of this simulation go through."""
        return self.solver.engine

    @property
    def port_rows(self) -> np.ndarray:
        """Grid rows the port measurements and objectives read (:func:`~repro.fdfd.monitors.port_rows`)."""
        return port_rows(tuple(self.ports.values()), self.grid)

    @property
    def _eps_fingerprint(self) -> str:
        """The fingerprint the last solve took of the permittivity, taken now if none did.

        An adjoint solve following a forward solve of the same permittivity
        reuses it instead of hashing the permittivity again.
        """
        if self._fingerprint is None:
            self._fingerprint = eps_fingerprint(self.eps_r)
        return self._fingerprint

    # -- permittivity handling ----------------------------------------------------
    def set_permittivity(self, eps_r: np.ndarray) -> None:
        """Replace the permittivity map and evict the superseded factorization.

        Port modes and normalizations follow automatically: both are cached
        by the content of the port cross-sections they are derived from.
        """
        eps_r = np.asarray(eps_r, dtype=float)
        if eps_r.shape != self.grid.shape:
            raise ValueError(
                f"eps_r shape {eps_r.shape} does not match grid {self.grid.shape}"
            )
        old_fingerprint = self._fingerprint
        self.eps_r = eps_r
        self._fingerprint = None
        if old_fingerprint is None:
            return  # no solve took a fingerprint: this simulation cached nothing
        # Evict only the superseded design operator — but under *every*
        # engine tag: its direct LU and its condensed Schur factor are equally
        # superseded, and must not squat in the LRU.  (A recycled engine's
        # reference LUs are not cached; they age out of its own tables.)
        # Normalization factorizations solved through the same solver are left
        # to LRU aging: they are keyed by content, other simulations of the
        # same device may share them, and they stay correct regardless of this
        # design change.
        cache = getattr(self.solver.engine, "cache", None)
        if cache is not None:
            cache.evict(self.grid, self.omega, old_fingerprint)
        self.solver._solved_fingerprints.discard(old_fingerprint)

    # -- sources ----------------------------------------------------------------------
    def _prepare_port_modes(self, requests: dict[str, int]) -> None:
        """Solve all requested port modes in one batched eigendecomposition.

        ``requests`` maps port names to the number of modes needed.  Every
        port line is passed to :func:`~repro.fdfd.modes.solve_slab_modes_batch`
        at once, so the lines its cache cannot serve cost one LAPACK dispatch
        per distinct line length instead of one dense eigendecomposition per
        port per excitation.
        """
        if not requests:
            return
        lines = [self._port(name).eps_line(self.eps_r, self.grid) for name in requests]
        solve_slab_modes_batch(lines, self.grid.dl, self.omega, max(requests.values()))

    def port_modes(self, port_name: str, num_modes: int = 2) -> list[ModeProfile]:
        """Guided modes of a port cross-section for the current permittivity.

        Served from the process-wide line cache of :mod:`repro.fdfd.modes`,
        which a solve for at least ``num_modes`` modes already satisfies.
        """
        port = self._port(port_name)
        return port.solve_modes(self.eps_r, self.grid, self.omega, num_modes=num_modes)

    def mode_source(self, port_name: str, mode_index: int = 0) -> np.ndarray:
        """Current source injecting the given port mode."""
        return port_mode_source(
            self._port(port_name), self.eps_r, self.grid, self.omega, mode_index
        )

    def _port(self, name: str) -> Port:
        return find_port(self.ports, name)

    # -- normalization run ----------------------------------------------------------------
    def _normalization(self, port_name: str, mode_index: int) -> tuple[float, complex]:
        """Incident flux and modal overlap of the source in a straight waveguide.

        The reference structure is obtained by extruding the source-port
        permittivity cross-section along the port normal through the whole
        domain — i.e. the waveguide feeding the port, continued straight.  The
        solve goes through the shared engine, so identical normalization runs
        (same feeding waveguide, any number of simulations) hit the process-wide
        factorization cache instead of re-factorizing.  The *result* is cached
        process-wide too, keyed by the cross-section content: optimization
        loops (whose design never touches the port lines) and sibling
        Simulation instances skip the normalization solve entirely.
        """
        port = self._port(port_name)
        eps_line = port.eps_line(self.eps_r, self.grid)
        key = (
            self.grid,
            self.omega,
            # Results are engine-fidelity-specific: a surrogate's normalization
            # must never leak into an exact simulation, nor one model's into
            # another's.  The signature encodes everything result-relevant.
            self.solver.engine.fidelity_signature,
            port.normal_axis,
            port.position,
            port.center,
            port.span,
            port.direction,
            mode_index,
            eps_line.tobytes(),
        )
        cached = _NORMALIZATION_CACHE.get(key)
        if cached is not None:
            return cached
        eps_norm, monitor = normalization_geometry(self.grid, port, eps_line)
        source = port_mode_source(port, eps_norm, self.grid, self.omega, mode_index)
        solution = self.solver.solve(eps_norm, source)
        fields = (solution.ez, solution.hx, solution.hy)
        result = measure_incident(*fields, eps_norm, monitor, self.grid, self.omega, mode_index)
        _NORMALIZATION_CACHE.put(key, result)
        return result

    # -- forward solves ----------------------------------------------------------------------
    def solve(
        self,
        source_port: str | None = None,
        mode_index: int = 0,
        source: np.ndarray | None = None,
        monitor_ports: list[str] | None = None,
    ) -> SimulationResult:
        """Run a forward simulation and measure all monitors.

        Parameters
        ----------
        source_port:
            Name of the port to excite (default: the first port).
        mode_index:
            Which guided mode of the source port to inject.
        source:
            Explicit current source overriding the mode source (used when
            replaying stored dataset samples).
        monitor_ports:
            Ports to measure (default: every port except the source port).
        """
        if source_port is None:
            source_port = next(iter(self.ports))
        excitation = ExcitationSpec(
            source_port=source_port,
            mode_index=mode_index,
            source=source,
            monitor_ports=tuple(monitor_ports) if monitor_ports is not None else None,
        )
        return self.solve_multi([excitation])[0]

    def solve_multi(
        self,
        excitations: list[ExcitationSpec | tuple],
        workspace: "SolveWorkspace | None" = None,
        guess_keys: list | None = None,
    ) -> list[SimulationResult]:
        """Solve many excitations of the same device in one batched call.

        The permittivity is factorized once (or fetched from the shared
        cache); every excitation costs one back-substitution.  Excitations may
        be :class:`ExcitationSpec` instances or ``(source_port, mode_index)``
        tuples.

        With a ``workspace`` (:class:`~repro.fdfd.engine.SolveWorkspace`),
        previously stored fields become refinement initial guesses
        and the new fields are stored back — the warm-start loop of the
        recycled engine.  ``guess_keys`` (one hashable per excitation) defaults to
        ``(source_port, mode_index, wavelength)``; callers sharing one
        workspace across device states or corner variants must pass keys that
        disambiguate them.

        Every call solves every excitation; the permittivity is fingerprinted
        once per call.  Solves pass :attr:`port_rows`, so an engine with a
        ``design_region`` condenses them.  The ports are measured on the
        condensed solution; the fields are then recovered in full, at once
        without a workspace and on first read with one.

        Returns the :class:`SimulationResult` per excitation, in order.
        """
        specs = self._excitation_specs(excitations)
        if not specs:
            return []
        sources = self._excitation_sources(specs)

        x0 = None
        keys = None
        if workspace is not None:
            keys = guess_keys
            if keys is None:
                keys = [(spec.source_port, spec.mode_index, self.wavelength) for spec in specs]
            if len(keys) != len(specs):
                raise ValueError(
                    f"guess_keys length {len(keys)} does not match "
                    f"{len(specs)} excitations"
                )
            x0 = workspace.guess_stack(keys, self.grid.shape)

        # Fingerprinted from content on every solve, so an in-place edit of
        # eps_r (instead of set_permittivity) never reads a stale factorization.
        # Port modes and normalizations are keyed by cross-section content.
        self._fingerprint = eps_fingerprint(self.eps_r)
        solutions = self.solver.solve_batch(
            self.eps_r, sources, fingerprint=self._fingerprint, x0=x0, port_rows=self.port_rows
        )
        if workspace is not None:
            for key, solution in zip(keys, solutions):
                workspace.store(key, known(solution, "ez"))

        results = []
        for spec, source, solution in zip(specs, sources, solutions):
            # Measured on the fields as stored: deferred ones on their port rows.
            fields = vars(solution)
            result = self._measure(spec, source, fields["ez"], fields["hx"], fields["hy"])
            if workspace is None:
                # A one-off solve hands out its fields in full (a recovered
                # field keeps the port rows it was measured on).
                vars(result).update(ez=result.ez, hx=result.hx, hy=result.hy)
            results.append(result)
        return results

    @staticmethod
    def _excitation_specs(excitations: list[ExcitationSpec | tuple]) -> list[ExcitationSpec]:
        specs = []
        for excitation in excitations:
            if isinstance(excitation, ExcitationSpec):
                specs.append(excitation)
            elif isinstance(excitation, (tuple, list)):
                specs.append(ExcitationSpec(*excitation))
            else:
                raise TypeError(
                    "excitations must be ExcitationSpec instances or "
                    f"(source_port, mode_index) tuples; got {type(excitation)!r}"
                )
        return specs

    def _excitation_sources(self, specs: list[ExcitationSpec]) -> list[np.ndarray]:
        """The current source of every excitation.

        Every port mode the batch needs — sources and monitors alike — is
        solved first in one batched pass.
        """
        requests: dict[str, int] = {}
        for spec in specs:
            self._port(spec.source_port)
            if spec.source is None:
                needed = spec.mode_index + 1
                requests[spec.source_port] = max(requests.get(spec.source_port, 0), needed)
            monitors = spec.monitor_ports
            if monitors is None:
                monitors = [name for name in self.ports if name != spec.source_port]
            for name in monitors:
                requests[name] = max(requests.get(name, 0), 1)
        self._prepare_port_modes(requests)

        sources = []
        for spec in specs:
            if spec.source is None:
                sources.append(self.mode_source(spec.source_port, spec.mode_index))
            else:
                source = np.asarray(spec.source, dtype=complex)
                if source.shape != self.grid.shape:
                    raise ValueError(
                        f"source shape {source.shape} does not match grid {self.grid.shape}"
                    )
                sources.append(source)
        return sources

    def _measure(
        self,
        spec: ExcitationSpec,
        source: np.ndarray,
        ez: np.ndarray,
        hx: np.ndarray,
        hy: np.ndarray,
    ) -> SimulationResult:
        """Normalize and run every monitor on one forward field (:func:`measure_ports`)."""
        return measure_ports(
            ez,
            hx,
            hy,
            source,
            self.eps_r,
            self.grid,
            self.omega,
            self.wavelength,
            self.ports,
            spec.source_port,
            spec.mode_index,
            spec.monitor_ports,
            self._normalization(spec.source_port, spec.mode_index),
        )

    # -- physics checks -------------------------------------------------------------------------
    def maxwell_residual(self, result: SimulationResult) -> float:
        """Relative Maxwell residual of a result (sanity check / physics loss label)."""
        residual = self.solver.residual(self.eps_r, result.ez, result.source)
        rhs = 1j * self.omega * result.source
        denom = np.linalg.norm(rhs.ravel())
        return float(np.linalg.norm(residual.ravel()) / (denom + 1e-30))
