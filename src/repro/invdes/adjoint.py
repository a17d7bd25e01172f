"""Per-excitation objectives and adjoint gradients across the fidelity tiers.

:func:`evaluate_specs` is the one spec-evaluation loop: it groups the specs,
builds each group's permittivity, runs one forward per group, evaluates every
objective and, for gradients, runs the adjoint and chains the permittivity
gradient back to the design density.  What differs between the tiers sits
behind three private physics adapters (``group_key``, ``forward``,
``adjoint``): linear FDFD (one :class:`~repro.fdfd.simulation.Simulation`
per wavelength and device state, solves batched through a
:class:`FieldBackend` against one factorization), the Kerr fixed point
(:class:`~repro.fdfd.nonlinear.NonlinearSimulation`) and broadband FDTD (one
pulsed :class:`~repro.fdtd.broadband.FdtdSimulation` run per excitation,
forward-only).  A :class:`Sweep` expands the specs along its axes:
wavelength-major for a broadband band, intensity-major for the drive powers of
a Kerr device, so no tier needs a per-point pass of its own.

The field backend lets the linear tier serve the numerical solver engines
(direct, recycled) and the neural surrogates of Table II / Figure 6 alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import wavelength_to_omega
from repro.devices.base import Device, TargetSpec, positive_weight_norm
from repro.fdfd.engine import SolverEngine, SolveWorkspace, resolve_engine
from repro.fdfd.lazy import LazyField, known
from repro.fdfd.simulation import ExcitationSpec, Simulation, SimulationResult
from repro.invdes.objectives import CompositeObjective, objective_for_spec

if TYPE_CHECKING:  # annotations only; the Kerr tier loads on first use
    from repro.fdfd.nonlinear import KerrNonlinearity


class FieldBackend:
    """Interface for forward/adjoint field computation.

    The numerical backend delegates to a solver engine; the neural backend in
    :mod:`repro.surrogate` predicts the fields with a trained model.  Both
    return grid-shaped complex arrays; the numerical backend's
    :meth:`adjoint_fields` may return :class:`~repro.fdfd.lazy.Deferred`
    ones (port-reduced solves), which convert to their full arrays on
    request.  The batched entry points default to a sequential loop so
    simple backends only implement the per-spec methods.
    """

    #: Engine (or engine name) simulations built for this backend should use.
    engine: SolverEngine | str | None = None

    def forward_fields(self, sim: Simulation, spec: TargetSpec) -> SimulationResult:
        raise NotImplementedError

    def adjoint_field(
        self, sim: Simulation, spec: TargetSpec, adjoint_source: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    # -- batched entry points (override for factorize-once behaviour) -----------
    def forward_results(
        self, sim: Simulation, specs: list[TargetSpec]
    ) -> list[SimulationResult]:
        return [self.forward_fields(sim, spec) for spec in specs]

    def adjoint_fields(
        self, sim: Simulation, specs: list[TargetSpec], adjoint_sources: list[np.ndarray]
    ) -> list[np.ndarray]:
        return [
            self.adjoint_field(sim, spec, source)
            for spec, source in zip(specs, adjoint_sources)
        ]


class NumericalFieldBackend(FieldBackend):
    """Fields from a solver engine (the default backend).

    Parameters
    ----------
    engine:
        Solver engine or engine name forwarded to every
        :class:`~repro.fdfd.simulation.Simulation` this backend evaluates;
        None selects the exact direct engine.  Registry names are resolved
        once at construction so stateful engines (the recycled tier's
        reference factorizations, iteration counters) persist across the
        Simulations built per optimizer iteration instead of being recreated
        with each one.
    workspace:
        Optional :class:`~repro.fdfd.engine.SolveWorkspace` threading
        previous-iteration forward and adjoint fields into the next solve as
        refinement initial guesses, keyed by ``(spec, wavelength, device state)``.
        Only consulted when the engine advertises ``supports_warm_start``.
    """

    def __init__(
        self,
        engine: SolverEngine | str | None = None,
        workspace: SolveWorkspace | None = None,
    ):
        self.engine = resolve_engine(engine) if isinstance(engine, str) else engine
        self.workspace = workspace

    # -- warm-start plumbing -----------------------------------------------------
    def _active_workspace(self, sim: Simulation) -> SolveWorkspace | None:
        """The workspace, when the simulation's engine can profit from it."""
        if self.workspace is None:
            return None
        if not getattr(sim.engine, "supports_warm_start", False):
            return None
        return self.workspace

    @staticmethod
    def _spec_key(kind: str, sim: Simulation, spec: TargetSpec) -> tuple:
        """Workspace key: one slot per (solve kind, spec, wavelength, state).

        ``sim.wavelength`` (not ``spec.wavelength``) so corner variants with a
        wavelength shift do not collide with the nominal run.
        """
        return (
            kind,
            spec.source_port,
            spec.source_mode,
            sim.wavelength,
            tuple(sorted(spec.state.items())),
        )

    def forward_fields(self, sim: Simulation, spec: TargetSpec) -> SimulationResult:
        return sim.solve(
            source_port=spec.source_port,
            mode_index=spec.source_mode,
            monitor_ports=spec.monitored_ports(),
        )

    def adjoint_field(
        self, sim: Simulation, spec: TargetSpec, adjoint_source: np.ndarray
    ) -> np.ndarray:
        return np.asarray(self.adjoint_fields(sim, [spec], [adjoint_source])[0])

    def forward_results(
        self, sim: Simulation, specs: list[TargetSpec]
    ) -> list[SimulationResult]:
        workspace = self._active_workspace(sim)
        guess_keys = None
        if workspace is not None:
            guess_keys = [self._spec_key("forward", sim, spec) for spec in specs]
        return sim.solve_multi(
            _excitations(specs), workspace=workspace, guess_keys=guess_keys
        )

    def adjoint_fields(
        self, sim: Simulation, specs: list[TargetSpec], adjoint_sources: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Adjoint fields against the operator of the forward solve they follow.

        The solve reuses the permittivity fingerprint that forward solve of
        ``sim`` took, so ``sim.eps_r`` must not be edited in place between the
        two (:meth:`Simulation.set_permittivity` starts afresh).
        """
        workspace = self._active_workspace(sim)
        x0 = None
        keys = None
        if workspace is not None:
            keys = [self._spec_key("adjoint", sim, spec) for spec in specs]
            x0 = workspace.guess_stack(keys, sim.grid.shape)
        lams = sim.solver.solve_adjoint_batch(
            sim.eps_r,
            adjoint_sources,
            fingerprint=sim._eps_fingerprint,
            x0=x0,
            port_rows=sim.port_rows,
        )
        if workspace is not None:
            for key, lam in zip(keys, lams):
                workspace.store(key, known(lam))
        return lams


@dataclass(frozen=True)
class Sweep:
    """The operating points a design is evaluated at: one validated sweep.

    ``wavelengths`` is the broadband axis: every spec is evaluated at each of
    these wavelengths (overriding its own), wavelength-major.  It is
    forward-only (see :meth:`check_gradient`).  With a time-domain engine
    (``"fdtd"``) one pulsed run per excitation serves all wavelengths; any
    other engine solves once per wavelength.

    ``nonlinearity`` is a :class:`~repro.fdfd.nonlinear.KerrNonlinearity`:
    every spec converges as a Kerr fixed point (``eps_eff = eps + chi3
    |E|^2``) instead of a linear solve.

    ``intensities`` is the Kerr device's axis (it requires ``nonlinearity``):
    every spec is evaluated at each of these source scales, which multiply
    ``nonlinearity.source_scale``.  The order is intensity-major, as for
    ``wavelengths``.

    The default ``Sweep()`` is the single linear operating point of each
    spec.  Axes are stored as tuples of floats.  An empty axis is rejected,
    since it would silently evaluate nothing.
    """

    wavelengths: tuple[float, ...] | None = None
    nonlinearity: KerrNonlinearity | None = None
    intensities: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("wavelengths", "intensities"):
            axis = getattr(self, name)
            if axis is None:
                continue
            axis = tuple(float(value) for value in np.atleast_1d(axis))
            if not axis:
                raise ValueError(f"sweep axis {name} is empty; pass None to drop it")
            object.__setattr__(self, name, axis)
        if self.intensities is not None and self.nonlinearity is None:
            raise ValueError("intensities is the nonlinear sweep axis; pass nonlinearity too")
        if self.nonlinearity is not None and self.wavelengths is not None:
            raise ValueError("broadband and nonlinear sweeps cannot be combined")

    def check_gradient(self, compute_gradient: bool) -> None:
        """Reject gradients of a broadband sweep: the FDTD tier has no adjoint."""
        if self.wavelengths is not None and compute_gradient:
            raise ValueError(
                "broadband sweeps are forward-only; pass compute_gradient=False "
                "(with_gradient=False for labels and generators)"
            )

    def stamp(self) -> dict:
        """The keys this sweep adds to shard fingerprints and dataset metadata.

        Only set axes are stamped, so linear single-wavelength artifacts keep
        the fingerprints they had before sweeps existed.  The nonlinearity is
        stamped by its ``chi3`` alone; generators accept no other Kerr setting.
        """
        keys: dict = {}
        if self.wavelengths is not None:
            keys["wavelengths"] = list(self.wavelengths)
        if self.nonlinearity is not None:
            keys["chi3"] = float(self.nonlinearity.chi3)
            if self.intensities is not None:
                keys["intensities"] = list(self.intensities)
        return keys


@dataclass
class SpecEvaluation:
    """Result of evaluating one target spec at one design density."""

    spec: TargetSpec
    objective_value: float
    grad_density: np.ndarray
    transmissions: dict[str, float] = field(default_factory=dict)
    result: SimulationResult | None = None
    #: The adjoint field, exact outside the PML only (the solve reuses ``A``
    #: for ``A^T``; see :class:`~repro.fdfd.engine.SolverEngine`).  After a
    #: port-reduced solve only the design region (all the gradient needs)
    #: and the port rows were computed; the first read recovers the rest.
    adjoint_field: np.ndarray | None = LazyField(default=None)
    #: Convergence telemetry of the Kerr fixed point (nonlinear path only).
    nonlinear_stats: "object | None" = None
    #: The Kerr nonlinearity this spec ran at, scaled to its intensity
    #: (nonlinear path only).
    nonlinearity: KerrNonlinearity | None = None

    @property
    def weighted_value(self) -> float:
        return self.spec.weight * self.objective_value


def simulation_group_key(spec: TargetSpec) -> tuple:
    """Specs sharing this key can share one Simulation (one operator)."""
    return (spec.wavelength, tuple(sorted(spec.state.items())))


def _excitations(specs: list[TargetSpec]) -> list[ExcitationSpec]:
    return [
        ExcitationSpec(
            source_port=spec.source_port,
            mode_index=spec.source_mode,
            monitor_ports=tuple(spec.monitored_ports()),
        )
        for spec in specs
    ]


class _LinearPhysics:
    """Linear FDFD: one :class:`Simulation` per group, solved through the backend.

    The backend batches the group's forward and adjoint right-hand sides
    against one factorization and threads its warm-start workspace.
    """

    group_key = staticmethod(simulation_group_key)
    nonlinearity = None

    def __init__(self, device: Device, backend: FieldBackend):
        self.device = device
        self.backend = backend

    def forward(self, eps, specs, wavelength_shift):
        sim = Simulation(
            self.device.grid,
            eps,
            specs[0].wavelength + wavelength_shift,
            self.device.geometry.ports,
            engine=self.backend.engine,
        )
        results = self.backend.forward_results(sim, specs)
        return sim, [sim] * len(specs), results, [None] * len(specs)

    def adjoint(self, sim, specs, results, adjoint_sources):
        return self.backend.adjoint_fields(sim, specs, adjoint_sources)


class _KerrPhysics:
    """Kerr fixed point: one :class:`~repro.fdfd.nonlinear.NonlinearSimulation`
    per group, each excitation converged on its own (no superposition).

    A ``power`` state scales the injected source, so power-sweep specs land in
    distinct groups.  The adjoint goes through the converged fixed point; chi3
    is a fixed material map of the device, so the linear chain rule on the
    permittivity gradient is complete.
    """

    group_key = staticmethod(simulation_group_key)

    def __init__(self, device: Device, backend: FieldBackend, nonlinearity):
        if not isinstance(backend, NumericalFieldBackend):
            raise ValueError(
                "nonlinear evaluation drives the engine seam directly; only the "
                "numerical field backend is supported"
            )
        self.device = device
        self.engine = backend.engine
        self.nonlinearity = nonlinearity
        self.chi3_map = device.chi3_map(nonlinearity.chi3)

    def forward(self, eps, specs, wavelength_shift):
        from repro.fdfd.nonlinear import NonlinearSimulation

        power = float(specs[0].state.get("power", 1.0))
        sim = NonlinearSimulation.from_nonlinearity(
            self.device.grid,
            eps,
            specs[0].wavelength + wavelength_shift,
            self.device.geometry.ports,
            self.chi3_map,
            self.nonlinearity,
            engine=self.engine,
            source_scale=power * self.nonlinearity.source_scale,
        )
        results = sim.solve_multi(_excitations(specs))
        return sim, [sim] * len(specs), results, list(sim.last_stats)

    def adjoint(self, sim, specs, results, adjoint_sources):
        return [
            sim.solve_adjoint(result.ez, source)
            for result, source in zip(results, adjoint_sources)
        ]


class _BroadbandObjectiveContext:
    """Duck-typed :class:`Simulation` stand-in for objective evaluation.

    Objectives read ``ports``, ``eps_r``, ``grid`` and ``omega`` only, so no
    FDFD solver is built per extraction wavelength.
    """

    def __init__(self, grid, eps_r, wavelength: float, ports: dict):
        self.grid = grid
        self.eps_r = eps_r
        self.wavelength = float(wavelength)
        self.omega = wavelength_to_omega(self.wavelength)
        self.ports = dict(ports)


class _FdtdPhysics:
    """Broadband time domain: one pulsed run per (excitation, state) group
    serves every wavelength.  Forward-only, so it has no adjoint.
    """

    nonlinearity = None

    @staticmethod
    def group_key(spec: TargetSpec) -> tuple:
        return (spec.source_port, spec.source_mode, tuple(sorted(spec.state.items())))

    def __init__(self, device: Device, engine, wavelengths: tuple[float, ...]):
        self.device = device
        self.engine = engine
        self.wavelengths = wavelengths

    def forward(self, eps, specs, wavelength_shift):
        from repro.fdtd.broadband import FdtdSimulation

        engine = self.engine
        run_wavelengths = [w + wavelength_shift for w in self.wavelengths]
        sim = FdtdSimulation(
            self.device.grid,
            eps,
            run_wavelengths,
            self.device.geometry.ports,
            courant=engine.courant,
            tau_s=engine.tau_s,
            decay_tol=engine.decay_tol,
            max_steps=engine.max_steps,
            check_every=engine.check_every,
            precision=engine.precision,
        )
        monitor_ports = list(
            dict.fromkeys(name for spec in specs for name in spec.monitored_ports())
        )
        per_wavelength = sim.solve(
            source_port=specs[0].source_port,
            mode_index=specs[0].source_mode,
            monitor_ports=monitor_ports,
        )
        contexts = [
            _BroadbandObjectiveContext(self.device.grid, eps, w, sim.ports)
            for w in run_wavelengths
        ]
        slots = [self.wavelengths.index(spec.wavelength) for spec in specs]
        contexts = [contexts[k] for k in slots]
        return sim, contexts, [per_wavelength[k] for k in slots], [None] * len(specs)


def evaluate_specs(
    device: Device,
    density: np.ndarray,
    specs: list[TargetSpec] | None = None,
    backend: FieldBackend | None = None,
    objectives: dict[int, CompositeObjective] | None = None,
    compute_gradient: bool = True,
    eps_postprocess=None,
    wavelength_shift: float = 0.0,
    sweep: Sweep = Sweep(),
) -> list[SpecEvaluation]:
    """Objective values and density gradients for many specs, batched.

    One loop serves every fidelity tier: specs are grouped by the tier's
    physics adapter (see the module docstring) and each group shares one
    forward and, for gradients, one adjoint.  Results are returned in the
    order of ``specs``, expanded along the sweep axes.

    Parameters
    ----------
    device:
        The benchmark device providing geometry and ports.
    density:
        Design density in ``[0, 1]`` on the design region.
    specs:
        Excitation specs to evaluate (``device.specs`` by default).
    backend:
        Field backend (numerical, engine-backed by default).  The linear tier
        solves each group through it: one factorization, one batched forward
        and one batched adjoint solve.
    objectives:
        Optional per-spec objective overrides keyed by position in ``specs``;
        unlisted specs get the mode-transmission objective built from their
        port weights.  An override applies to its spec at every point of the
        sweep.
    compute_gradient:
        If False, skip the adjoint solves (used for dataset labelling where
        only the forward quantities are needed).
    eps_postprocess:
        Optional callable applied to the permittivity before simulation
        (temperature drift of variation-aware corners).
    wavelength_shift:
        Added to every spec wavelength (laser drift corner).
    sweep:
        The operating points (see :class:`Sweep`).  A ``wavelengths`` axis
        returns the evaluations wavelength-major -- ``[eval(w0, spec0),
        eval(w0, spec1), ..., eval(w1, spec0), ...]`` -- each evaluation's
        ``spec`` carrying its wavelength.  An ``intensities`` axis returns
        them intensity-major in the same way.  Under a ``nonlinearity`` each
        spec converges as a Kerr fixed point: the chi3 map comes from
        :meth:`~repro.devices.base.Device.chi3_map` and the injected power is
        ``spec.state["power"] * nonlinearity.source_scale`` (``power``
        defaults to 1).  Gradients go *through* the converged fixed point via
        the implicit-function adjoint; each evaluation carries its
        :class:`~repro.fdfd.nonlinear.NonlinearStats` and its scaled
        nonlinearity.  The Kerr path is engine-backed only: the inner solves
        ride ``backend.engine`` through the ordinary registry (a recycled
        engine on the design region makes the outer iterations
        diagonal-update cheap);
        neural field backends are not supported.
    """
    sweep.check_gradient(compute_gradient)
    backend = backend or NumericalFieldBackend()
    if specs is None:
        specs = device.specs
    if not specs:
        return []
    density = np.asarray(density, dtype=float)
    n = len(specs)
    # One physics adapter per point of the intensity axis (one otherwise);
    # the specs are repeated axis-major, one block of ``n`` per point.
    points = [_LinearPhysics(device, backend)]
    nonlinearity = sweep.nonlinearity
    if nonlinearity is not None:
        scaled = [nonlinearity]
        if sweep.intensities is not None:
            scaled = [
                nonlinearity.with_scale(nonlinearity.source_scale * s)
                for s in sweep.intensities
            ]
        points = [_KerrPhysics(device, backend, kerr) for kerr in scaled]
        specs = list(specs) * len(points)
    if sweep.wavelengths is not None:
        specs = [replace(spec, wavelength=w) for w in sweep.wavelengths for spec in specs]
        from repro.fdtd.engine import FdtdFrequencyEngine

        engine = backend.engine
        if isinstance(engine, str):
            engine = resolve_engine(engine)
        if isinstance(engine, FdtdFrequencyEngine):
            points = [_FdtdPhysics(device, engine, sweep.wavelengths)]
    if objectives is not None:
        objectives = {
            k * n + i: objective
            for k in range(len(specs) // n)
            for i, objective in objectives.items()
        }

    block = len(specs) // len(points)
    groups: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        point = index // block
        groups.setdefault((point, points[point].group_key(spec)), []).append(index)

    evaluations: list[SpecEvaluation | None] = [None] * len(specs)
    scale = device.geometry.eps_core - device.geometry.eps_clad
    for (point, _), indices in groups.items():
        physics = points[point]
        group_specs = [specs[i] for i in indices]
        eps = device.eps_with_design(density)
        eps = device.apply_state(eps, group_specs[0].state)
        if eps_postprocess is not None:
            eps = eps_postprocess(eps)
        sim, contexts, results, stats = physics.forward(eps, group_specs, wavelength_shift)

        values = []
        adjoint_sources = []
        for position, spec, context, result in zip(indices, group_specs, contexts, results):
            objective = None if objectives is None else objectives.get(position)
            objective = objective or objective_for_spec(spec)
            value, adjoint_source = objective.value_and_adjoint_source(context, result)
            values.append(float(value))
            adjoint_sources.append(adjoint_source)

        lams = [None] * len(indices)
        if compute_gradient:
            lams = physics.adjoint(sim, group_specs, results, adjoint_sources)
        for position, spec, result, value, lam, stat in zip(
            indices, group_specs, results, values, lams, stats
        ):
            if compute_gradient:
                # Deferred fields are read on the design region only.
                grad_eps = sim.solver.permittivity_gradient(known(result, "ez"), known(lam))
                if not np.isfinite(grad_eps[device.geometry.design_slice]).all():
                    # The engine's region misses part of the device's (an
                    # engine shared with another device): deferred fields
                    # are NaN there, so read the recovered ones.
                    grad_eps = sim.solver.permittivity_gradient(result.ez, np.asarray(lam))
                # Chain rule: eps = eps_clad + (eps_core - eps_clad) * rho inside
                # the design region (device states add permittivity
                # independently of rho).
                grad_density = grad_eps[device.geometry.design_slice] * scale
            else:
                grad_density = np.zeros(device.design_shape)
            evaluations[position] = SpecEvaluation(
                spec=spec,
                objective_value=value,
                grad_density=grad_density,
                transmissions=dict(result.transmissions),
                result=result,
                adjoint_field=lam,
                nonlinear_stats=stat,
                nonlinearity=physics.nonlinearity,
            )
    return evaluations


def evaluate_spec(
    device: Device,
    density: np.ndarray,
    spec: TargetSpec,
    backend: FieldBackend | None = None,
    objective: CompositeObjective | None = None,
    compute_gradient: bool = True,
    eps_postprocess=None,
    wavelength_shift: float = 0.0,
) -> SpecEvaluation:
    """Objective value and density gradient for a single excitation spec.

    Thin wrapper over :func:`evaluate_specs` at one linear operating point;
    forward and adjoint still share one factorization through the engine
    cache.
    """
    return evaluate_specs(
        device,
        density,
        specs=[spec],
        backend=backend,
        objectives={0: objective} if objective is not None else None,
        compute_gradient=compute_gradient,
        eps_postprocess=eps_postprocess,
        wavelength_shift=wavelength_shift,
    )[0]


def evaluate_all_specs(
    device: Device,
    density: np.ndarray,
    backend: FieldBackend | None = None,
    compute_gradient: bool = True,
    eps_postprocess=None,
    wavelength_shift: float = 0.0,
    sweep: Sweep = Sweep(),
) -> tuple[float, np.ndarray, list[SpecEvaluation]]:
    """Weighted objective and gradient accumulated over all device specs.

    All specs are evaluated through the batched :func:`evaluate_specs` path.
    The normalization matches :meth:`repro.devices.base.Device.figure_of_merit`:
    the weighted sum is divided by the total positive weight so a perfect
    router scores 1.
    """
    evaluations = evaluate_specs(
        device,
        density,
        backend=backend,
        compute_gradient=compute_gradient,
        eps_postprocess=eps_postprocess,
        wavelength_shift=wavelength_shift,
        sweep=sweep,
    )
    total = 0.0
    weight_norm = 0.0
    grad = np.zeros(device.design_shape)
    for evaluation in evaluations:
        spec = evaluation.spec
        total += spec.weight * evaluation.objective_value
        grad += spec.weight * evaluation.grad_density
        weight_norm += spec.weight * max(positive_weight_norm(spec.port_weights), 1e-12)
    if weight_norm > 0:
        total /= weight_norm
        grad /= weight_norm
    return float(total), grad, evaluations
