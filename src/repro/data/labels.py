"""Rich label extraction for dataset samples.

For every (design, excitation) pair MAPS-Data stores much more than the field
map: transmission/reflection/radiation figures, S-parameters, the adjoint
gradient under the device objective, the injected source and the Maxwell
residual.  Rich labels let one dataset serve many learning tasks (black-box
S-parameter regression, field prediction, gradient supervision,
physics-informed residual losses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.devices.base import Device, TargetSpec, positive_weight_norm
from repro.fdfd.engine import SolverEngine, resolve_engine
from repro.fdfd.simulation import Simulation
from repro.invdes.adjoint import (
    FieldBackend,
    NumericalFieldBackend,
    Sweep,
    evaluate_specs,
    simulation_group_key,
)


@dataclass
class RichLabels:
    """All labels attached to one (design, excitation) sample."""

    device_name: str
    spec_index: int
    wavelength: float
    dl: float
    density: np.ndarray
    eps_r: np.ndarray
    source: np.ndarray
    ez: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    transmissions: dict[str, float]
    s_params: dict[str, complex]
    objective_value: float
    figure_of_merit: float
    radiation: float
    adjoint_gradient: np.ndarray | None = None
    maxwell_residual: float = 0.0
    fidelity: str = "low"
    stage: str = "unknown"
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.ez.shape

    def total_transmission(self) -> float:
        return float(sum(self.transmissions.values()))


def spec_figure_of_merit(
    port_weights: dict[str, float], transmissions: dict[str, float]
) -> float:
    """Figure of merit of one spec: ``sum_p w_p T_p`` over a weight norm.

    The norm is the sum of the positive weights, as in
    :meth:`Device.figure_of_merit`, so a perfect router scores 1.  A spec
    with only penalty weights (e.g. a power limiter's "stay dark" state) is
    normalized by ``sum |w|`` instead, which keeps its score in ``[-1, 0]``.
    """
    norm = positive_weight_norm(port_weights)
    if norm <= 0:
        norm = max(sum(abs(w) for w in port_weights.values()), 1e-12)
    weighted = sum(w * transmissions.get(p, 0.0) for p, w in port_weights.items())
    return float(weighted / norm)


def extract_labels_batch(
    device: Device,
    density: np.ndarray,
    specs: list[TargetSpec | int] | None = None,
    with_gradient: bool = True,
    fidelity: str | None = None,
    stage: str = "unknown",
    backend: FieldBackend | None = None,
    engine: SolverEngine | str | None = None,
    sweep: Sweep = Sweep(),
) -> list[RichLabels]:
    """Simulate one design under many excitation specs and extract all labels.

    All specs of the design are evaluated through the batched adjoint path
    (:func:`repro.invdes.adjoint.evaluate_specs`): specs sharing a wavelength
    and device state are solved against one factorization, forward and adjoint
    right-hand sides stacked into single multi-RHS solves.  This is how the
    dataset generator labels every excitation of a design for the cost of one
    factorization per operator.

    Parameters
    ----------
    device:
        The benchmark device (determines grid, ports and objective).
    density:
        Design density on the design region.
    specs:
        Excitation specs, or their indices in ``device.specs``; all device
        specs by default.
    with_gradient:
        Include the adjoint gradient of the device objective (adds one
        back-substitution per sample to the batch).
    fidelity:
        Fidelity tag stored with the samples (defaults to the device fidelity).
    stage:
        Free-form tag describing where the design came from (e.g.
        ``"random"``, ``"opt-traj:12"``, ``"perturbed"``).
    backend:
        Field backend used for the solves (engine-backed numerical default).
    engine:
        Solver engine or registry name (``"direct"``, ``"recycled"``, ...)
        selecting the fidelity tier of the default numerical backend.
        Mutually exclusive with ``backend``.  None and registry names of the
        exact tiers are built with the device's design region (see
        :func:`~repro.fdfd.engine.resolve_engine`), so each design factors
        only its condensed operator against an exterior factored once per
        device and wavelength (see :class:`~repro.fdfd.engine.DirectEngine`).
        Which solves condense depends only on the call, so serial, pooled and
        resumed runs label identically.  Engine instances are used as given.
    sweep:
        The operating points to label every spec at (see
        :class:`~repro.invdes.adjoint.Sweep`), axis-major as
        :func:`~repro.invdes.adjoint.evaluate_specs` returns them.  A
        broadband sweep is forward-only (``with_gradient`` must be False).
        Under a ``nonlinearity`` the specs are labelled at the *converged
        Kerr fixed point*: the recorded Maxwell residual is the nonlinear one
        from the fixed-point iteration, and every label carries ``chi3``,
        ``source_scale`` and iteration counts in :attr:`RichLabels.extras` so
        surrogates can condition on the intensity axis.
    """
    if backend is None:
        engine = resolve_engine(engine, design_region=device.geometry.design_slice)
        backend = NumericalFieldBackend(engine=engine)
    elif engine is not None:
        raise ValueError("pass either backend or engine, not both")
    count = len(device.specs)
    if specs is None:
        specs = list(range(count))
    resolved: list[tuple[int, TargetSpec]] = []
    for spec in specs:
        if isinstance(spec, int):
            if not -count <= spec < count:
                raise ValueError(
                    f"spec index {spec} out of range for device {device.name!r} "
                    f"with {count} specs"
                )
            # Record the canonical (non-negative) index, as shards store it.
            resolved.append((range(count)[spec], device.specs[spec]))
        elif spec in device.specs:
            resolved.append((device.specs.index(spec), spec))
        else:
            raise ValueError(
                f"expected an index or a member of device.specs of {device.name!r}; "
                f"got {spec!r}"
            )

    evaluations = evaluate_specs(
        device,
        density,
        specs=[spec for _, spec in resolved],
        backend=backend,
        compute_gradient=with_gradient,
        sweep=sweep,
    )

    # Full-grid permittivities and residual simulations are shared across the
    # specs of a design: one per device state / (wavelength, state) pair.
    eps_by_state: dict[tuple, np.ndarray] = {}
    sim_by_key: dict[tuple, object] = {}

    labels = []
    for position, evaluation in enumerate(evaluations):
        # Sweep evaluations come back axis-major: all specs at the first
        # operating point, then all at the second, ...  Each evaluation's
        # spec carries its actual wavelength, which the labels record.
        spec_index = resolved[position % len(resolved)][0]
        spec = evaluation.spec
        result = evaluation.result
        sim_key = simulation_group_key(spec)
        state_key = sim_key[1]
        eps_r = eps_by_state.get(state_key)
        if eps_r is None:
            eps_r = device.apply_state(device.eps_with_design(density), spec.state)
            eps_by_state[state_key] = eps_r

        fom = spec_figure_of_merit(spec.port_weights, result.transmissions)

        extras: dict[str, float] = {}
        kerr = evaluation.nonlinearity
        if kerr is not None:
            # The linear operator does not annihilate a Kerr solution; the
            # meaningful residual is the nonlinear one the fixed point
            # converged, tracked by the solve itself.
            stats = evaluation.nonlinear_stats
            residual = float(stats.residuals[-1]) if stats.residuals else 0.0
            chi3_value = kerr.chi3 if kerr.chi3 is not None else device.chi3
            extras = {
                "chi3": float(chi3_value),
                "source_scale": float(spec.state.get("power", 1.0)) * kerr.source_scale,
                "nonlinear_iterations": float(stats.iterations),
                "nonlinear_inner_solves": float(stats.inner_solves),
            }
        else:
            sim = sim_by_key.get(sim_key)
            if sim is None:
                sim = Simulation(
                    device.grid,
                    eps_r,
                    spec.wavelength,
                    device.geometry.ports,
                    engine=backend.engine,
                )
                sim_by_key[sim_key] = sim
            residual = sim.maxwell_residual(result)

        labels.append(
            RichLabels(
                device_name=device.name,
                spec_index=spec_index,
                wavelength=spec.wavelength,
                dl=device.dl,
                density=np.asarray(density, dtype=float).copy(),
                eps_r=np.asarray(eps_r, dtype=float),
                source=result.source,
                ez=result.ez,
                hx=result.hx,
                hy=result.hy,
                transmissions=dict(result.transmissions),
                s_params=dict(result.s_params),
                objective_value=evaluation.objective_value,
                figure_of_merit=fom,
                radiation=result.radiation,
                adjoint_gradient=evaluation.grad_density if with_gradient else None,
                maxwell_residual=residual,
                fidelity=fidelity if fidelity is not None else device.fidelity,
                stage=stage,
                extras=extras,
            )
        )
    return labels


def extract_labels(
    device: Device,
    density: np.ndarray,
    spec: TargetSpec | int = 0,
    with_gradient: bool = True,
    fidelity: str | None = None,
    stage: str = "unknown",
    backend: FieldBackend | None = None,
    engine: SolverEngine | str | None = None,
) -> RichLabels:
    """Labels for a single (design, excitation) pair (see :func:`extract_labels_batch`)."""
    return extract_labels_batch(
        device,
        density,
        specs=[spec],
        with_gradient=with_gradient,
        fidelity=fidelity,
        stage=stage,
        backend=backend,
        engine=engine,
    )[0]


def standardize_input(
    eps_r: np.ndarray,
    source: np.ndarray,
    wavelength: float,
    dl: float,
    eps_max: float = 12.25,
) -> np.ndarray:
    """Standardized model input of MAPS-Train.

    The models all consume the same representation: four real channels

    1. relative permittivity scaled to ``[0, 1]``,
    2. real part of the source current (unit max-amplitude),
    3. imaginary part of the source current,
    4. a constant channel encoding the grid resolution in wavelengths
       (``dl / wavelength``), which is what lets a model generalize across
       fidelity levels and wavelengths.
    """
    eps_r = np.asarray(eps_r, dtype=float)
    source = np.asarray(source)
    scale = np.max(np.abs(source))
    if scale <= 0:
        scale = 1.0
    src = source / scale
    resolution = np.full(eps_r.shape, dl / wavelength)
    return np.stack(
        [eps_r / eps_max, np.real(src), np.imag(src), resolution], axis=0
    ).astype(np.float64)


def field_target(
    ez: np.ndarray, field_scale: float = 1.0, source: np.ndarray | None = None
) -> np.ndarray:
    """Model target: real/imaginary parts of ``Ez`` scaled to the model convention.

    The field is divided by ``field_scale`` (a dataset-wide constant) and, when
    the source is provided, by the source's maximum amplitude.  Together with
    :func:`standardize_input` (which divides the source by the same amplitude)
    this makes the learned map amplitude-invariant, so a trained model can be
    applied to sources of any strength — in particular to adjoint sources —
    by rescaling its output (see :class:`repro.surrogate.neural_solver.NeuralFieldBackend`).
    """
    ez = np.asarray(ez)
    scale = float(field_scale)
    if source is not None:
        amplitude = float(np.max(np.abs(source)))
        if amplitude > 0:
            scale *= amplitude
    return np.stack([ez.real, ez.imag], axis=0).astype(np.float64) / scale
