"""A trained field-prediction model wrapped as an inverse-design field backend.

The backend reproduces the paper's final case study: the numerical solver in
the adjoint loop is replaced by the neural operator for both the forward and
the adjoint solves, while all derived quantities (magnetic fields, fluxes,
modal overlaps, permittivity gradients) are computed with the same analytic
formulas as in the numerical path.

Scaling convention
------------------
Models are trained on amplitude-normalized pairs (see
:func:`repro.data.labels.standardize_input` / ``field_target``): the source is
divided by its maximum amplitude and the target field by the same amplitude
times the dataset ``field_scale``.  Because Maxwell's equations are linear in
the source, a prediction for an arbitrary source ``J`` is recovered as
``Ez = model(standardize(J)) * field_scale * max|J|``.  The adjoint equation
``A^T lam = g`` differs from the forward equation ``A e = i omega J`` only by
the factor ``i omega``, so the adjoint field is obtained by treating ``g`` as a
source and dividing the prediction by ``i omega``.
"""

from __future__ import annotations

import numpy as np

from repro.constants import omega_to_wavelength
from repro.data.labels import standardize_input
from repro.devices.base import TargetSpec
from repro.fdfd.engine import SolverEngine, register_engine
from repro.fdfd.grid import Grid
from repro.fdfd.simulation import Simulation, SimulationResult, measure_ports
from repro.invdes.adjoint import FieldBackend
from repro.nn.module import Module
from repro.train.trainer import predict
from repro.utils.numerics import channels_to_complex


def predict_ez(
    model: Module,
    field_scale: float,
    eps_r: np.ndarray,
    source: np.ndarray,
    wavelength: float,
    dl: float,
) -> np.ndarray:
    """Predict the complex ``Ez`` produced by an arbitrary current source.

    Applies the amplitude-normalization convention described in the module
    docstring: the model sees a unit-amplitude source and its output is
    rescaled by ``field_scale * max|source|``.  Returns complex128 whatever
    the model's compute dtype.
    """
    source = np.asarray(source, dtype=complex)
    amplitude = float(np.max(np.abs(source)))
    if amplitude <= 0:
        return np.zeros(np.asarray(eps_r).shape, dtype=complex)
    inputs = standardize_input(eps_r, source, wavelength, dl)
    # The model predicts in its own (float32) dtype; fields leave as complex128.
    channels = predict(model, inputs).astype(np.float64, copy=False)
    return channels_to_complex(channels) * float(field_scale) * amplitude


class NeuralEngine(SolverEngine):
    """A trained field-prediction model as a drop-in solver engine.

    Registers the AI surrogate as just another fidelity tier: anywhere a
    :class:`~repro.fdfd.engine.SolverEngine` is accepted
    (``Simulation(engine=...)``, ``FdfdSolver``, ``NumericalFieldBackend``),
    ``NeuralEngine(model, field_scale)`` — or the registry name ``"neural"`` —
    swaps every linear solve for a network prediction.  Because the engine
    receives the raw right-hand side ``b`` of ``A x = b`` and the model was
    trained on ``A e = i omega J``, the source handed to the network is
    ``J = b / (i omega)``; linearity makes the rescaling exact.
    """

    name = "neural"

    def __init__(self, model: Module, field_scale: float = 1.0):
        if model is None:
            raise ValueError("NeuralEngine requires a trained model (model=...)")
        self.model = model
        self.field_scale = float(field_scale)

    def solve_batch(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        fingerprint: str | None = None,
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        # x0 (a Krylov warm start) is meaningless for a one-shot network
        # prediction; accepted so callers can thread guesses engine-agnostically.
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        wavelength = omega_to_wavelength(omega)
        solutions = np.empty_like(rhs)
        for index, b in enumerate(rhs):
            source = b / (1j * omega)
            solutions[index] = predict_ez(
                self.model, self.field_scale, eps_r, source, wavelength, grid.dl
            )
        return solutions


def _neural_engine_factory(model=None, field_scale: float | None = None, checkpoint=None):
    """Registry factory for the ``"neural"`` tier.

    ``checkpoint=`` (also reachable as the registry-name suffix
    ``"neural:<path>"``) loads a promoted surrogate checkpoint — model,
    weights and normalization statistics — so the AI tier can be selected by
    *name* everywhere, including across process boundaries where live model
    instances cannot travel.
    """
    if checkpoint is not None:
        if model is not None:
            raise ValueError("pass either model or checkpoint, not both")
        if field_scale is not None:
            raise ValueError(
                "field_scale is part of the checkpoint's stored normalization; "
                "pass either field_scale or checkpoint, not both"
            )
        from repro.surrogate.checkpoint import promote_to_engine

        return promote_to_engine(checkpoint)
    return NeuralEngine(model, 1.0 if field_scale is None else field_scale)


register_engine("neural", _neural_engine_factory)


class NeuralFieldBackend(FieldBackend):
    """Forward/adjoint field computation with a trained neural operator.

    Parameters
    ----------
    model:
        A field-prediction model from :mod:`repro.train.models`.
    field_scale:
        The ``field_scale`` of the dataset the model was trained on.
    """

    def __init__(self, model: Module, field_scale: float = 1.0):
        self.model = model
        self.field_scale = float(field_scale)

    def as_engine(self) -> NeuralEngine:
        """The same surrogate wrapped as a :class:`~repro.fdfd.engine.SolverEngine`.

        Note the backend itself keeps ``engine = None`` (direct) for the
        simulations it evaluates, so derived quantities — normalization runs,
        ``e_to_h``, residuals — stay on the exact path as in the paper's case
        study; only the forward/adjoint field maps come from the network.
        """
        return NeuralEngine(self.model, self.field_scale)

    # -- low-level prediction ---------------------------------------------------------
    def predict_field(self, sim: Simulation, source: np.ndarray) -> np.ndarray:
        """Predict the complex ``Ez`` produced by an arbitrary current source."""
        return predict_ez(
            self.model, self.field_scale, sim.eps_r, source, sim.wavelength, sim.grid.dl
        )

    # -- FieldBackend interface ----------------------------------------------------------
    def forward_fields(self, sim: Simulation, spec: TargetSpec) -> SimulationResult:
        source = sim.mode_source(spec.source_port, spec.source_mode)
        ez = self.predict_field(sim, source)
        hx, hy = sim.solver.e_to_h(ez)
        return measure_ports(
            ez,
            hx,
            hy,
            source,
            sim.eps_r,
            sim.grid,
            sim.omega,
            sim.wavelength,
            sim.ports,
            spec.source_port,
            spec.source_mode,
            spec.monitored_ports(),
            sim._normalization(spec.source_port, spec.source_mode),
        )

    def adjoint_field(
        self, sim: Simulation, spec: TargetSpec, adjoint_source: np.ndarray
    ) -> np.ndarray:
        prediction = self.predict_field(sim, adjoint_source)
        # The model solves  A e = i omega J ; the adjoint system is  A lam = g.
        return prediction / (1j * sim.omega)
