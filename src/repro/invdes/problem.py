"""The inverse-design problem: latent variables -> figure of merit + gradient.

:class:`InverseDesignProblem` chains together

1. the design parametrization (density or level-set),
2. the differentiable transform pipeline (blur, symmetry, binarization,
   lithography, ...),
3. the device permittivity assembly, and
4. the FDFD (or neural) forward/adjoint solves,

exposing a single ``value_and_grad(theta)`` for the optimizer.  Steps 1-2 are
differentiated by the autograd engine; steps 3-4 by the analytic adjoint
method; the two are glued by seeding the autograd backward pass with the
adjoint gradient with respect to the projected density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor
from repro.devices.base import Device
from repro.fdfd.engine import SolveWorkspace, make_engine, selects_recycled
from repro.invdes.adjoint import (
    FieldBackend,
    NumericalFieldBackend,
    SpecEvaluation,
    Sweep,
    evaluate_all_specs,
)
from repro.parametrization.parametrization import DensityParametrization
from repro.parametrization.transforms import (
    BinarizationProjection,
    BlurTransform,
    TransformPipeline,
)


@dataclass
class ProblemEvaluation:
    """One evaluation of the problem at a latent design point."""

    fom: float
    grad_theta: np.ndarray | None
    density: np.ndarray
    transmissions: dict[str, float] = field(default_factory=dict)
    spec_evaluations: list[SpecEvaluation] = field(default_factory=list)


class InverseDesignProblem:
    """Adjoint inverse-design problem for one benchmark device.

    Parameters
    ----------
    device:
        Benchmark device to optimize.
    parametrization:
        Latent-variable parametrization; defaults to a pixel-wise density
        parametrization of the design region.
    transforms:
        Differentiable transform pipeline applied to the density.  Defaults to
        sub-pixel blur followed by a tanh binarization projection (the standard
        fabrication-friendly chain); pass an empty pipeline to disable.
    backend:
        Field backend (numerical FDFD by default; a neural surrogate backend
        can be plugged in for AI-driven design).
    engine:
        Solver engine or engine name (``"direct"``, ``"recycled"``, ...) for
        the default numerical backend — the one-line solver swap.
        ``engine="recycled"`` is the optimization-loop tier: consecutive
        iterations refine against the previous factorization (BiCGStab
        preconditioned by it as the fallback) instead of refactorizing.
        Given by that name, it is built with the device's design region, so
        from an exterior's second solve on it factors and refines only the
        region's Schur complement against an exterior factored once (see
        :class:`~repro.fdfd.engine.RecycledEngine`).  Engine instances are
        used as given.  Ignored when an explicit ``backend`` is given.
    workspace:
        Optional :class:`~repro.fdfd.engine.SolveWorkspace`.  By default the
        problem creates one and shares it with the backend, so warm-startable
        engines seed every solve with the previous iteration's fields.  If the
        given backend already carries a workspace (e.g. corner problems built
        around a shared nominal backend), that one is adopted instead.
    eps_postprocess, wavelength_shift:
        Hooks used by the variation-aware wrapper to simulate corners.
    nonlinearity:
        Optional :class:`~repro.fdfd.nonlinear.KerrNonlinearity`: every
        forward solve converges the Kerr fixed point and gradients flow
        through it (the nonlinear-device optimization path); None keeps the
        linear solves.
    """

    def __init__(
        self,
        device: Device,
        parametrization: DensityParametrization | None = None,
        transforms: TransformPipeline | None = None,
        backend: FieldBackend | None = None,
        engine=None,
        workspace: SolveWorkspace | None = None,
        eps_postprocess=None,
        wavelength_shift: float = 0.0,
        nonlinearity=None,
    ):
        explicit_workspace = workspace is not None
        self.workspace = workspace if explicit_workspace else SolveWorkspace()
        if backend is None:
            if selects_recycled(engine):
                engine = make_engine(engine, design_region=device.geometry.design_slice)
            backend = NumericalFieldBackend(engine=engine, workspace=self.workspace)
        elif hasattr(backend, "workspace"):
            if not explicit_workspace and backend.workspace is not None:
                # The backend (shared with another problem) already threads a
                # workspace; adopt it so beta-schedule invalidation reaches it.
                self.workspace = backend.workspace
            else:
                # Attach ours — an explicitly passed workspace always wins, so
                # the caller's handle is the one the solves actually use.
                backend.workspace = self.workspace
        self.device = device
        self.parametrization = parametrization or DensityParametrization(device.design_shape)
        if transforms is None:
            transforms = TransformPipeline(
                [BlurTransform(radius_cells=1.5), BinarizationProjection(beta=8.0)]
            )
        self.transforms = transforms
        self.backend = backend
        self.eps_postprocess = eps_postprocess
        self.wavelength_shift = wavelength_shift
        self.sweep = Sweep(nonlinearity=nonlinearity)

    # -- parametrization chain ---------------------------------------------------------
    def initial_theta(self, kind: str = "waveguide", rng=None) -> np.ndarray:
        """Latent variables for one of the built-in initial densities."""
        from repro.invdes.initialization import initial_density

        density = initial_density(self.device, kind=kind, rng=rng)
        return self.parametrization.initial_theta(density)

    def density_from_theta(self, theta: np.ndarray) -> np.ndarray:
        """Projected density (after all transforms) for latent variables ``theta``."""
        tensor = self._density_tensor(Tensor(np.asarray(theta, dtype=float)))
        return np.clip(tensor.data, 0.0, 1.0)

    def _density_tensor(self, theta: Tensor) -> Tensor:
        return self.transforms(self.parametrization(theta))

    def set_binarization_beta(self, beta: float) -> None:
        """Update the sharpness of every binarization stage (beta schedule).

        A beta step moves the projected density (and hence the operator and
        its fields) discontinuously, so the warm-start workspace is
        invalidated: the stored previous-iteration fields would be poor
        initial guesses for the post-step solves.
        """
        changed = False
        for index, transform in enumerate(self.transforms):
            if isinstance(transform, BinarizationProjection):
                if transform.beta != float(beta):
                    changed = True
                self.transforms.replace(index, transform.with_beta(beta))
        if changed and self.workspace is not None:
            self.workspace.invalidate()

    def reset_workspace(self) -> None:
        """Drop warm-start state (called by the optimizer at the start of a run)."""
        if self.workspace is not None:
            self.workspace.invalidate()

    # -- evaluation ------------------------------------------------------------------------
    def evaluate(self, theta: np.ndarray, compute_gradient: bool = True) -> ProblemEvaluation:
        """Figure of merit (and gradient) at latent design ``theta``."""
        theta_tensor = Tensor(np.asarray(theta, dtype=float), requires_grad=compute_gradient)
        density_tensor = self._density_tensor(theta_tensor)
        density = np.clip(density_tensor.data, 0.0, 1.0)

        fom, grad_density, evaluations = evaluate_all_specs(
            self.device,
            density,
            backend=self.backend,
            compute_gradient=compute_gradient,
            eps_postprocess=self.eps_postprocess,
            wavelength_shift=self.wavelength_shift,
            sweep=self.sweep,
        )

        transmissions: dict[str, float] = {}
        for evaluation in evaluations:
            label = evaluation.spec.source_port
            if evaluation.spec.state:
                state = ",".join(f"{k}={v:g}" for k, v in sorted(evaluation.spec.state.items()))
                label = f"{label}[{state}]"
            if len(set(s.wavelength for s in self.device.specs)) > 1:
                label = f"{label}@{evaluation.spec.wavelength:g}um"
            if evaluation.spec.source_mode:
                label = f"{label}/m{evaluation.spec.source_mode}"
            for port, value in evaluation.transmissions.items():
                transmissions[f"{label}->{port}"] = value

        grad_theta = None
        if compute_gradient:
            density_tensor.backward(grad=grad_density)
            grad_theta = (
                theta_tensor.grad
                if theta_tensor.grad is not None
                else np.zeros_like(theta_tensor.data)
            )
        return ProblemEvaluation(
            fom=fom,
            grad_theta=grad_theta,
            density=density,
            transmissions=transmissions,
            spec_evaluations=evaluations,
        )

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Convenience wrapper returning just ``(fom, d fom / d theta)``."""
        evaluation = self.evaluate(theta, compute_gradient=True)
        return evaluation.fom, evaluation.grad_theta

    def figure_of_merit(self, theta: np.ndarray) -> float:
        """Figure of merit without the adjoint solves."""
        return self.evaluate(theta, compute_gradient=False).fom
