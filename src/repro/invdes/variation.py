"""Variation-aware (robust) inverse design.

The robust problem evaluates the figure of merit over a set of fabrication and
operating corners and maximizes the weighted expectation, so the optimized
design stays inside a manufacturable, operating-condition-tolerant subspace.
"""

from __future__ import annotations

import numpy as np

from repro.fabrication.corners import FabricationCorner, standard_corners
from repro.invdes.problem import InverseDesignProblem, ProblemEvaluation
from repro.parametrization.transforms import TransformPipeline


class RobustInverseDesignProblem:
    """Expected figure of merit over fabrication/operation corners.

    Parameters
    ----------
    base_problem:
        The nominal :class:`InverseDesignProblem` (its parametrization and
        transform pipeline are shared by all corners).
    corners:
        Corner list; defaults to :func:`repro.fabrication.corners.standard_corners`.
    """

    def __init__(
        self,
        base_problem: InverseDesignProblem,
        corners: list[FabricationCorner] | None = None,
    ):
        self.base_problem = base_problem
        self.corners = list(corners) if corners is not None else standard_corners()
        if not self.corners:
            raise ValueError("at least one corner is required")
        self._corner_problems = [self._make_corner_problem(c) for c in self.corners]

    def _make_corner_problem(self, corner: FabricationCorner) -> InverseDesignProblem:
        base = self.base_problem
        transforms = TransformPipeline(
            list(base.transforms) + list(corner.pattern_transforms)
        )
        backend = base.backend
        # Corners share the base backend's *engine* (factorizations and
        # recycling references are reusable physics) but must not share its
        # warm-start workspace: every corner simulates a different
        # permittivity under the same spec keys, and mixed-corner fields make
        # worse-than-cold initial guesses.  Rebuild the backend with a
        # per-corner workspace when possible.
        from repro.invdes.adjoint import NumericalFieldBackend

        if isinstance(backend, NumericalFieldBackend):
            backend = NumericalFieldBackend(engine=backend.engine)
        return InverseDesignProblem(
            device=base.device,
            parametrization=base.parametrization,
            transforms=transforms,
            backend=backend,
            eps_postprocess=corner.temperature_drift.apply_eps
            if corner.temperature_drift.delta_kelvin
            else None,
            wavelength_shift=corner.wavelength_drift.delta_um,
            nonlinearity=base.sweep.nonlinearity,
        )

    # -- API mirroring InverseDesignProblem ------------------------------------------
    @property
    def device(self):
        return self.base_problem.device

    def initial_theta(self, kind: str = "waveguide", rng=None) -> np.ndarray:
        return self.base_problem.initial_theta(kind=kind, rng=rng)

    def set_binarization_beta(self, beta: float) -> None:
        for problem in self._corner_problems:
            problem.set_binarization_beta(beta)
        self.base_problem.set_binarization_beta(beta)

    def reset_workspace(self) -> None:
        """Drop warm-start state of every corner problem (and the nominal one)."""
        for problem in self._corner_problems:
            problem.reset_workspace()
        self.base_problem.reset_workspace()

    def corner_foms(self, theta: np.ndarray) -> dict[str, float]:
        """Figure of merit of every corner (no gradients)."""
        return {
            corner.name: problem.figure_of_merit(theta)
            for corner, problem in zip(self.corners, self._corner_problems)
        }

    def evaluate(self, theta: np.ndarray, compute_gradient: bool = True) -> ProblemEvaluation:
        """Weighted-average evaluation across all corners."""
        total_weight = sum(c.weight for c in self.corners)
        fom = 0.0
        grad = None
        transmissions: dict[str, float] = {}
        spec_evaluations = []
        density = None
        for corner, problem in zip(self.corners, self._corner_problems):
            evaluation = problem.evaluate(theta, compute_gradient=compute_gradient)
            share = corner.weight / total_weight
            fom += share * evaluation.fom
            if compute_gradient:
                contribution = share * evaluation.grad_theta
                grad = contribution if grad is None else grad + contribution
            for key, value in evaluation.transmissions.items():
                transmissions[f"{corner.name}:{key}"] = value
            spec_evaluations.extend(evaluation.spec_evaluations)
            if corner.name == "nominal" or density is None:
                density = evaluation.density
        return ProblemEvaluation(
            fom=float(fom),
            grad_theta=grad,
            density=density,
            transmissions=transmissions,
            spec_evaluations=spec_evaluations,
        )

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        evaluation = self.evaluate(theta, compute_gradient=True)
        return evaluation.fom, evaluation.grad_theta

    def figure_of_merit(self, theta: np.ndarray) -> float:
        return self.evaluate(theta, compute_gradient=False).fom
