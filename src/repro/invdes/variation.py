"""Variation-aware (robust) inverse design.

The robust problem evaluates the figure of merit over a set of fabrication and
operating corners and maximizes the weighted expectation, so the optimized
design stays inside a manufacturable, operating-condition-tolerant subspace.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.fabrication.corners import FabricationCorner, standard_corners
from repro.invdes.adjoint import NumericalFieldBackend, SpecEvaluation
from repro.invdes.problem import InverseDesignProblem, ProblemEvaluation, latent_gradient
from repro.parametrization.transforms import TransformPipeline


class _CornerSolve(NamedTuple):
    rho: Tensor  # the corner's node of the design graph
    density: np.ndarray
    fom: float
    grad_density: np.ndarray | None
    evaluations: list[SpecEvaluation]


class RobustInverseDesignProblem:
    """Expected figure of merit over fabrication/operation corners.

    A step builds one design graph: the parametrization and base pipeline
    run once, then each distinct prefix of the corners' ``pattern_transforms``
    once, keyed by transform identity (:func:`standard_corners` share one
    lithography model).  Each corner solves its density, and one backward
    pass from ``sum_k share_k <rho_k, dF_k/d rho_k>`` gives the gradient.
    The beta schedule edits the base pipeline only.

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
        """The corner's solves; its design graph is part of :meth:`evaluate`'s."""
        base = self.base_problem
        backend = base.backend
        # Corners share the base backend's *engine* (factorizations and
        # recycling references are reusable physics) but must not share its
        # warm-start workspace: every corner simulates a different
        # permittivity under the same spec keys, and mixed-corner fields make
        # worse-than-cold initial guesses.  Rebuild the backend with a
        # per-corner workspace when possible.
        if isinstance(backend, NumericalFieldBackend):
            backend = NumericalFieldBackend(engine=backend.engine)
        return InverseDesignProblem(
            device=base.device,
            parametrization=base.parametrization,
            transforms=TransformPipeline(),
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
        if self.base_problem.set_binarization_beta(beta):
            for problem in self._corner_problems:
                problem.reset_workspace()

    def reset_workspace(self) -> None:
        """Drop warm-start state of every corner problem (and the nominal one)."""
        for problem in self._corner_problems:
            problem.reset_workspace()
        self.base_problem.reset_workspace()

    def _solve_corners(self, theta: np.ndarray, compute_gradient: bool):
        """``theta`` as a tensor, and every corner's :class:`_CornerSolve` over one design graph."""
        theta_tensor = Tensor(np.asarray(theta, dtype=float), requires_grad=compute_gradient)
        designs = {(): self.base_problem._density_tensor(theta_tensor)}
        solved = []
        for corner, problem in zip(self.corners, self._corner_problems):
            key, rho = (), designs[()]
            for transform in corner.pattern_transforms:
                key += (id(transform),)
                if key not in designs:
                    designs[key] = transform(rho)
                rho = designs[key]
            density = np.clip(rho.data, 0.0, 1.0)
            solves = problem.solve_density(density, compute_gradient)
            solved.append(_CornerSolve(rho, density, *solves))
        return theta_tensor, solved

    def corner_foms(self, theta: np.ndarray) -> dict[str, float]:
        """Figure of merit of every corner (no gradients)."""
        _, solved = self._solve_corners(theta, compute_gradient=False)
        return {corner.name: s.fom for corner, s in zip(self.corners, solved)}

    def evaluate(self, theta: np.ndarray, compute_gradient: bool = True) -> ProblemEvaluation:
        """Weighted-average evaluation across all corners."""
        theta_tensor, solved = self._solve_corners(theta, compute_gradient)
        total_weight = sum(c.weight for c in self.corners)
        shares = [corner.weight / total_weight for corner in self.corners]
        grad = None
        if compute_gradient:
            sum(
                (s.rho * (share * s.grad_density)).sum() for share, s in zip(shares, solved)
            ).backward()
            grad = latent_gradient(theta_tensor)
        densities = {corner.name: s.density for corner, s in zip(self.corners, solved)}
        return ProblemEvaluation(
            fom=float(sum(share * s.fom for share, s in zip(shares, solved))),
            grad_theta=grad,
            density=densities.get("nominal", solved[0].density),
            transmissions={
                f"{corner.name}:{key}": value
                for corner, problem, s in zip(self.corners, self._corner_problems, solved)
                for key, value in problem.transmission_labels(s.evaluations).items()
            },
            spec_evaluations=[e for s in solved for e in s.evaluations],
        )

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        evaluation = self.evaluate(theta, compute_gradient=True)
        return evaluation.fom, evaluation.grad_theta

    def figure_of_merit(self, theta: np.ndarray) -> float:
        return self.evaluate(theta, compute_gradient=False).fom
