"""Adam-based adjoint optimization loop with trajectory recording.

The optimizer maximizes the problem's figure of merit.  It supports the
binarization (beta) schedule of fabrication-aware topology optimization and
records the full optimization trajectory — the densities and figures of merit
visited along the way — which is exactly what the optimization-trajectory
sampling strategies of MAPS-Data consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.invdes.problem import InverseDesignProblem, ProblemEvaluation
from repro.utils.executor import one_blas_thread


@dataclass
class TrajectoryPoint:
    """State of the optimization at one iteration."""

    iteration: int
    fom: float
    density: np.ndarray
    theta: np.ndarray
    transmissions: dict[str, float] = field(default_factory=dict)


@dataclass
class OptimizationTrajectory:
    """The recorded optimization run."""

    points: list[TrajectoryPoint] = field(default_factory=list)

    def append(self, point: TrajectoryPoint) -> None:
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self.points[index]

    @property
    def foms(self) -> np.ndarray:
        return np.array([p.fom for p in self.points])

    @property
    def densities(self) -> list[np.ndarray]:
        return [p.density for p in self.points]

    def best(self) -> TrajectoryPoint:
        """The iterate with the highest figure of merit."""
        if not self.points:
            raise ValueError("trajectory is empty")
        return max(self.points, key=lambda p: p.fom)


class AdjointOptimizer:
    """Gradient-ascent optimizer (Adam) for :class:`InverseDesignProblem`.

    Parameters
    ----------
    problem:
        The inverse-design problem to maximize.
    learning_rate:
        Adam step size on the latent variables.
    beta_schedule:
        Optional mapping ``iteration -> binarization beta``; when provided the
        projection sharpness is ramped during the run (e.g. ``{0: 4, 20: 8,
        40: 16}``).
    """

    def __init__(
        self,
        problem: InverseDesignProblem,
        learning_rate: float = 0.1,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        beta_schedule: dict[int, float] | None = None,
    ):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.problem = problem
        self.learning_rate = float(learning_rate)
        self.adam_betas = betas
        self.adam_eps = eps
        self.beta_schedule = dict(beta_schedule or {})

    def run(
        self,
        theta0: np.ndarray | None = None,
        iterations: int = 50,
        callback=None,
        verbose: bool = False,
    ) -> OptimizationTrajectory:
        """Run the optimization and return the recorded trajectory.

        Parameters
        ----------
        theta0:
            Initial latent variables (defaults to the "waveguide" initialization).
        iterations:
            Number of gradient steps.
        callback:
            Optional ``callback(iteration, ProblemEvaluation)`` invoked at every
            iteration (used by the dataset sampler to harvest designs).  The
            loop, callback included, runs at one BLAS thread; the caller's
            thread count is restored on return.
        verbose:
            Print the figure of merit every few iterations.
        """
        theta = (
            np.array(theta0, dtype=float, copy=True)
            if theta0 is not None
            else self.problem.initial_theta()
        )
        # Fresh run: previous-run fields are stale warm starts.  One workspace
        # is then reused across all iterations of this run, so consecutive
        # evaluations seed each other's refinement solves.
        reset_workspace = getattr(self.problem, "reset_workspace", None)
        if reset_workspace is not None:
            reset_workspace()
        first_moment = np.zeros_like(theta)
        second_moment = np.zeros_like(theta)
        beta1, beta2 = self.adam_betas
        trajectory = OptimizationTrajectory()

        # One BLAS thread, as in every executor task: on 2 CPUs the loop's
        # sparse solves ran ~2x slower at the default thread count.
        with one_blas_thread():
            for iteration in range(iterations):
                if iteration in self.beta_schedule:
                    self.problem.set_binarization_beta(self.beta_schedule[iteration])

                evaluation: ProblemEvaluation = self.problem.evaluate(theta, compute_gradient=True)
                trajectory.append(
                    TrajectoryPoint(
                        iteration=iteration,
                        fom=evaluation.fom,
                        density=evaluation.density.copy(),
                        theta=theta.copy(),
                        transmissions=dict(evaluation.transmissions),
                    )
                )
                if callback is not None:
                    callback(iteration, evaluation)
                if verbose and iteration % max(1, iterations // 10) == 0:
                    print(f"[invdes] iter {iteration:3d}  FoM = {evaluation.fom:.4f}")

                gradient = evaluation.grad_theta
                if gradient is None:
                    raise RuntimeError("problem returned no gradient")
                # Adam ascent step (maximize the figure of merit).
                first_moment = beta1 * first_moment + (1 - beta1) * gradient
                second_moment = beta2 * second_moment + (1 - beta2) * gradient**2
                m_hat = first_moment / (1 - beta1 ** (iteration + 1))
                v_hat = second_moment / (1 - beta2 ** (iteration + 1))
                theta = theta + self.learning_rate * m_hat / (np.sqrt(v_hat) + self.adam_eps)

            # Record the final state reached after the last update.
            final = self.problem.evaluate(theta, compute_gradient=False)
            trajectory.append(
                TrajectoryPoint(
                    iteration=iterations,
                    fom=final.fom,
                    density=final.density.copy(),
                    theta=theta.copy(),
                    transmissions=dict(final.transmissions),
                )
            )
        return trajectory
