"""MAPS-InvDes: adjoint-method photonic inverse design.

The toolkit abstracts the physics while exposing the optimization steps.  All
field computation is delegated to a :class:`~repro.invdes.adjoint.FieldBackend`
sitting on the solver-engine layer of :mod:`repro.fdfd.engine`: the default
:class:`~repro.invdes.adjoint.NumericalFieldBackend` accepts any engine
(exact direct, the recycled optimization-loop tier, or the ``"neural"``
surrogate tier), so switching the solver of an entire optimization is one
constructor argument.
Forward and adjoint solves of a design are batched against a single shared
factorization — the adjoint method costs one back-substitution, not a second
factorization.

* :mod:`repro.invdes.objectives` — composable figure-of-merit terms with
  analytic adjoint sources,
* :mod:`repro.invdes.adjoint` — per-excitation adjoint gradients;
  :func:`~repro.invdes.adjoint.evaluate_specs` batches every excitation of a
  device into grouped factorize-once/solve-many calls,
* :mod:`repro.invdes.problem` — :class:`InverseDesignProblem`, chaining the
  design parametrization, differentiable transforms, fabrication models and
  the simulator into a single ``value_and_grad``,
* :mod:`repro.invdes.optimizer` — :class:`AdjointOptimizer`, an Adam-based
  ascent loop with binarization scheduling and full trajectory recording,
* :mod:`repro.invdes.initialization` — built-in and custom initial designs,
* :mod:`repro.invdes.variation` — variation-aware (robust) optimization over
  fabrication and operating corners.
"""

from repro.invdes.objectives import (
    ModeTransmissionObjective,
    FluxTransmissionObjective,
    CompositeObjective,
)
from repro.invdes.adjoint import (
    FieldBackend,
    NumericalFieldBackend,
    SpecEvaluation,
    Sweep,
    evaluate_spec,
    evaluate_specs,
)
from repro.invdes.problem import InverseDesignProblem
from repro.invdes.optimizer import AdjointOptimizer, OptimizationTrajectory
from repro.invdes.initialization import initial_density
from repro.invdes.variation import RobustInverseDesignProblem

__all__ = [
    "ModeTransmissionObjective",
    "FluxTransmissionObjective",
    "CompositeObjective",
    "FieldBackend",
    "NumericalFieldBackend",
    "SpecEvaluation",
    "Sweep",
    "evaluate_spec",
    "evaluate_specs",
    "InverseDesignProblem",
    "AdjointOptimizer",
    "OptimizationTrajectory",
    "initial_density",
    "RobustInverseDesignProblem",
]
