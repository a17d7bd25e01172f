"""Etch-bias model: over/under-etch as a shifted smoothed threshold."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.parametrization.transforms import Transform, _conic_kernel, fixed_kernel_filter


class EtchModel(Transform):
    """Isotropic etch bias.

    A positive ``bias_cells`` erodes the pattern (over-etch: solid features
    shrink by roughly that many cells); a negative value dilates it
    (under-etch).  The model blurs the pattern with a conic kernel of radius
    ``|bias| + 1`` and shifts the re-projection threshold, the standard
    differentiable erosion/dilation approximation.
    """

    def __init__(self, bias_cells: float = 0.0, sharpness: float = 10.0):
        self.bias_cells = float(bias_cells)
        if sharpness <= 0:
            raise ValueError(f"sharpness must be positive, got {sharpness}")
        self.sharpness = float(sharpness)
        radius = abs(self.bias_cells) + 1.0
        self._kernel = _conic_kernel(radius)
        self._radius = radius

    @property
    def threshold(self) -> float:
        """Threshold shift implementing the erosion/dilation."""
        if self._radius <= 0:
            return 0.5
        shift = 0.4 * self.bias_cells / self._radius
        return float(np.clip(0.5 + shift, 0.05, 0.95))

    def apply(self, density: Tensor) -> Tensor:
        if self.bias_cells == 0.0:
            return density
        blurred = fixed_kernel_filter(density, self._kernel, 0.0)
        return ((blurred - self.threshold) * self.sharpness).sigmoid()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EtchModel(bias_cells={self.bias_cells})"
