"""Differentiable lithography model.

The paper integrates a GPU inverse-lithography model [Yang & Ren, ISPD'25]
into the optimization loop.  This reproduction uses the standard compact
model of the topology-optimization literature: the mask pattern is convolved
with a Gaussian aerial-image kernel whose width grows with defocus, and the
resist response is a smoothed threshold whose level shifts with dose.  The
model is differentiable end to end, so it can sit between the design
parametrization and the simulator exactly like the paper's model does.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.parametrization.transforms import Transform, fixed_kernel_filter


def _gaussian_kernel(sigma_cells: float) -> np.ndarray:
    """Normalized 2-D Gaussian kernel with standard deviation in cells."""
    radius = max(int(np.ceil(3.0 * sigma_cells)), 1)
    coords = np.arange(-radius, radius + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    kernel = np.exp(-(xx**2 + yy**2) / (2.0 * sigma_cells**2))
    return kernel / kernel.sum()


class LithographyModel(Transform):
    """Aerial-image + resist model: Gaussian blur followed by a dose threshold.

    Parameters
    ----------
    blur_sigma_cells:
        Nominal aerial-image blur (optical resolution) in grid cells.
    defocus:
        Additional defocus in cells; added in quadrature to the nominal blur.
    dose:
        Relative exposure dose.  Dose > 1 lowers the printing threshold
        (features widen); dose < 1 raises it (features shrink).
    sharpness:
        Resist contrast: slope of the smoothed threshold.
    """

    def __init__(
        self,
        blur_sigma_cells: float = 1.5,
        defocus: float = 0.0,
        dose: float = 1.0,
        sharpness: float = 10.0,
    ):
        if blur_sigma_cells <= 0:
            raise ValueError(f"blur sigma must be positive, got {blur_sigma_cells}")
        if dose <= 0:
            raise ValueError(f"dose must be positive, got {dose}")
        if sharpness <= 0:
            raise ValueError(f"sharpness must be positive, got {sharpness}")
        self.blur_sigma_cells = float(blur_sigma_cells)
        self.defocus = float(defocus)
        self.dose = float(dose)
        self.sharpness = float(sharpness)
        sigma = float(np.sqrt(blur_sigma_cells**2 + defocus**2))
        self._kernel = _gaussian_kernel(sigma)

    @property
    def threshold(self) -> float:
        """Printing threshold implied by the dose (nominal dose prints at 0.5)."""
        return float(np.clip(0.5 / self.dose, 0.05, 0.95))

    def apply(self, density: Tensor) -> Tensor:
        aerial = fixed_kernel_filter(density, self._kernel, 0.0)
        # Smoothed resist threshold.
        return ((aerial - self.threshold) * self.sharpness).sigmoid()

    def with_corner(self, defocus: float, dose: float) -> "LithographyModel":
        """A copy of the model at a different (defocus, dose) process corner."""
        return LithographyModel(
            blur_sigma_cells=self.blur_sigma_cells,
            defocus=defocus,
            dose=dose,
            sharpness=self.sharpness,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LithographyModel(blur={self.blur_sigma_cells}, defocus={self.defocus}, "
            f"dose={self.dose})"
        )
