"""Differentiable transforms applied to design density patterns.

Each transform maps a density tensor of shape ``(H, W)`` with values in
``[0, 1]`` to another density tensor of the same shape.  Transforms are
composable through :class:`TransformPipeline` and are differentiated by the
autograd engine, so the adjoint gradient with respect to the raw design
variables follows automatically.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.autograd.tensor import Tensor


class Transform:
    """Base class: a differentiable map from density to density."""

    def __call__(self, density: Tensor) -> Tensor:
        if not isinstance(density, Tensor):
            density = Tensor(density)
        if density.ndim != 2:
            raise ValueError(f"transforms expect a 2-D density, got shape {density.shape}")
        return self.apply(density)

    def apply(self, density: Tensor) -> Tensor:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _conic_kernel(radius_cells: float) -> np.ndarray:
    """Normalized conic (linear-falloff) filter kernel of the given radius."""
    size = int(np.ceil(radius_cells))
    coords = np.arange(-size, size + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    distance = np.sqrt(xx**2 + yy**2)
    kernel = np.clip(1.0 - distance / max(radius_cells, 1e-9), 0.0, None)
    total = kernel.sum()
    if total <= 0:
        raise ValueError(f"blur radius {radius_cells} produces an empty kernel")
    return kernel / total


def fixed_kernel_filter(density: Tensor, kernel: np.ndarray, cval: float) -> Tensor:
    """``density`` correlated with a constant odd-sized ``kernel``, padded with ``cval``.

    The backward pass is the adjoint: the convolution with ``kernel`` over a zero border.
    """
    out = ndimage.correlate(density.data, kernel, mode="constant", cval=cval)

    def backward(grad, accumulate):
        accumulate(density, ndimage.convolve(np.asarray(grad), kernel, mode="constant", cval=0.0))

    return density._make_child(out, (density,), backward)


class BlurTransform(Transform):
    """Sub-pixel smoothing / density filtering with a conic kernel.

    This is the standard topology-optimization density filter: it removes
    features smaller than roughly the blur radius and models the finite
    resolution of the lithography system.
    """

    def __init__(self, radius_cells: float = 2.0):
        if radius_cells <= 0:
            raise ValueError(f"blur radius must be positive, got {radius_cells}")
        self.radius_cells = float(radius_cells)
        self._kernel = _conic_kernel(self.radius_cells)

    def apply(self, density: Tensor) -> Tensor:
        # Constant padding with the mean density 0.5 keeps the filter
        # unbiased at the design-region boundary.
        return fixed_kernel_filter(density, self._kernel, 0.5)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BlurTransform(radius_cells={self.radius_cells})"


class BinarizationProjection(Transform):
    """Smoothed Heaviside projection pushing densities towards 0/1.

    Uses the standard tanh projection with sharpness ``beta`` and threshold
    ``eta``; ``beta`` is typically ramped during optimization.
    """

    def __init__(self, beta: float = 8.0, eta: float = 0.5):
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if not 0.0 < eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {eta}")
        self.beta = float(beta)
        self.eta = float(eta)

    def apply(self, density: Tensor) -> Tensor:
        beta, eta = self.beta, self.eta
        eta_t = Tensor(np.full(density.shape, eta))
        num = Tensor(np.tanh(beta * eta)) + ((density - eta_t) * beta).tanh()
        den = np.tanh(beta * eta) + np.tanh(beta * (1.0 - eta))
        return num * (1.0 / den)

    def with_beta(self, beta: float) -> "BinarizationProjection":
        """Return a copy with a different sharpness (used by beta schedules)."""
        return BinarizationProjection(beta=beta, eta=self.eta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BinarizationProjection(beta={self.beta}, eta={self.eta})"


class SymmetryTransform(Transform):
    """Enforce mirror symmetry by averaging the pattern with its reflection.

    ``axis`` can be ``"x"`` (mirror across the vertical centre line), ``"y"``
    (horizontal centre line) or ``"both"``.
    """

    def __init__(self, axis: str = "y"):
        if axis not in ("x", "y", "both"):
            raise ValueError(f"axis must be 'x', 'y' or 'both', got {axis!r}")
        self.axis = axis

    @staticmethod
    def _flip(density: Tensor, axis: int) -> Tensor:
        flipped_data = np.flip(density.data, axis=axis).copy()

        def backward(grad, accumulate):
            accumulate(density, np.flip(np.asarray(grad), axis=axis).copy())

        return density._make_child(flipped_data, (density,), backward)

    def apply(self, density: Tensor) -> Tensor:
        result = density
        if self.axis in ("x", "both"):
            result = (result + self._flip(result, axis=0)) * 0.5
        if self.axis in ("y", "both"):
            result = (result + self._flip(result, axis=1)) * 0.5
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return f"SymmetryTransform(axis={self.axis!r})"


class MinimumFeatureSizeTransform(Transform):
    """Minimum-feature-size control via blur + sharp re-projection.

    The classic open/close-style approximation: features below the blur radius
    are washed out by the filter and removed by the projection, so the output
    pattern respects (approximately) the requested minimum feature size.
    """

    def __init__(self, mfs_cells: float = 3.0, beta: float = 16.0, eta: float = 0.5):
        if mfs_cells <= 0:
            raise ValueError(f"minimum feature size must be positive, got {mfs_cells}")
        self.mfs_cells = float(mfs_cells)
        self._blur = BlurTransform(radius_cells=max(mfs_cells / 2.0, 1.0))
        self._project = BinarizationProjection(beta=beta, eta=eta)

    def apply(self, density: Tensor) -> Tensor:
        return self._project(self._blur(density))

    def __repr__(self) -> str:  # pragma: no cover
        return f"MinimumFeatureSizeTransform(mfs_cells={self.mfs_cells})"


class TransformPipeline(Transform):
    """Compose transforms left to right: ``pipeline(x) = t_n(...t_2(t_1(x)))``."""

    def __init__(self, transforms: list[Transform] | None = None):
        self.transforms = list(transforms or [])

    def apply(self, density: Tensor) -> Tensor:
        result = density
        for transform in self.transforms:
            result = transform(result)
        return result

    def append(self, transform: Transform) -> "TransformPipeline":
        self.transforms.append(transform)
        return self

    def replace(self, index: int, transform: Transform) -> None:
        """Swap one stage (used by binarization beta schedules)."""
        self.transforms[index] = transform

    def __iter__(self):
        return iter(self.transforms)

    def __len__(self) -> int:
        return len(self.transforms)

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(repr(t) for t in self.transforms)
        return f"TransformPipeline([{inner}])"
