"""NeurOLight-style physics-aware neural operator (Gu et al., NeurIPS 2022).

The distinguishing ingredients reproduced here:

* a *wave prior* encoding — extra input channels built from the local optical
  path length ``k0 * dl * sqrt(eps)`` accumulated along each axis, which gives
  the model explicit knowledge of the phase a wave accumulates per cell (the
  paper's physics-agnostic conditioning on wavelength and grid step);
* a convolutional stem that jointly encodes permittivity and source before the
  operator layers;
* factorized (cross-shaped) spectral convolution blocks with residual
  feed-forward paths, which is the NeurOLight backbone structure.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn import (
    Conv2d,
    FactorizedSpectralConv2d,
    GELU,
    GroupNorm,
    Module,
    ModuleList,
)
from repro.utils.rng import get_rng

# Channel layout of the standardized input (see repro.data.labels.standardize_input).
_EPS_CHANNEL = 0
_RESOLUTION_CHANNEL = 3
_EPS_MAX = 12.25


def wave_prior_channels(inputs: np.ndarray) -> np.ndarray:
    """Build the wave-prior channels from a standardized input batch.

    For each sample the local phase-per-cell is ``phi = 2 pi (dl / lambda) *
    sqrt(eps_r)``; the prior channels are the sine and cosine of the cumulative
    phase along x and along y (4 channels total).
    """
    inputs = np.asarray(inputs)
    eps = inputs[:, _EPS_CHANNEL] * _EPS_MAX
    resolution = inputs[:, _RESOLUTION_CHANNEL]
    phase_per_cell = 2.0 * np.pi * resolution * np.sqrt(np.clip(eps, 1.0, None))
    phase_x = np.cumsum(phase_per_cell, axis=-2)
    phase_y = np.cumsum(phase_per_cell, axis=-1)
    return np.stack(
        [np.sin(phase_x), np.cos(phase_x), np.sin(phase_y), np.cos(phase_y)], axis=1
    )


class NeurOLightBlock(Module):
    """Factorized spectral mixing + feed-forward with a residual connection."""

    def __init__(self, width: int, modes: tuple[int, int], rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.norm = GroupNorm(min(4, width), width)
        self.spectral = FactorizedSpectralConv2d(width, width, modes, rng=rng)
        self.pointwise = Conv2d(width, width, kernel_size=1, rng=rng)
        self.ff = Conv2d(width, width, kernel_size=1, rng=rng)
        self.activation = GELU()

    def forward(self, x: Tensor) -> Tensor:
        mixed = self.spectral(self.norm(x)) + self.pointwise(x)
        return x + self.ff(self.activation(mixed))


class NeurOLight2d(Module):
    """Physics-aware neural operator for parametric photonic simulation."""

    def __init__(
        self,
        in_channels: int = 4,
        out_channels: int = 2,
        width: int = 24,
        modes: tuple[int, int] = (8, 8),
        depth: int = 4,
        rng=None,
    ):
        super().__init__()
        rng = get_rng(rng)
        # 4 wave-prior channels are appended to the standardized input.
        self.stem = Conv2d(in_channels + 4, width, kernel_size=3, padding="same", rng=rng)
        self.stem_norm = GroupNorm(min(4, width), width)
        self.stem_activation = GELU()
        self.blocks = ModuleList([NeurOLightBlock(width, modes, rng=rng) for _ in range(depth)])
        self.head1 = Conv2d(width, width, kernel_size=1, rng=rng)
        self.head_activation = GELU()
        self.head2 = Conv2d(width, out_channels, kernel_size=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.as_input(x)
        # The wave prior is built from, and joins, the input in its dtype.
        augmented = Tensor.cat([x, wave_prior_channels(x.data)], axis=1)
        hidden = self.stem_activation(self.stem_norm(self.stem(augmented)))
        for block in self.blocks:
            hidden = block(hidden)
        return self.head2(self.head_activation(self.head1(hidden)))
