"""Fourier Neural Operator baseline (Li et al., ICLR 2021)."""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn import Conv2d, GELU, GroupNorm, Module, ModuleList, SpectralConv2d
from repro.utils.rng import get_rng


class FNOBlock(Module):
    """One FNO layer: spectral convolution + pointwise linear path + activation."""

    def __init__(self, width: int, modes: tuple[int, int], rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.spectral = SpectralConv2d(width, width, modes, rng=rng)
        self.pointwise = Conv2d(width, width, kernel_size=1, rng=rng)
        self.norm = GroupNorm(num_groups=min(4, width), num_channels=width)
        self.activation = GELU()

    def forward(self, x: Tensor) -> Tensor:
        return self.activation(self.norm(self.spectral(x) + self.pointwise(x)))


class FNO2d(Module):
    """Field-prediction FNO: lift, stacked spectral blocks, projection head.

    Parameters
    ----------
    in_channels, out_channels:
        Input/output channel counts (4 standardized input channels, 2 output
        channels for the complex ``Ez``).
    width:
        Hidden channel width.
    modes:
        Number of retained Fourier modes per spatial dimension.
    depth:
        Number of FNO blocks.
    """

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
        self.lift = Conv2d(in_channels, width, kernel_size=1, rng=rng)
        self.blocks = ModuleList([FNOBlock(width, modes, rng=rng) for _ in range(depth)])
        self.head1 = Conv2d(width, width, kernel_size=1, rng=rng)
        self.head_activation = GELU()
        self.head2 = Conv2d(width, out_channels, kernel_size=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.as_input(x)
        hidden = self.lift(x)
        for block in self.blocks:
            hidden = block(hidden)
        return self.head2(self.head_activation(self.head1(hidden)))
