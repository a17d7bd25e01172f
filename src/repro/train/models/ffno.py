"""Factorized Fourier Neural Operator baseline (Tran et al., ICLR 2023)."""

from __future__ import annotations

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


class FFNOBlock(Module):
    """F-FNO block: factorized spectral mixing inside a residual feed-forward."""

    def __init__(self, width: int, modes: tuple[int, int], rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.spectral = FactorizedSpectralConv2d(width, width, modes, rng=rng)
        self.ff1 = Conv2d(width, width, kernel_size=1, rng=rng)
        self.ff2 = Conv2d(width, width, kernel_size=1, rng=rng)
        self.norm = GroupNorm(num_groups=min(4, width), num_channels=width)
        self.activation = GELU()

    def forward(self, x: Tensor) -> Tensor:
        mixed = self.spectral(self.norm(x))
        mixed = self.ff2(self.activation(self.ff1(mixed)))
        return x + mixed


class FactorizedFNO2d(Module):
    """F-FNO with residual factorized spectral blocks (parameter-lean FNO)."""

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
        self.blocks = ModuleList([FFNOBlock(width, modes, rng=rng) for _ in range(depth)])
        self.head1 = Conv2d(width, width, kernel_size=1, rng=rng)
        self.head_activation = GELU()
        self.head2 = Conv2d(width, out_channels, kernel_size=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.as_input(x)
        hidden = self.lift(x)
        for block in self.blocks:
            hidden = block(hidden)
        return self.head2(self.head_activation(self.head1(hidden)))
