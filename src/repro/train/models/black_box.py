"""Black-box surrogate: predict the transmission scalar directly from the input.

Used by the "AD-Black Box" gradient-computation baseline of Table II: the
model never sees fields, so the only way to obtain design gradients from it is
auto-differentiation through the network with respect to the permittivity
input channel.
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn import Conv2d, GELU, GroupNorm, Linear, Module, Sigmoid
from repro.utils.rng import get_rng


class BlackBoxRegressor(Module):
    """Small CNN encoder with global pooling and an MLP head.

    Output is squashed to ``[0, 1]`` (a power transmission / figure of merit).
    """

    def __init__(self, in_channels: int = 4, width: int = 16, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.conv1 = Conv2d(in_channels, width, kernel_size=3, padding="same", rng=rng)
        self.norm1 = GroupNorm(min(4, width), width)
        self.conv2 = Conv2d(width, 2 * width, kernel_size=3, stride=2, padding=1, rng=rng)
        self.norm2 = GroupNorm(min(4, 2 * width), 2 * width)
        self.conv3 = Conv2d(2 * width, 2 * width, kernel_size=3, stride=2, padding=1, rng=rng)
        self.norm3 = GroupNorm(min(4, 2 * width), 2 * width)
        self.fc1 = Linear(2 * width, 2 * width, rng=rng)
        self.fc2 = Linear(2 * width, 1, rng=rng)
        self.activation = GELU()
        self.squash = Sigmoid()

    def forward(self, x: Tensor) -> Tensor:
        x = self.as_input(x)
        hidden = self.activation(self.norm1(self.conv1(x)))
        hidden = self.activation(self.norm2(self.conv2(hidden)))
        hidden = self.activation(self.norm3(self.conv3(hidden)))
        pooled = hidden.mean(axis=(2, 3))
        hidden = self.activation(self.fc1(pooled))
        return self.squash(self.fc2(hidden)).reshape(-1)
