"""Standard layers: linear, convolution, normalization, activations, resampling."""

from __future__ import annotations

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import get_rng


class Linear(Module):
    """Affine map ``y = x @ W^T + b`` applied to the last dimension."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform((out_features, in_features), fan_in=in_features, rng=rng)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-D convolution over ``(B, C, H, W)`` tensors."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int | str = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        rng = get_rng(rng)
        if padding == "same":
            if stride != 1:
                raise ValueError("padding='same' requires stride=1")
            if kernel_size % 2 == 0:
                raise ValueError(f"padding='same' requires an odd kernel_size, got {kernel_size}")
            padding = kernel_size // 2
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = int(padding)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in=fan_in, rng=rng
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class GroupNorm(Module):
    """Group normalization (batch-size independent, well suited to tiny batches)."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5):
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(f"{num_channels} channels not divisible by {num_groups} groups")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels))
        self.bias = Parameter(np.zeros(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        groups = self.num_groups
        grouped = x.reshape(batch, groups, channels // groups, height, width)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        centred = grouped - mean
        var = (centred * centred).mean(axis=(2, 3, 4), keepdims=True)
        normed = centred / (var + self.eps).sqrt()
        normed = normed.reshape(batch, channels, height, width)
        scale = self.weight.reshape(1, channels, 1, 1)
        shift = self.bias.reshape(1, channels, 1, 1)
        return normed * scale + shift


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        var = (centred * centred).mean(axis=-1, keepdims=True)
        normed = centred / (var + self.eps).sqrt()
        return normed * self.weight + self.bias


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class AvgPool2d(Module):
    """Average pooling by an integer factor (kernel == stride)."""

    def __init__(self, kernel: int = 2):
        super().__init__()
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel)


class UpsampleNearest2d(Module):
    """Nearest-neighbour upsampling by an integer factor."""

    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest(x, self.scale)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.0, rng=None):
        super().__init__()
        self.p = p
        self._rng = get_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)
