"""UNet baseline (Ronneberger et al., MICCAI 2015) adapted to field regression."""

from __future__ import annotations

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.nn import AvgPool2d, Conv2d, GELU, GroupNorm, Module, UpsampleNearest2d
from repro.utils.rng import get_rng


class ConvBlock(Module):
    """Two 3x3 convolutions with group normalization and GELU."""

    def __init__(self, in_channels: int, out_channels: int, rng=None):
        super().__init__()
        rng = get_rng(rng)
        self.conv1 = Conv2d(in_channels, out_channels, kernel_size=3, padding="same", rng=rng)
        self.norm1 = GroupNorm(min(4, out_channels), out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, kernel_size=3, padding="same", rng=rng)
        self.norm2 = GroupNorm(min(4, out_channels), out_channels)
        self.activation = GELU()

    def forward(self, x: Tensor) -> Tensor:
        x = self.activation(self.norm1(self.conv1(x)))
        return self.activation(self.norm2(self.conv2(x)))


class UNet2d(Module):
    """A compact encoder/decoder UNet with two downsampling stages.

    Inputs whose spatial size is not a multiple of 4 are zero-padded and the
    output is cropped back, so the model accepts any grid shape.
    """

    def __init__(
        self,
        in_channels: int = 4,
        out_channels: int = 2,
        base_width: int = 16,
        rng=None,
    ):
        super().__init__()
        rng = get_rng(rng)
        w = base_width
        self.enc1 = ConvBlock(in_channels, w, rng=rng)
        self.enc2 = ConvBlock(w, 2 * w, rng=rng)
        self.bottleneck = ConvBlock(2 * w, 4 * w, rng=rng)
        self.dec2 = ConvBlock(4 * w + 2 * w, 2 * w, rng=rng)
        self.dec1 = ConvBlock(2 * w + w, w, rng=rng)
        self.head = Conv2d(w, out_channels, kernel_size=1, rng=rng)
        self.pool = AvgPool2d(2)
        self.up = UpsampleNearest2d(2)

    def forward(self, x: Tensor) -> Tensor:
        x = self.as_input(x)
        height, width = x.shape[-2:]
        pad_h = (-height) % 4
        pad_w = (-width) % 4
        if pad_h or pad_w:
            x = F.pad2d(x, (0, pad_h, 0, pad_w))

        skip1 = self.enc1(x)
        skip2 = self.enc2(self.pool(skip1))
        deep = self.bottleneck(self.pool(skip2))
        up2 = self.dec2(Tensor.cat([self.up(deep), skip2], axis=1))
        up1 = self.dec1(Tensor.cat([self.up(up2), skip1], axis=1))
        out = self.head(up1)
        if pad_h or pad_w:
            out = out[..., :height, :width]
        return out
