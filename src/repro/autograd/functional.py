"""Fused differentiable primitives: convolution, pooling, padding and the
Fourier-domain operators used by the neural-operator surrogates.

Each function takes and returns :class:`repro.autograd.Tensor` and registers a
hand-written backward rule.  The Fourier operators use full complex FFTs on
real inputs; the backward rules follow from Wirtinger calculus for linear maps
(see the derivation in the docstring of :func:`spectral_conv2d`).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


# --------------------------------------------------------------------------- #
# padding
# --------------------------------------------------------------------------- #
def pad2d(x: Tensor, pad: tuple[int, int, int, int], value: float = 0.0) -> Tensor:
    """Pad the last two dimensions of ``x``.

    Parameters
    ----------
    x:
        Tensor of shape ``(..., H, W)``.
    pad:
        ``(top, bottom, left, right)`` padding sizes.
    value:
        Constant fill value.
    """
    top, bottom, left, right = pad
    if min(pad) < 0:
        raise ValueError(f"negative padding not supported: {pad}")
    widths = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
    data = np.pad(x.data, widths, mode="constant", constant_values=value)

    def backward(grad, accumulate):
        grad = np.asarray(grad)
        slices = [slice(None)] * (x.ndim - 2)
        slices.append(slice(top, grad.shape[-2] - bottom))
        slices.append(slice(left, grad.shape[-1] - right))
        accumulate(x, grad[tuple(slices)])

    return x._make_child(data, (x,), backward)


def crop2d(x: Tensor, shape: tuple[int, int]) -> Tensor:
    """Crop the last two dimensions of ``x`` to ``shape`` (top-left anchored)."""
    h, w = shape
    if h > x.shape[-2] or w > x.shape[-1]:
        raise ValueError(f"cannot crop {x.shape} to {shape}")
    return x[..., :h, :w]


# --------------------------------------------------------------------------- #
# convolution
# --------------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(B, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    stride, padding:
        Integer stride and symmetric zero padding.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (B, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"weight must be (C_out, C_in, kH, kW), got {weight.shape}")
    batch, c_in, height, width = x.shape
    c_out, c_in_w, k_h, k_w = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    xp = np.pad(
        x.data,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
    )
    h_out = (height + 2 * padding - k_h) // stride + 1
    w_out = (width + 2 * padding - k_w) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError(
            f"output size would be non-positive for input {x.shape} with kernel "
            f"{(k_h, k_w)}, stride {stride}, padding {padding}"
        )

    # im2col: gather all receptive-field patches into a (B*Ho*Wo, C*kh*kw)
    # matrix so both the forward and the backward pass are single BLAS matmuls.
    strides = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(batch, c_in, h_out, w_out, k_h, k_w),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    columns = np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5)).reshape(
        batch * h_out * w_out, c_in * k_h * k_w
    )
    kernel_matrix = weight.data.reshape(c_out, c_in * k_h * k_w)
    out = (columns @ kernel_matrix.T).reshape(batch, h_out, w_out, c_out)
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, accumulate):
        grad = np.asarray(grad)
        grad_matrix = grad.transpose(0, 2, 3, 1).reshape(batch * h_out * w_out, c_out)
        grad_w = (grad_matrix.T @ columns).reshape(c_out, c_in, k_h, k_w)
        grad_columns = grad_matrix @ kernel_matrix
        grad_patches = grad_columns.reshape(batch, h_out, w_out, c_in, k_h, k_w)
        grad_xp = np.zeros_like(xp)
        # Scatter-add the patch gradients back onto the padded input.
        for u in range(k_h):
            for v in range(k_w):
                grad_xp[
                    :, :, u : u + stride * h_out : stride, v : v + stride * w_out : stride
                ] += grad_patches[:, :, :, :, u, v].transpose(0, 3, 1, 2)
        if padding > 0:
            grad_x = grad_xp[:, :, padding:-padding, padding:-padding]
        else:
            grad_x = grad_xp
        accumulate(x, grad_x)
        accumulate(weight, grad_w)
        if bias is not None:
            accumulate(bias, grad.sum(axis=(0, 2, 3)))

    return x._make_child(out, parents, backward)


# --------------------------------------------------------------------------- #
# pooling and resampling
# --------------------------------------------------------------------------- #
def avg_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Average pooling with square kernel and equal stride.

    The spatial dimensions must be divisible by ``kernel`` (the models pad
    their inputs to guarantee this).
    """
    batch, channels, height, width = x.shape
    if height % kernel or width % kernel:
        raise ValueError(f"spatial size {(height, width)} not divisible by {kernel}")
    h_out, w_out = height // kernel, width // kernel
    reshaped = x.data.reshape(batch, channels, h_out, kernel, w_out, kernel)
    out = reshaped.mean(axis=(3, 5))

    def backward(grad, accumulate):
        grad = np.asarray(grad) / (kernel * kernel)
        expanded = np.repeat(np.repeat(grad, kernel, axis=-2), kernel, axis=-1)
        accumulate(x, expanded)

    return x._make_child(out, (x,), backward)


def upsample_nearest(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of the last two dimensions by ``scale``."""
    out = np.repeat(np.repeat(x.data, scale, axis=-2), scale, axis=-1)
    batch, channels, height, width = x.shape

    def backward(grad, accumulate):
        grad = np.asarray(grad)
        reshaped = grad.reshape(batch, channels, height, scale, width, scale)
        accumulate(x, reshaped.sum(axis=(3, 5)))

    return x._make_child(out, (x,), backward)


# --------------------------------------------------------------------------- #
# Fourier-domain operators
# --------------------------------------------------------------------------- #
def _corner_indices(size: int, modes: int) -> np.ndarray:
    """Indices of the lowest ``modes`` positive and negative frequencies."""
    if 2 * modes > size:
        raise ValueError(f"2*modes={2 * modes} exceeds transform size {size}")
    return np.concatenate([np.arange(modes), np.arange(size - modes, size)])


def spectral_conv2d(x: Tensor, w_real: Tensor, w_imag: Tensor, modes: tuple[int, int]) -> Tensor:
    """FNO-style spectral convolution over the last two dimensions.

    ``y = Re( IFFT2( W ⊙ FFT2(x) ) )`` where the complex weights ``W`` act only
    on the lowest ``modes = (m1, m2)`` positive/negative frequencies and mix
    input channels into output channels.

    Shapes
    ------
    ``x``: ``(B, C_in, H, W)``; ``w_real``/``w_imag``: ``(C_in, C_out, 2*m1, 2*m2)``;
    output: ``(B, C_out, H, W)``.

    Backward
    --------
    With the unnormalized FFT pair (``numpy`` default), for real input ``x``
    and real output ``y`` the cotangents are::

        G_P = FFT2(dL/dy) / (H*W)                 # cotangent of the product
        dL/dW = conj(X) ⊙ G_P   (summed over batch)
        G_X  = conj(W) ⊙ G_P
        dL/dx = H*W * Re(IFFT2(G_X))
    """
    if x.ndim != 4:
        raise ValueError(f"spectral_conv2d expects (B, C, H, W), got {x.shape}")
    m1, m2 = modes
    batch, c_in, height, width = x.shape
    c_in_w, c_out = w_real.shape[0], w_real.shape[1]
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if w_real.shape != (c_in, c_out, 2 * m1, 2 * m2):
        raise ValueError(
            f"weight shape {w_real.shape} does not match (C_in, C_out, 2*m1, 2*m2)="
            f"{(c_in, c_out, 2 * m1, 2 * m2)}"
        )
    rows = _corner_indices(height, m1)
    cols = _corner_indices(width, m2)

    x_ft = np.fft.fft2(x.data)
    x_modes = x_ft[:, :, rows[:, None], cols[None, :]]  # (B, C_in, 2m1, 2m2)
    weight = w_real.data + 1j * w_imag.data
    prod = np.einsum("bimn,iomn->bomn", x_modes, weight)
    full = np.zeros((batch, c_out, height, width), dtype=complex)
    full[:, :, rows[:, None], cols[None, :]] = prod
    out = np.real(np.fft.ifft2(full)).astype(x.data.dtype)

    def backward(grad, accumulate):
        grad = np.asarray(grad)
        g_p = np.fft.fft2(grad) / (height * width)
        g_p_modes = g_p[:, :, rows[:, None], cols[None, :]]
        grad_weight = np.einsum("bimn,bomn->iomn", np.conj(x_modes), g_p_modes)
        g_x_modes = np.einsum("bomn,iomn->bimn", g_p_modes, np.conj(weight))
        g_x_full = np.zeros((batch, c_in, height, width), dtype=complex)
        g_x_full[:, :, rows[:, None], cols[None, :]] = g_x_modes
        grad_x = (height * width) * np.real(np.fft.ifft2(g_x_full))
        accumulate(x, grad_x.astype(x.data.dtype))
        accumulate(w_real, np.real(grad_weight))
        accumulate(w_imag, np.imag(grad_weight))

    return x._make_child(out, (x, w_real, w_imag), backward)


def spectral_conv1d(x: Tensor, w_real: Tensor, w_imag: Tensor, modes: int, axis: int) -> Tensor:
    """Factorized spectral convolution along a single spatial axis.

    Used by the Factorized-FNO and NeurOLight blocks: a 1-D FFT is taken along
    ``axis`` (-1 or -2 of a ``(B, C, H, W)`` tensor), channel mixing is applied
    to the lowest ``modes`` positive/negative frequencies and the inverse FFT
    brings the signal back.  Weights have shape ``(C_in, C_out, 2*modes)``.
    """
    if x.ndim != 4:
        raise ValueError(f"spectral_conv1d expects (B, C, H, W), got {x.shape}")
    if axis not in (-1, -2, 2, 3):
        raise ValueError(f"axis must address a spatial dimension, got {axis}")
    axis = axis if axis < 0 else axis - 4
    batch, c_in, height, width = x.shape
    size = x.shape[axis]
    c_in_w, c_out = w_real.shape[0], w_real.shape[1]
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if w_real.shape != (c_in, c_out, 2 * modes):
        raise ValueError(
            f"weight shape {w_real.shape} does not match (C_in, C_out, 2*modes)="
            f"{(c_in, c_out, 2 * modes)}"
        )
    idx = _corner_indices(size, modes)

    x_ft = np.fft.fft(x.data, axis=axis)
    x_modes = np.take(x_ft, idx, axis=axis)  # modes along `axis`
    weight = w_real.data + 1j * w_imag.data

    if axis == -2:
        prod = np.einsum("bimw,iom->bomw", x_modes, weight)
        out_shape = (batch, c_out, height, width)
    else:
        prod = np.einsum("bihm,iom->bohm", x_modes, weight)
        out_shape = (batch, c_out, height, width)

    full = np.zeros(out_shape, dtype=complex)
    indexer = [slice(None)] * 4
    indexer[axis] = idx
    full[tuple(indexer)] = prod
    out = np.real(np.fft.ifft(full, axis=axis)).astype(x.data.dtype)

    def backward(grad, accumulate):
        grad = np.asarray(grad)
        g_p = np.fft.fft(grad, axis=axis) / size
        g_p_modes = np.take(g_p, idx, axis=axis)
        if axis == -2:
            grad_weight = np.einsum("bimw,bomw->iom", np.conj(x_modes), g_p_modes)
            g_x_modes = np.einsum("bomw,iom->bimw", g_p_modes, np.conj(weight))
        else:
            grad_weight = np.einsum("bihm,bohm->iom", np.conj(x_modes), g_p_modes)
            g_x_modes = np.einsum("bohm,iom->bihm", g_p_modes, np.conj(weight))
        g_x_full = np.zeros((batch, c_in, height, width), dtype=complex)
        g_x_full[tuple(indexer)] = g_x_modes
        grad_x = size * np.real(np.fft.ifft(g_x_full, axis=axis))
        accumulate(x, grad_x.astype(x.data.dtype))
        accumulate(w_real, np.real(grad_weight))
        accumulate(w_imag, np.imag(grad_weight))

    return x._make_child(out, (x, w_real, w_imag), backward)


# --------------------------------------------------------------------------- #
# misc differentiable helpers
# --------------------------------------------------------------------------- #
def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout.  A no-op when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out = x.data * mask

    def backward(grad, accumulate):
        accumulate(x, np.asarray(grad) * mask)

    return x._make_child(out, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    """Numerically stable softplus ``log(1 + exp(x))``."""
    data = np.logaddexp(0.0, x.data)
    sig = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad, accumulate):
        accumulate(x, np.asarray(grad) * sig)

    return x._make_child(data, (x,), backward)
