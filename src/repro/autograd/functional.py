"""Fused differentiable primitives: convolution, pooling, padding and the
Fourier-domain operators used by the neural-operator surrogates.

Each function takes and returns :class:`repro.autograd.Tensor` and registers a
hand-written backward rule.  The Fourier operators never form a full spectrum:
only the ``2m`` retained frequencies per axis carry weights, so each transform
is a truncated DFT, a small matmul against matrices cached per
``(length, modes, dtype)``.  The backward rules follow from Wirtinger calculus
for linear maps (see the derivation in the docstring of
:func:`spectral_conv2d`) and reuse the same two transforms, because each is
the other's adjoint.  Every operator computes in its input's dtype: float32
input runs float32/complex64 arithmetic end to end.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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
        Integer stride (``>= 1``) and symmetric zero padding (``>= 0``).

    The patches are laid out channel-major, as columns of shape
    ``(B, C_in·kH·kW, Ho·Wo)``, so the forward pass is the kernel matrix
    ``(C_out, C_in·kH·kW)`` times the columns, broadcast over the batch, and
    its result already has the ``(B, C_out, Ho, Wo)`` layout.  For a 1×1,
    stride-1, unpadded kernel the columns are a view of ``x`` and the input
    gradient is a reshape of ``kernelᵀ @ grad``: no copies on either pass.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (B, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"weight must be (C_out, C_in, kH, kW), got {weight.shape}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    batch, c_in, height, width = x.shape
    c_out, c_in_w, k_h, k_w = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")
    h_out = (height + 2 * padding - k_h) // stride + 1
    w_out = (width + 2 * padding - k_w) // stride + 1
    if h_out <= 0 or w_out <= 0:
        raise ValueError(
            f"output size would be non-positive for input {x.shape} with kernel "
            f"{(k_h, k_w)}, stride {stride}, padding {padding}"
        )

    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Channel-major im2col: a (B, C, kh, kw, Ho, Wo) view of the padded input,
    # flattened to (B, C*kh*kw, Ho*Wo).  The reshape copies unless the view is
    # already contiguous, as it is for a 1x1 stride-1 kernel.
    s_b, s_c, s_h, s_w = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(batch, c_in, k_h, k_w, h_out, w_out),
        strides=(s_b, s_c, s_h, s_w, s_h * stride, s_w * stride),
        writeable=False,
    )
    columns = patches.reshape(batch, c_in * k_h * k_w, h_out * w_out)
    kernel_matrix = weight.data.reshape(c_out, c_in * k_h * k_w)
    out = (kernel_matrix @ columns).reshape(batch, c_out, h_out, w_out)
    if bias is not None:
        out += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, accumulate):
        # Only what a parent needs: no weight gradient for a constant weight,
        # no input gradient (nor its scatter loop) for a data input.
        grad = np.asarray(grad).reshape(batch, c_out, h_out * w_out)
        if weight.requires_grad:
            # One GEMM per sample over Ho*Wo, summed over the batch; BLAS
            # reads the transposed columns without a copy.
            grad_w = np.matmul(grad, columns.transpose(0, 2, 1)).sum(axis=0)
            accumulate(weight, grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            accumulate(bias, grad.sum(axis=(0, 2)))
        if not x.requires_grad:
            return
        grad_columns = kernel_matrix.T @ grad
        if k_h == k_w == stride == 1:
            # Each column is one input pixel: no patches overlap.
            grad_xp = grad_columns.reshape(xp.shape)
        else:
            grad_patches = grad_columns.reshape(batch, c_in, k_h, k_w, h_out, w_out)
            grad_xp = np.zeros_like(xp)
            # Scatter-add the patch gradients back onto the padded input.
            for u in range(k_h):
                for v in range(k_w):
                    grad_xp[
                        :, :, u : u + stride * h_out : stride, v : v + stride * w_out : stride
                    ] += grad_patches[:, :, u, v]
        if padding:
            grad_xp = grad_xp[:, :, padding:-padding, padding:-padding]
        accumulate(x, grad_xp)

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


class _TruncatedDFT(NamedTuple):
    """Read-only DFT matrices of length ``n`` restricted to ``2m`` corner modes.

    With ``F`` the ``(2m, n)`` rows ``F[k, j] = exp(-2πi k j / n)`` for the
    retained frequencies ``k``:

    * ``analysis`` is ``(n, 4m)`` real, the columns of ``[cos | -sin]``
      interleaved per mode, so ``(x @ analysis).view(complex)`` is ``F x`` for
      real ``x`` in one real matmul;
    * ``synthesis`` is ``(4m, n)`` real, ``analysis.T / n``, so
      ``u.view(float) @ synthesis`` is ``Re(F^H u) / n``: the real part of the
      inverse DFT of a spectrum that is zero outside the retained modes;
    * ``rows`` is ``F`` and ``inverse`` is ``F^H / n``, the complex
      transforms along the second axis of a 2-D transform.
    """

    analysis: np.ndarray
    synthesis: np.ndarray
    rows: np.ndarray
    inverse: np.ndarray


@functools.lru_cache(maxsize=None)
def _truncated_dft(size: int, modes: int, dtype=np.float64) -> _TruncatedDFT:
    """The matrices in real ``dtype``, complex ones in the matching complex dtype."""
    dtype = np.dtype(dtype)
    if dtype != np.float64:
        # Rounded once from the float64 matrices.
        complex_dtype = np.result_type(dtype, np.complex64)
        matrices = _TruncatedDFT(
            *(
                m.astype(complex_dtype if m.dtype.kind == "c" else dtype)
                for m in _truncated_dft(size, modes)
            )
        )
    else:
        freqs = _corner_indices(size, modes)
        # Reduce k*j modulo n in integers so the phase stays accurate for large n.
        phase = (2.0 * np.pi / size) * (np.outer(freqs, np.arange(size)) % size)
        rows = np.exp(-1j * phase)
        analysis = np.ascontiguousarray(rows.T).view(np.float64)
        matrices = _TruncatedDFT(
            analysis=analysis,
            synthesis=np.ascontiguousarray(analysis.T) / size,
            rows=rows,
            inverse=np.ascontiguousarray(rows.conj().T) / size,
        )
    for matrix in matrices:
        matrix.flags.writeable = False
    return matrices


def _analyze(x: np.ndarray, dft: _TruncatedDFT) -> np.ndarray:
    """Retained DFT modes of real ``x`` along its last axis, complex ``(..., 2m)``."""
    return (x @ dft.analysis).view(dft.rows.dtype)


def _synthesize(u: np.ndarray, dft: _TruncatedDFT) -> np.ndarray:
    """``Re(IDFT(u))`` along the last axis for modes ``u`` of shape ``(..., 2m)``."""
    return np.ascontiguousarray(u).view(dft.synthesis.dtype) @ dft.synthesis


def _modes_first(z: np.ndarray) -> np.ndarray:
    """``(B, C, L, K)`` modes -> contiguous ``(K, B*L, C)``: one matrix per mode."""
    batch, channels, length, count = z.shape
    return np.ascontiguousarray(z.transpose(3, 0, 2, 1)).reshape(count, batch * length, channels)


def _modes_last(z: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`_modes_first`: ``(K, B*L, C)`` -> ``(B, C, L, K)``."""
    count, rows, channels = z.shape
    return z.reshape(count, batch, rows // batch, channels).transpose(1, 3, 2, 0)


def _spectral_mix(
    x: Tensor, w_real: Tensor, w_imag: Tensor, analyze, synthesize, size: int
) -> Tensor:
    """``y = synthesize(analyze(x) · W)`` with per-mode complex channel mixing.

    ``analyze`` maps a real ``(B, C, H, W)`` array to its ``K`` retained modes
    as ``(B, C, L, K)``; ``synthesize`` maps such modes back to the real part
    of the normalized inverse transform.  ``size`` is the number of points
    transformed: ``analyze`` and ``size * synthesize`` are adjoint, so the
    backward pass reuses both (see :func:`spectral_conv2d`).  The weights
    ``(C_in, C_out, *modes)`` hold ``K`` modes per channel pair; they are
    mixed in the complex dtype of ``x``, and their gradients accumulate in
    their own dtype.
    """
    batch = x.shape[0]
    c_in, c_out = w_real.shape[:2]
    weight = (w_real.data + 1j * w_imag.data).astype(
        np.result_type(x.dtype, np.complex64), copy=False
    )
    weight = weight.reshape(c_in, c_out, -1)
    weight = np.ascontiguousarray(weight.transpose(2, 0, 1))  # (K, C_in, C_out)
    x_modes = _modes_first(analyze(x.data))  # (K, B*L, C_in)
    out = synthesize(_modes_last(x_modes @ weight, batch))

    def backward(grad, accumulate):
        g_modes = _modes_first(analyze(np.asarray(grad)))  # size * G_P
        grad_weight = (x_modes.conj().transpose(0, 2, 1) @ g_modes) / size
        g_x_modes = g_modes @ weight.conj().transpose(0, 2, 1)  # size * G_X
        grad_x = synthesize(_modes_last(g_x_modes, batch))
        accumulate(x, grad_x)
        grad_weight = grad_weight.transpose(1, 2, 0).reshape(w_real.shape)
        accumulate(w_real, np.real(grad_weight))
        accumulate(w_imag, np.imag(grad_weight))

    return x._make_child(out, (x, w_real, w_imag), backward)


def spectral_conv2d(x: Tensor, w_real: Tensor, w_imag: Tensor, modes: tuple[int, int]) -> Tensor:
    """FNO-style spectral convolution over the last two dimensions.

    ``y = Re( IFFT2( W ⊙ FFT2(x) ) )`` where the complex weights ``W`` act only
    on the lowest ``modes = (m1, m2)`` positive/negative frequencies and mix
    input channels into output channels.

    Only the retained modes are ever formed.  With ``F_H`` (``2*m1 x H``) and
    ``F_W`` (``2*m2 x W``) the truncated DFT matrices of the two axes (see
    :class:`_TruncatedDFT`), the transform pair is::

        A(x) = F_H · x · F_W^T                     # the retained block of FFT2(x)
        S(U) = Re( F_H^H · U · conj(F_W) ) / (H*W)  # Re(IFFT2(U)) for U zero elsewhere

    and ``y = S(W ⊙ A(x))``.  ``x · F_W^T`` is one real matmul against
    ``[cos | -sin]``; ``F_H`` then acts on ``2*m2`` complex columns.

    Shapes
    ------
    ``x``: ``(B, C_in, H, W)``; ``w_real``/``w_imag``: ``(C_in, C_out, 2*m1, 2*m2)``;
    output: ``(B, C_out, H, W)``.

    Backward
    --------
    ``A`` and ``H*W * S`` are adjoint, so for real input ``x`` and real
    output ``y`` Wirtinger calculus gives the cotangents::

        G_P = A(dL/dy) / (H*W)                  # cotangent of the product
        dL/dW = conj(X) ⊙ G_P   (summed over batch)
        G_X  = conj(W) ⊙ G_P
        dL/dx = H*W * S(G_X)
    """
    if x.ndim != 4:
        raise ValueError(f"spectral_conv2d expects (B, C, H, W), got {x.shape}")
    m1, m2 = modes
    _, c_in, height, width = x.shape
    c_in_w, c_out = w_real.shape[0], w_real.shape[1]
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if w_real.shape != (c_in, c_out, 2 * m1, 2 * m2):
        raise ValueError(
            f"weight shape {w_real.shape} does not match (C_in, C_out, 2*m1, 2*m2)="
            f"{(c_in, c_out, 2 * m1, 2 * m2)}"
        )
    dft_h = _truncated_dft(height, m1, x.dtype)
    dft_w = _truncated_dft(width, m2, x.dtype)

    def analyze(a):
        block = dft_h.rows @ _analyze(a, dft_w)  # (B, C, 2m1, 2m2)
        return block.reshape(a.shape[0], a.shape[1], 1, -1)

    def synthesize(u):
        block = u.reshape(u.shape[0], u.shape[1], 2 * m1, 2 * m2)
        return _synthesize(dft_h.inverse @ block, dft_w)

    return _spectral_mix(x, w_real, w_imag, analyze, synthesize, height * width)


def spectral_conv1d(x: Tensor, w_real: Tensor, w_imag: Tensor, modes: int, axis: int) -> Tensor:
    """Factorized spectral convolution along a single spatial axis.

    Used by the Factorized-FNO and NeurOLight blocks: a 1-D DFT is taken along
    ``axis`` (-1 or -2 of a ``(B, C, H, W)`` tensor), channel mixing is applied
    to the lowest ``modes`` positive/negative frequencies and the inverse DFT
    brings the signal back.  Weights have shape ``(C_in, C_out, 2*modes)``.

    Both transforms are one real matmul against the truncated DFT matrices of
    :class:`_TruncatedDFT`; ``axis=-2`` is handled on a transposed view.  The
    backward rule is that of :func:`spectral_conv2d` with a single axis.
    """
    if x.ndim != 4:
        raise ValueError(f"spectral_conv1d expects (B, C, H, W), got {x.shape}")
    if axis not in (-1, -2, 2, 3):
        raise ValueError(f"axis must address a spatial dimension, got {axis}")
    axis = axis if axis < 0 else axis - 4
    size = x.shape[axis]
    c_in, c_in_w, c_out = x.shape[1], w_real.shape[0], w_real.shape[1]
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in}, weight {c_in_w}")
    if w_real.shape != (c_in, c_out, 2 * modes):
        raise ValueError(
            f"weight shape {w_real.shape} does not match (C_in, C_out, 2*modes)="
            f"{(c_in, c_out, 2 * modes)}"
        )
    dft = _truncated_dft(size, modes, x.dtype)

    def last(a):  # the transformed axis last, as a view
        return a if axis == -1 else a.swapaxes(-1, -2)

    def analyze(a):
        return _analyze(last(a), dft)

    def synthesize(u):
        return last(_synthesize(u, dft))

    return _spectral_mix(x, w_real, w_imag, analyze, synthesize, size)


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
