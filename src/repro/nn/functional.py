"""Functional building blocks for the numpy NN substrate.

This module holds the operations that are easier to express directly on numpy
arrays with handwritten backward passes than through the autograd primitives in
:mod:`repro.nn.tensor` — most importantly 2-D convolution via im2col, pooling,
and the embedding lookup used by the language models.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, _as_array


# ---------------------------------------------------------------------- #
# im2col utilities
# ---------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int,
           groups: int = 1) -> np.ndarray:
    """Unfold ``x`` of shape (N, C, H, W) into (N, out_h*out_w, C*kernel*kernel).

    Each row is one receptive field with its columns ordered (group, ki, kj,
    channel within the group); for ``groups == 1`` that is (ki, kj, c).  The
    result is C-contiguous, made by one copy out of a sliding-window view of
    the NHWC input, so channels are the contiguous axis on both sides of it.
    """
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    nhwc = np.pad(x.transpose(0, 2, 3, 1),
                  ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    windows = sliding_window_view(nhwc, (kernel, kernel), axis=(1, 2))[:, ::stride, ::stride]
    windows = windows.reshape(n, out_h, out_w, groups, c // groups, kernel, kernel)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 3, 5, 6, 4))
    return cols.reshape(n, out_h * out_w, c * kernel * kernel)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    groups: int = 1,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (scatter-add), used for the conv backward pass."""
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    cols = cols.reshape(n, out_h, out_w, groups, kernel, kernel, c // groups)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, groups, c // groups),
                      dtype=cols.dtype)
    for ki in range(kernel):
        i_end = ki + stride * out_h
        for kj in range(kernel):
            j_end = kj + stride * out_w
            padded[:, ki:i_end:stride, kj:j_end:stride] += cols[:, :, :, :, ki, kj]
    padded = padded.reshape(n, h + 2 * padding, w + 2 * padding, c)
    return padded[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------- #
# convolution
# ---------------------------------------------------------------------- #
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution.

    ``x``: (N, C_in, H, W); ``weight``: (C_out, C_in/groups, K, K).
    ``groups == C_in`` gives depthwise convolution (used by MobileNet blocks).

    Lowered to im2col + GEMM: per group, the unfolded input is one
    (N*P, K*K*C_in/groups) matrix, so the output, the input gradient and the
    weight gradient are each one matmul (batched over groups).
    """
    n, c_in, h, w = x.shape
    c_out, c_group, kernel, _ = weight.shape
    if c_in % groups or c_out % groups:
        raise ValueError("channel counts must be divisible by groups")
    out_h = _conv_output_size(h, kernel, stride, padding)
    out_w = _conv_output_size(w, kernel, stride, padding)
    rows = n * out_h * out_w
    cg_out = c_out // groups

    cols = im2col(x.data, kernel, stride, padding, groups)
    cols_g = cols.reshape(rows, groups, -1).transpose(1, 0, 2)  # (G, N*P, K*K*Cg_in)
    # Weight rows in the (ki, kj, c) column order of im2col: (G, Cg_out, K*K*Cg_in).
    w_g = weight.data.reshape(groups, cg_out, c_group, kernel, kernel).transpose(
        0, 1, 3, 4, 2).reshape(groups, cg_out, -1)
    out = cols_g @ w_g.transpose(0, 2, 1)  # (G, N*P, Cg_out)
    out_data = out.transpose(1, 0, 2).reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        grad_g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            rows, groups, cg_out).transpose(1, 0, 2)  # (G, N*P, Cg_out)
        if weight.requires_grad:
            gw = grad_g.transpose(0, 2, 1) @ cols_g  # (G, Cg_out, K*K*Cg_in)
            gw = gw.reshape(groups, cg_out, kernel, kernel, c_group).transpose(0, 1, 4, 2, 3)
            weight._accumulate(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = (grad_g @ w_g).transpose(1, 0, 2)  # (N*P, G, K*K*Cg_in)
            x._accumulate(col2im(gcols, x.shape, kernel, stride, padding, groups))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


# ---------------------------------------------------------------------- #
# pooling
# ---------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, 0)
    out_w = _conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)  # (N*C, P, K*K)
    argmax = cols.argmax(axis=2)
    out = cols.max(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad).reshape(n * c, -1)
        gcols = np.zeros_like(cols)
        rows = np.arange(cols.shape[0])[:, None]
        pos = np.arange(cols.shape[1])[None, :]
        gcols[rows, pos, argmax] = grad
        gx = col2im(gcols, (n * c, 1, h, w), kernel, stride, 0)
        x._accumulate(gx.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel, stride, 0)
    out_w = _conv_output_size(w, kernel, stride, 0)
    cols = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad).reshape(n * c, -1, 1)
        gcols = np.broadcast_to(grad / (kernel * kernel), cols.shape).copy()
        gx = col2im(gcols, (n * c, 1, h, w), kernel, stride, 0)
        x._accumulate(gx.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Global average pooling: (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------- #
# embedding lookup
# ---------------------------------------------------------------------- #
def embedding(indices: np.ndarray, table: Tensor) -> Tensor:
    """Lookup rows of ``table`` (V, D) for integer ``indices`` of any shape."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def backward(grad: np.ndarray) -> None:
        if not table.requires_grad:
            return
        full = np.zeros_like(table.data)
        np.add.at(full, idx.reshape(-1), _as_array(grad).reshape(-1, table.shape[1]))
        table._accumulate(full)

    return Tensor._make(data, (table,), backward)


# ---------------------------------------------------------------------- #
# losses expressed functionally
# ---------------------------------------------------------------------- #
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsumexp
    softmax = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        g = _as_array(grad)
        x._accumulate(g - softmax * g.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) or (N, T, C) and integer targets."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    flat = logp.reshape(-1, logits.shape[-1])
    n = flat.shape[0]
    picked = flat[np.arange(n), targets.reshape(-1)]
    return -picked.mean()


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    target = _as_array(target)
    diff = prediction - Tensor(target)
    return (diff * diff).mean()
