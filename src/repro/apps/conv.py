"""2-D convolution lowered to GEMM (im2col).

The paper's introduction cites convolutional networks as a GEMM
consumer [Chellapilla et al.]; this module implements the classic
lowering: unfold input patches into columns (``im2col``, done on the
MPE), multiply by the flattened kernel bank on the CPE cluster, fold
back into feature maps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.api import ConvRequest
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.batch import dgemm_batch
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams

__all__ = ["im2col", "conv2d_gemm", "conv2d_gemm_batch", "conv2d_reference"]


def im2col(images: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """Unfold NCHW images into a (C*kh*kw) x (N*oh*ow) patch matrix.

    Column ``(n, y, x)`` holds the receptive field of output pixel
    ``(y, x)`` of image ``n``, flattened channel-major — the layout
    that makes convolution ``W_flat @ patches``.
    """
    if images.ndim != 4:
        raise UnsupportedShapeError(f"expected NCHW images, got shape {images.shape}")
    if kh < 1 or kw < 1 or stride < 1:
        raise ConfigError("kernel dims and stride must be >= 1")
    n, c, h, w = images.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise UnsupportedShapeError(
            f"kernel {kh}x{kw} does not fit input {h}x{w}"
        )
    cols = np.empty((c * kh * kw, n * oh * ow), dtype=np.float64, order="F")
    col = 0
    for img in range(n):
        for y in range(oh):
            for x in range(ow):
                patch = images[
                    img, :, y * stride : y * stride + kh, x * stride : x * stride + kw
                ]
                cols[:, col] = patch.reshape(-1)
                col += 1
    return cols


def conv2d_gemm(
    images: np.ndarray,
    kernels: np.ndarray,
    stride: int = 1,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
) -> np.ndarray:
    """Convolve NCHW ``images`` with OIHW ``kernels`` on the simulated CG.

    Returns N x O x oh x ow feature maps.  The GEMM is
    ``(O x C*kh*kw) @ (C*kh*kw x N*oh*ow)``, padded to the CG block
    factors.  Pass ``context=`` when convolving a sequence of
    same-shape layers so the staging allocations stay warm between
    calls.
    """
    request = ConvRequest(images, kernels, stride)
    gemm = request.lower()
    out_flat = dgemm(
        gemm.a, gemm.b, variant=variant,
        params=params or BlockingParams.small(double_buffered=True),
        core_group=core_group, context=context, pad=True,
    )
    return request.fold(out_flat)


def conv2d_gemm_batch(
    layers: Sequence[tuple[np.ndarray, np.ndarray]],
    stride: int = 1,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
) -> tuple[np.ndarray, ...]:
    """Convolve many independent ``(images, kernels)`` layers on one CG.

    Each layer lowers to one GEMM (:meth:`ConvRequest.lower
    <repro.api.ConvRequest.lower>`); the whole sequence then runs
    through :func:`~repro.core.batch.dgemm_batch`, so same-shape layers
    keep the CG's staging plans warm.  To spread the layers over the
    chip's core groups, ``Session.batch`` the lowered requests and
    :meth:`~repro.api.ConvRequest.fold` each output.

    Returns the N x O x oh x ow feature maps per layer, in order.
    """
    if not layers:
        raise ConfigError("empty layer batch")
    requests = [
        ConvRequest(images, kernels, stride) for images, kernels in layers
    ]
    result = dgemm_batch(
        [request.lower() for request in requests], variant=variant,
        params=params or BlockingParams.small(double_buffered=True),
        pad=True,
    )
    return tuple(
        request.fold(out) for request, out in zip(requests, result.outputs)
    )


def conv2d_reference(
    images: np.ndarray, kernels: np.ndarray, stride: int = 1
) -> np.ndarray:
    """Direct convolution for validation."""
    n, c, h, w = images.shape
    o, _, kh, kw = kernels.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for img in range(n):
        for f in range(o):
            for y in range(oh):
                for x in range(ow):
                    patch = images[
                        img, :, y * stride : y * stride + kh,
                        x * stride : x * stride + kw,
                    ]
                    out[img, f, y, x] = float(np.sum(patch * kernels[f]))
    return out
