"""Blocked LU factorization — the HPL trailing-update workload.

Right-looking blocked LU with partial pivoting::

    for each panel p:
        factor the panel (MPE, numpy)           # small, latency bound
        apply pivots to the trailing columns
        triangular-solve the block row           (MPE)
        A22 -= L21 @ U12                         # DGEMM on the CPE cluster

The trailing update is by far the flop-dominant step (O(n^3) of the
total), which is exactly why the paper's DGEMM matters to HPL; here it
runs through :func:`repro.core.api.dgemm` with ``alpha=-1, beta=1`` on
the simulated core group (``pad=True`` absorbs the shrinking trailing
shapes, which are rarely multiples of the CG block factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.errors import ConfigError, UnsupportedShapeError
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.multi.processor import SW26010Processor

__all__ = ["LUResult", "blocked_lu", "lu_solve", "lu_residual"]


@dataclass
class LUResult:
    """Packed LU factors, pivots, and accounting."""

    lu: np.ndarray           # L (unit lower, below diagonal) and U packed
    piv: np.ndarray          # row swap at step i: rows i <-> piv[i]
    panel: int
    #: useful flops of the trailing updates on the simulated CG.
    gemm_flops: int
    #: the same updates' flops at the padded shapes they executed at.
    padded_gemm_flops: int

    @property
    def n(self) -> int:
        return self.lu.shape[0]

    def permutation(self) -> np.ndarray:
        """The row permutation P as an index vector (PA = LU)."""
        perm = np.arange(self.n)
        for i, p in enumerate(self.piv):
            perm[[i, p]] = perm[[p, i]]
        return perm


def _factor_panel(a: np.ndarray, col0: int, panel: int) -> list[int]:
    """Unblocked partial-pivoting LU of A[col0:, col0:col0+panel]."""
    n = a.shape[0]
    piv: list[int] = []
    hi = min(col0 + panel, n)
    for j in range(col0, hi):
        p = int(np.argmax(np.abs(a[j:, j]))) + j
        piv.append(p)
        if p != j:
            a[[j, p], :] = a[[p, j], :]
        if a[j, j] == 0.0:
            raise ConfigError(f"matrix is singular at column {j}")
        a[j + 1 :, j] /= a[j, j]
        if j + 1 < hi:
            a[j + 1 :, j + 1 : hi] -= np.outer(a[j + 1 :, j], a[j, j + 1 : hi])
    return piv


def blocked_lu(
    a: np.ndarray,
    panel: int = 64,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
    processor: "SW26010Processor | None" = None,
    tracer=None,
    engine: str = "device",
) -> LUResult:
    """Factor PA = LU with trailing updates on the simulated CG.

    ``panel`` is the blocking width of the panel factorization; the
    pivoting is applied across the whole row, as in HPL.  All trailing
    updates run inside one staging scope, so the device's byte budget
    is back at its baseline when the factorization returns.

    Pass ``processor=`` (an :class:`~repro.multi.processor.SW26010Processor`)
    to route each trailing update across the chip's four core groups —
    the HPL configuration — instead of serializing it on one CG; panel
    factorization and the triangular solves stay on CG 0.

    ``engine=`` selects the execution engine of every simulated-CG
    DGEMM (triangular-solve updates and trailing updates alike), as in
    :func:`repro.core.api.dgemm`.  The result records both the useful
    and the padded flops of the trailing updates.
    """
    if processor is not None and (core_group is not None or context is not None):
        raise ConfigError(
            "processor= routes trailing updates across core groups; "
            "core_group=/context= pin the single-CG path — pass one or "
            "the other"
        )
    a = np.asfortranarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UnsupportedShapeError(f"blocked_lu needs a square matrix, got {a.shape}")
    if panel < 1:
        raise ConfigError(f"panel width must be >= 1, got {panel}")
    n = a.shape[0]
    lu = a.copy(order="F")
    piv = np.empty(n, dtype=np.int64)
    params = params or BlockingParams.small(double_buffered=True)
    gemm_flops = padded_gemm_flops = 0

    if processor is not None:
        core_group = processor.cg(0)
    with ExecutionContext.scoped(context, core_group) as ctx:
        for col0 in range(0, n, panel):
            width = min(panel, n - col0)
            # pivoted panel factorization touches the full rows (HPL
            # style: swaps are applied across the matrix)
            piv[col0 : col0 + width] = _factor_panel(lu, col0, width)
            hi = col0 + width
            if hi >= n:
                break
            # block row: U12 = L11^{-1} A12 via the blocked DTRSM
            # extension (diagonal solves on the MPE, inner updates back
            # on the CG)
            from repro.apps.blas3 import dtrsm_llnu

            lu[col0:hi, hi:] = dtrsm_llnu(
                lu[col0:hi, col0:hi], lu[col0:hi, hi:],
                block=max(16, width // 2), variant=variant,
                params=params, context=ctx, tracer=tracer, engine=engine,
            )
            # trailing update on the CPE cluster: A22 -= L21 @ U12
            l21 = lu[hi:, col0:hi]
            u12 = lu[col0:hi, hi:]
            rows, cols = l21.shape[0], u12.shape[1]
            pm, pn, pk = params.pad_shape(rows, cols, width)
            if processor is not None:
                from repro.multi.dgemm4 import dgemm_multi_cg

                lu[hi:, hi:] = dgemm_multi_cg(
                    l21, u12, lu[hi:, hi:], alpha=-1.0, beta=1.0,
                    variant=variant, engine=engine, params=params,
                    processor=processor, pad=True,
                )
                # dgemm_multi_cg pads n to whole block-multiple panels
                block = processor.N_CORE_GROUPS * params.b_n
                pn = -(-cols // block) * block
            else:
                lu[hi:, hi:] = dgemm(
                    l21,
                    u12,
                    lu[hi:, hi:],
                    alpha=-1.0,
                    beta=1.0,
                    variant=variant,
                    engine=engine,
                    params=params,
                    context=ctx,
                    pad=True,
                    tracer=tracer,
                )
            gemm_flops += 2 * rows * cols * width
            padded_gemm_flops += 2 * pm * pn * pk
    return LUResult(lu=lu, piv=piv, panel=panel, gemm_flops=gemm_flops,
                    padded_gemm_flops=padded_gemm_flops)


def lu_solve(result: LUResult, b: np.ndarray) -> np.ndarray:
    """Solve A x = b from the packed factors."""
    b = np.array(b, dtype=np.float64)
    if b.shape[0] != result.n:
        raise UnsupportedShapeError(
            f"rhs has {b.shape[0]} rows, factors are {result.n}x{result.n}"
        )
    x = b.copy()
    for i, p in enumerate(result.piv):
        if p != i:
            x[[i, p]] = x[[p, i]]
    lu = result.lu
    n = result.n
    for j in range(n):  # forward: L y = Pb (unit diagonal)
        x[j + 1 :] -= lu[j + 1 :, j] * x[j]
    for j in reversed(range(n)):  # backward: U x = y
        x[j] /= lu[j, j]
        x[:j] -= lu[:j, j] * x[j]
    return x


def lu_residual(a: np.ndarray, result: LUResult) -> float:
    """HPL-style scaled residual ||PA - LU|| / (||A|| * n * eps)."""
    n = result.n
    l = np.tril(result.lu, -1) + np.eye(n)
    u = np.triu(result.lu)
    pa = np.asarray(a, dtype=np.float64)[result.permutation(), :]
    err = np.linalg.norm(pa - l @ u, ord=np.inf)
    scale = np.linalg.norm(a, ord=np.inf) * n * np.finfo(np.float64).eps
    return float(err / scale)
