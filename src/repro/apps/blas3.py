"""Further level-3 BLAS kernels built on the DGEMM core.

The paper's conclusion: "the work can be smoothly extended to other
dense matrix kernels".  This module is that extension for two kernels
whose flops are dominated by GEMM updates, in exactly the way vendor
libraries layer them:

- :func:`dtrsm_llnu` — triangular solve ``X = L^{-1} B`` (left, lower,
  non-transposed, unit diagonal): diagonal blocks solved on the MPE,
  off-diagonal updates are simulated-CG DGEMMs;
- :func:`dsyrk_ln` — symmetric rank-k update ``C = alpha*A*A^T +
  beta*C`` (lower, non-transposed): block-column products through
  ``dgemm(transb="T")``, with only the lower triangle written back.

Both match their numpy references in the tests, and both route >90% of
their flops through the paper's kernel at realistic block counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, UnsupportedShapeError
from repro.arch.core_group import CoreGroup
from repro.core.api import dgemm
from repro.core.context import ExecutionContext
from repro.core.params import BlockingParams

__all__ = ["dtrsm_llnu", "dsyrk_ln"]


def dtrsm_llnu(
    l_matrix: np.ndarray,
    b: np.ndarray,
    block: int = 64,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
    tracer=None,
    engine: str = "device",
) -> np.ndarray:
    """Solve ``L X = B`` for unit-lower-triangular L (blocked).

    Forward substitution over ``block``-sized row panels::

        X[i]  = B[i] - L[i, :i] @ X[:i]     # the DGEMM update
        X[i] := L[i, i]^{-1} X[i]           # small solve on the MPE

    Strictly-upper entries of ``l_matrix`` are ignored and the diagonal
    is taken as 1, per BLAS ``diag='U'`` semantics.  ``engine=`` selects
    the updates' execution engine, as in :func:`repro.core.api.dgemm`.
    """
    l_matrix = np.asfortranarray(l_matrix, dtype=np.float64)
    b = np.asfortranarray(b, dtype=np.float64)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise UnsupportedShapeError(f"L must be square, got {l_matrix.shape}")
    n = l_matrix.shape[0]
    if b.ndim != 2 or b.shape[0] != n:
        raise UnsupportedShapeError(
            f"B has {b.shape[0] if b.ndim == 2 else '?'} rows, L is {n}x{n}"
        )
    if block < 1:
        raise ConfigError(f"block must be >= 1, got {block}")
    params = params or BlockingParams.small(double_buffered=True)

    x = b.copy(order="F")
    # one staging scope for the whole sweep: equal-width panels reuse
    # their staging allocations in place across iterations
    with ExecutionContext.scoped(context, core_group) as ctx:
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            if lo > 0:
                # X[lo:hi] -= L[lo:hi, :lo] @ X[:lo]  — on the CPE cluster
                x[lo:hi, :] = dgemm(
                    l_matrix[lo:hi, :lo],
                    x[:lo, :],
                    x[lo:hi, :],
                    alpha=-1.0,
                    beta=1.0,
                    variant=variant,
                    engine=engine,
                    params=params,
                    context=ctx,
                    pad=True,
                    tracer=tracer,
                )
            # unit-lower diagonal block solve on the MPE
            diag = np.tril(l_matrix[lo:hi, lo:hi], -1) + np.eye(hi - lo)
            for j in range(hi - lo):  # forward substitution, unit diagonal
                x[lo + j + 1 : hi, :] -= np.outer(diag[j + 1 :, j], x[lo + j, :])
    return x


def dsyrk_ln(
    a: np.ndarray,
    c: np.ndarray | None = None,
    alpha: float = 1.0,
    beta: float = 0.0,
    block: int = 128,
    variant: str = "SCHED",
    params: BlockingParams | None = None,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
    tracer=None,
) -> np.ndarray:
    """Symmetric rank-k update ``C = alpha*A*A^T + beta*C`` (lower).

    Only the lower triangle of the returned matrix is meaningful, per
    BLAS; the strict upper triangle of the input C is not read.  Block
    row-pairs below the diagonal are full DGEMMs; diagonal blocks are
    computed fully and their lower triangle kept.
    """
    a = np.asfortranarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise UnsupportedShapeError(f"A must be a matrix, got ndim {a.ndim}")
    n, k = a.shape
    if c is None:
        if beta != 0.0:
            raise UnsupportedShapeError("beta != 0 requires an input C")
        c = np.zeros((n, n), dtype=np.float64, order="F")
    c = np.asfortranarray(c, dtype=np.float64)
    if c.shape != (n, n):
        raise UnsupportedShapeError(f"C is {c.shape}, expected {(n, n)}")
    if block < 1:
        raise ConfigError(f"block must be >= 1, got {block}")
    params = params or BlockingParams.small(double_buffered=True)

    out = c.copy(order="F")
    with ExecutionContext.scoped(context, core_group) as ctx:
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            # one block row of the product: rows [lo, hi) x columns [0, hi)
            update = dgemm(
                a[lo:hi, :],
                a[:hi, :],
                out[lo:hi, :hi],
                alpha=alpha,
                beta=beta,
                transb="T",
                variant=variant,
                params=params,
                context=ctx,
                pad=True,
                tracer=tracer,
            )
            out[lo:hi, :hi] = update
    # zero the strict upper triangle for a canonical result
    return np.asfortranarray(np.tril(out))
