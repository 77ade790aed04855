"""Public DGEMM entry point.

``dgemm`` wraps the whole device pipeline: stage operands into the core
group's main memory, run the chosen variant's functional execution, and
read the result back.  It mirrors the BLAS contract (non-transposed,
column-major, f64) with the paper's shape restriction — dimensions must
be multiples of the CG block factors — relaxed by ``pad=True``.

Staging goes through a scoped :class:`~repro.core.context.ExecutionContext`:
operands get context-unique handle names (so concurrent calls sharing a
core group cannot clobber each other), each operand costs at most one
host-side copy, and every staged handle is freed when the scope exits —
including when a variant raises — so ``MainMemory.used_bytes`` always
returns to its pre-call baseline.  Pass ``context=`` to share staging
plans across calls (the batched hot path).
"""

from __future__ import annotations

import numpy as np

from repro.api import apply_trans, as_gemm_request
from repro.arch.config import SW26010Spec, DEFAULT_SPEC
from repro.arch.core_group import CoreGroup
from repro.core.context import ExecutionContext
from repro.core.engine import get_engine
from repro.core.engine.plans import default_plan_cache
from repro.core.params import BlockingParams
from repro.core.reference import reference_dgemm
from repro.core.variants import get_variant
from repro.obs.registry import (
    cg_meter,
    combine_meters,
    context_meter,
    plan_cache_meter,
)
from repro.obs.tracer import ensure_tracer
from repro.resil.faults import fault_phase

__all__ = ["dgemm"]


def dgemm(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray | None = None,
    *,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: str = "N",
    transb: str = "N",
    variant: str = "SCHED",
    engine: str = "device",
    params: BlockingParams | None = None,
    spec: SW26010Spec = DEFAULT_SPEC,
    core_group: CoreGroup | None = None,
    context: ExecutionContext | None = None,
    pad: bool = False,
    check: bool = False,
    tracer=None,
    plan_cache=None,
) -> np.ndarray:
    """Compute ``alpha * a @ b + beta * c`` on the simulated CG.

    Parameters
    ----------
    a, b, c:
        f64 matrices (any memory order; staged column-major).  ``c``
        may be omitted when ``beta == 0``.
    transa, transb:
        ``"N"`` or ``"T"``.  The paper implements only the
        non-transposed case; ``"T"`` is an extension handled by staging
        an explicit transpose on the MPE before the CG kernel runs (the
        approach production libraries use for unsupported layouts).
        Every call is normalized through
        :func:`repro.api.as_gemm_request`, which rejects empty
        dimensions and complex operands before anything is staged.
    variant:
        one of ``RAW``, ``PE``, ``ROW``, ``DB``, ``SCHED`` (default:
        the paper's best version).
    engine:
        ``"device"`` (default) executes every per-CPE transfer and
        broadcast through the checked device model; ``"vectorized"``
        runs the same program mesh-wide over stacked tiles (batched
        ``np.matmul`` per sharing step) — same results to at least
        rtol=1e-12, identical traffic statistics, an order of
        magnitude faster; ``"stepwise"`` is the plan-compiled
        stacked-tile formulation, *bit-identical* to the device engine
        and several times faster than rebuilding its index algebra per
        call.  See :mod:`repro.core.engine`.
    params:
        blocking parameters; defaults to the variant's paper values.
        Pass :meth:`BlockingParams.small` for fast experimentation.
    core_group:
        low-level escape hatch: reuse an existing device (e.g. to
        accumulate DMA statistics); a fresh one is built otherwise.
        Staged operands are always freed on return, so sharing a
        device never leaks its byte budget.  Callers who don't need
        explicit device management should use
        :class:`repro.core.session.Session` instead.
    context:
        stage through an existing :class:`ExecutionContext` instead of
        a per-call scope.  Same-shape calls then reuse staging
        allocations in place, and the *context's* owner decides when
        the handles are freed.  Mutually consistent with
        ``core_group`` (they must name the same device).
    pad:
        zero-pad dimensions up to the CG block factors instead of
        raising :class:`~repro.errors.UnsupportedShapeError` — an
        extension beyond the paper, which only handles exact multiples.
    check:
        verify the result against the numpy reference and raise
        ``AssertionError`` on mismatch (debugging aid).
    tracer:
        a :class:`repro.obs.SpanTracer` to record phase spans into
        (``dgemm`` → ``stage_A``/``stage_B``/``stage_C``/``strip_mult``
        /``store_C``, plus ``plan.build`` when an execution plan is
        compiled) with counter deltas attached; ``None`` (the default)
        resolves to the no-op tracer.
    plan_cache:
        a :class:`repro.core.engine.plans.PlanCache` supplying compiled
        index plans to the plan-aware engines; ``None`` (the default)
        uses the process-wide cache, so repeated shapes build their
        plan exactly once per process.  Sessions and schedulers pass
        their own (drained on close).

    Returns
    -------
    numpy.ndarray
        the m x n result, column-major.
    """
    request = as_gemm_request(
        a, b, c, alpha=alpha, beta=beta, transa=transa, transb=transb
    )
    impl = get_variant(variant)
    eng = get_engine(engine)
    params = params or impl.default_params()

    a = apply_trans(
        "transa", request.transa, np.asarray(request.a, dtype=np.float64)
    )
    b = apply_trans(
        "transb", request.transb, np.asarray(request.b, dtype=np.float64)
    )
    m, k = a.shape
    k2, n = b.shape
    c = request.c
    if c is not None:
        c = np.asarray(c, dtype=np.float64)

    pm, pn, pk = (params.pad_shape(m, n, k) if pad else (m, n, k))

    tracer = ensure_tracer(tracer)
    pc = default_plan_cache() if plan_cache is None else plan_cache
    with ExecutionContext.scoped(context, core_group, spec) as ctx, ctx.executing():
        cg = ctx.core_group
        with tracer.span(
            "dgemm", cat="dgemm",
            meter=combine_meters(context_meter(ctx), plan_cache_meter(pc)),
            m=m, n=n, k=k, variant=str(variant).upper(), engine=eng.name,
            flops=2 * m * n * k,
        ):
            meter = cg_meter(cg)
            injector = cg.injector
            with tracer.span("stage_A", cat="stage", meter=meter), \
                    fault_phase(injector, "stage_A"):
                ha = ctx.stage("A", a, rows=pm, cols=pk)
            with tracer.span("stage_B", cat="stage", meter=meter), \
                    fault_phase(injector, "stage_B"):
                hb = ctx.stage("B", b, rows=pk, cols=pn)
            with tracer.span("stage_C", cat="stage", meter=meter), \
                    fault_phase(injector, "stage_C"):
                hc = (
                    ctx.stage("C", c, rows=pm, cols=pn)
                    if c is not None
                    else ctx.stage_zeros("C", pm, pn)
                )
            eng.run(impl, cg, ha, hb, hc, alpha=alpha, beta=beta,
                    params=params, tracer=tracer, plan_cache=pc)
            with tracer.span("store_C", cat="stage", meter=meter), \
                    fault_phase(injector, "store_C"):
                result = np.array(cg.memory.array(hc)[:m, :n], order="F",
                                  copy=True)

    if check:
        base = c if c is not None else np.zeros((m, n), dtype=np.float64, order="F")
        expected = reference_dgemm(alpha, a, b, beta, base)
        if not np.allclose(result, expected, rtol=1e-12, atol=1e-9):
            worst = float(np.max(np.abs(result - expected)))
            raise AssertionError(
                f"{impl.traits.name} result deviates from reference "
                f"(max abs err {worst:.3e})"
            )
    return result
