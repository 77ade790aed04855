"""The throughput engine: mesh-wide execution over stacked tiles.

The device path simulates the cluster one CPE at a time: 64 dict
lookups and 64 tiny ``a @ b`` calls per sharing step, plus a
:class:`~repro.arch.regcomm.RegisterComm` object round trip per
broadcast.  That faithfulness is the point of the device model — and
pure overhead once the protocols are trusted.  This engine runs the
same program mesh-wide, at two fusion levels:

**Stepwise mode** (:class:`StepwiseEngine`) is the literal mesh-wide
formulation, executed through a compiled
:class:`~repro.core.engine.plans.IndexPlan`:

- each operand's 64 thread-level tiles live in one contiguous
  ``(64, rows, cols)`` stack (the cluster's LDM, as an array), filled
  by the plan's :class:`~repro.core.mapping.StackCopySpec` recipes —
  one strided slice copy replaces 64 per-CPE DMA calls (or 8
  collective ROW_MODE transfers);
- a sharing step reads the owner lines' tiles through broadcast views
  over a 4-D reshape of the stacks — exactly the tiles the
  :func:`~repro.core.sharing.step_owner_indices` tables name and the
  register networks would have delivered — and all 64 tile multiplies
  of the step execute as one batched ``matmul``;
- the beta scaling is one ``stack *= beta`` over the whole C stack.

The plan (owner tables, stack copy recipes, block origins) is built
once per ``(shape, variant, params)`` signature and cached in an
LDM-budgeted :class:`~repro.core.engine.plans.PlanCache`.

It performs the identical arithmetic in the identical order as the
device path (same BLAS calls on the same operands), so its results are
bit-for-bit equal — it exists as the bridge that *proves* the index
algebra, and as the shape the real hardware's batched execution takes.

**Fused mode** (:class:`VectorizedEngine`) goes one step further:
because every stack gather/scatter is an axis permutation and the
owner tables make each strip multiplication a plain block matrix
product, the permutations compose away — the eight sharing steps
collapse into one blocked ``C_panel += alpha * A_panel @ B_panel`` on
strided views of the operands in main memory, one BLAS call per
(j, l) panel, with zero intermediate copies.  Results then agree with the device engine to
well below the library's ``rtol=1e-12 / atol=1e-9`` comparison
tolerance (the only difference is floating-point summation *order*
inside a k-panel), which the property tests in
``tests/property/test_prop_engine.py`` enforce across all variants.

Either way the DMA / register-communication statistics are booked
analytically — per block transfer via the mapping's ``tally_*``
closed forms, per strip multiplication via
:meth:`~repro.arch.regcomm.RegCommStats.tally_broadcasts` — and match
the device engine's measured counters exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.arch.core_group import CoreGroup
from repro.arch.dma import DMADirection, DMAMode
from repro.arch.memory import MatrixHandle
from repro.core.engine.base import Engine
from repro.core.engine.plans import IndexPlan, default_plan_cache
from repro.core.params import GRID, BlockingParams
from repro.core.sharing import Scheme
from repro.core.variants.base import check_gemm_shapes
from repro.obs.registry import cg_meter
from repro.obs.tracer import ensure_tracer
from repro.resil.faults import fault_phase

__all__ = ["VectorizedEngine", "StepwiseEngine", "TileStacks"]


def _fire(cg: CoreGroup, site: str) -> None:
    """Chaos fire point for the analytically-booked transfer sites.

    The vectorized engine never calls the per-CPE device methods, so
    the ``dma.*``/``regcomm`` fire points instrumented there are
    re-issued here at the equivalent block-transfer granularity — one
    call per block transfer group, before the tallies it represents.
    """
    injector = cg.injector
    if injector is not None:
        injector.fire(site, cg=cg.cg_index)


class TileStacks:
    """The cluster's LDM as three stacked tile arrays.

    ``a[t]``, ``b[t]``, ``c[t]`` are the tiles of flat thread ``t``
    (row-major coordinate order, matching
    :meth:`~repro.arch.mesh.CPEMesh.linear_index`).  The scratch stack
    for the batched product is preallocated here so the hot loop
    performs no allocations at all.
    """

    def __init__(self, params: BlockingParams) -> None:
        n = GRID * GRID
        self.a = np.empty((n, params.p_m, params.p_k))
        self.b = np.empty((n, params.p_k, params.p_n))
        self.c = np.empty((n, params.p_m, params.p_n))
        self.prod = np.empty_like(self.c)


class VectorizedEngine(Engine):
    """Batched mesh-wide execution of the five variants.

    Functionally equivalent to :class:`~repro.core.engine.device.DeviceEngine`
    (same blocks, same panel order, same operands) with identical
    DMA / register-communication accounting; what it does *not* do is
    exercise the device model's runtime protocol checks — buffer
    discipline and alignment hold by construction on this path, because
    the shapes were validated by :class:`BlockingParams` up front.

    This engine runs the fused formulation, which collapses each strip
    multiplication into one BLAS panel product (>=10x, same results to
    the library comparison tolerance).  :class:`StepwiseEngine` runs
    the per-step stacked-tile formulation instead (bit-identical to
    the device) through a cached
    :class:`~repro.core.engine.plans.IndexPlan`.
    """

    name = "vectorized"
    #: run the per-step stacked-tile program instead of the fused one.
    stepwise = False

    def run(
        self,
        impl,
        cg: CoreGroup,
        a: MatrixHandle,
        b: MatrixHandle,
        c: MatrixHandle,
        alpha: float = 1.0,
        beta: float = 0.0,
        params: BlockingParams | None = None,
        tracer=None,
        plan_cache=None,
    ) -> None:
        name = impl.traits.name
        tracer = ensure_tracer(tracer)
        if not impl.traits.shared:
            self._run_raw(impl, cg, a, b, c, alpha, beta, tracer)
            return
        if not hasattr(impl, "scheme") or not hasattr(impl, "mapping_cls"):
            raise ConfigError(
                f"variant {name!r} has no vectorized execution; run it on "
                "the device engine"
            )
        params = params or impl.default_params()
        # the same buffering contracts the device variants enforce
        if impl.traits.double_buffered and not params.double_buffered:
            raise ValueError(f"{name} requires double-buffered params")
        if not impl.traits.double_buffered and params.double_buffered:
            raise ValueError(f"{name} is a single-buffered variant")
        params.validate(cg.spec)
        m, n, k = check_gemm_shapes(a, b, c)
        grid = params.check_shape(m, n, k)
        cg.reset_cpes()
        cg.mpe.spawn(cg.spec.n_cpes)
        mapping = impl.mapping_cls(params)
        # Double buffering changes *when* transfers are issued relative
        # to compute (Algorithm 2's overlap), not which transfers happen
        # or what they carry — so DB/SCHED share PE's block order here
        # and the cumulative statistics still match the device path
        # exactly.
        if self.stepwise:
            cache = default_plan_cache() if plan_cache is None else plan_cache
            plan = cache.get_or_build(impl, params, m, n, k, tracer=tracer)
            self._shared_stepwise_planned(cg, a, b, c, alpha, beta,
                                          params, mapping, plan, tracer)
        else:
            self._shared_fused(impl, cg, a, b, c, alpha, beta,
                               params, mapping, grid, m, tracer)

    # -- the blocked, shared variants (PE / ROW / DB / SCHED) -----------

    def _shared_fused(self, impl, cg, a, b, c, alpha, beta,
                      params, mapping, grid, m, tracer) -> None:
        """One BLAS panel product per (j, l); stats booked analytically.

        The stack gathers, owner-index gathers, and write-back scatters
        are mutually inverse permutations, so the strip multiplication
        is executed directly on strided views of the operands in main
        memory.  The product lands in a transposed scratch (computed as
        ``B^T A^T``) so both the matmul output and the C accumulation
        run over column-major-aligned memory.
        """
        grid_m, grid_n, grid_k = grid
        b_m, b_n, b_k = params.b_m, params.b_n, params.b_k
        a_v = cg.memory.array(a)
        b_v = cg.memory.array(b)
        c_v = cg.memory.array(c)
        res_t = np.empty((b_n, m))
        meter = cg_meter(cg)
        for j in range(grid_n):
            jb = slice(j * b_n, (j + 1) * b_n)
            for l in range(grid_k):
                lb = slice(l * b_k, (l + 1) * b_k)
                with tracer.span("strip_mult", cat="kernel", meter=meter,
                                 j=j, l=l), fault_phase(cg.injector, "kernel"):
                    _fire(cg, "compute")
                    _fire(cg, "dma.get")
                    if l == 0 and beta != 1.0:
                        c_v[:, jb] *= beta
                    np.matmul(b_v[lb, jb].T, a_v[:, lb].T, out=res_t)
                    if alpha != 1.0:
                        res_t *= alpha
                    c_v[:, jb] += res_t.T
                    mapping.tally_load_b(cg)
                    for _ in range(grid_m):
                        _fire(cg, "dma.get")
                        mapping.tally_load_a(cg)
                        mapping.tally_load_c(cg)
                        _fire(cg, "dma.put")
                        mapping.tally_store_c(cg)
                        self._tally_sharing(cg, impl.scheme, params)

    # -- the plan-compiled stepwise path --------------------------------

    def _shared_stepwise_planned(self, cg, a, b, c, alpha, beta,
                                 params, mapping, plan: IndexPlan,
                                 tracer) -> None:
        """The stepwise program driven entirely by a compiled plan.

        Same transfers, same tallies, same fire points, and the same
        BLAS calls on the same operands as the device engine's per-CPE
        program; the plan holds every index table, and owner tiles are
        read through broadcast views over the 4-D stacks.  Outputs and
        analytic stats are bit-identical to the device engine;
        ``tests/property/test_prop_engine.py`` holds that line.
        """
        grid_m, grid_n, grid_k = plan.grid
        stacks = TileStacks(params)
        a_v = cg.memory.array(a)
        b_v = cg.memory.array(b)
        c_v = cg.memory.array(c)
        a4 = stacks.a.reshape(plan.a4_shape)
        b4 = stacks.b.reshape(plan.b4_shape)
        c4 = stacks.c.reshape(plan.c4_shape)
        prod4 = stacks.prod.reshape(plan.c4_shape)
        meter = cg_meter(cg)
        for j in range(grid_n):
            for l in range(grid_k):
                with tracer.span("strip_mult", cat="kernel", meter=meter,
                                 j=j, l=l), fault_phase(cg.injector, "kernel"):
                    _fire(cg, "compute")
                    _fire(cg, "dma.get")
                    plan.load_b(b_v, l, j, stacks.b)
                    mapping.tally_load_b(cg)
                    beta_now = beta if l == 0 else 1.0
                    for i in range(grid_m):
                        _fire(cg, "dma.get")
                        plan.load_a(a_v, i, l, stacks.a)
                        mapping.tally_load_a(cg)
                        plan.load_c(c_v, i, j, stacks.c)
                        mapping.tally_load_c(cg)
                        if beta_now != 1.0:
                            stacks.c *= beta_now
                        self._strip_multiply_planned(
                            cg, plan, a4, b4, c4, prod4, alpha, params)
                        _fire(cg, "dma.put")
                        plan.store_c(c_v, i, j, stacks.c)
                        mapping.tally_store_c(cg)

    def _strip_multiply_planned(self, cg, plan, a4, b4, c4, prod4,
                                alpha, params) -> None:
        """Eight sharing steps as broadcast views + batched multiplies.

        ``plan.step_views`` selects each step's owner line and
        broadcasts it against the free mesh axis, reproducing the
        owner-index gather tables exactly (validated at plan build) —
        so the batched ``matmul`` multiplies the identical tile pairs
        the device's register broadcasts deliver, with no gather
        copies.  The accumulation (``+= prod`` / scaled product) keeps
        the device's floating-point sequence, and therefore its result,
        bitwise.
        """
        for step in range(GRID):
            a_view, b_view = plan.step_views(a4, b4, step)
            np.matmul(a_view, b_view, out=prod4)
            if alpha == 1.0:
                c4 += prod4
            else:
                np.multiply(prod4, alpha, out=prod4)
                c4 += prod4
        self._tally_sharing(cg, plan.scheme, params)

    @staticmethod
    def _tally_sharing(cg, scheme, params) -> None:
        """Book the register traffic of one full strip multiplication.

        Per step the device path issues 8 A broadcasts and 8 B
        broadcasts (one per owner on the step's mesh lines) and 56 + 56
        receives (every CPE not on an owner line pops each operand).
        Which network carries which operand is the scheme's transpose.
        """
        _fire(cg, "regcomm")
        a_nbytes = params.p_m * params.p_k * 8
        b_nbytes = params.p_k * params.p_n * 8
        n_bcasts = GRID * GRID  # 8 owners x 8 steps
        receives = 2 * GRID * (GRID * GRID - GRID)  # 2 x 8 steps x 56
        if scheme is Scheme.PE:
            row_nbytes, col_nbytes = a_nbytes, b_nbytes
        else:
            row_nbytes, col_nbytes = b_nbytes, a_nbytes
        cg.regcomm.stats.tally_broadcasts(
            row_broadcasts=n_bcasts,
            col_broadcasts=n_bcasts,
            row_nbytes=row_nbytes,
            col_nbytes=col_nbytes,
            fanout=GRID - 1,
            receives=receives,
        )

    # -- RAW ------------------------------------------------------------

    def _run_raw(self, impl, cg, a, b, c, alpha, beta, tracer) -> None:
        """RAW's per-thread tiled triple loop, batched over the mesh.

        A tile row is shared by a whole mesh row and a B tile by a
        whole mesh column (the 8x traffic blow-up that makes RAW
        memory-bound), so the stacks are 8-deep per side and one
        broadcasting ``matmul`` covers all 64 panels.
        """
        m, n, k = check_gemm_shapes(a, b, c)
        t_m, t_n, t_k = impl.tile_geometry(m, n, k)
        panel_m, panel_n = m // GRID, n // GRID
        cg.reset_cpes()
        cg.mpe.spawn(cg.spec.n_cpes)
        tb = cg.spec.dma.transaction_bytes
        stats = cg.dma.stats
        n_cpes = GRID * GRID
        # panel-blocked views of the resident matrices (axis splits only)
        a_v = cg.memory.array(a).reshape(GRID, panel_m, k)
        b_v = cg.memory.array(b).reshape(k, GRID, panel_n)
        c_v = cg.memory.array(c).reshape(GRID, panel_m, GRID, panel_n)
        n_kk = k // t_k
        with tracer.span("kernel", cat="kernel", meter=cg_meter(cg),
                         variant=impl.traits.name, engine=self.name), \
                fault_phase(cg.injector, "kernel"):
            for ti in range(panel_m // t_m):
                rows = slice(ti * t_m, (ti + 1) * t_m)
                for tj in range(panel_n // t_n):
                    cols = slice(tj * t_n, (tj + 1) * t_n)
                    _fire(cg, "compute")
                    _fire(cg, "dma.get")
                    c_region = c_v[:, rows, :, cols]
                    c_stack = c_region.transpose(0, 2, 1, 3).copy()
                    if beta != 1.0:
                        c_stack *= beta
                    for kk in range(n_kk):
                        ks = slice(kk * t_k, (kk + 1) * t_k)
                        a_stack = a_v[:, rows, ks].copy()           # (8, tM, tK)
                        b_stack = b_v[ks, :, cols].transpose(1, 0, 2).copy()
                        prod = np.matmul(a_stack[:, None], b_stack[None, :])
                        if alpha == 1.0:
                            c_stack += prod
                        else:
                            c_stack += alpha * prod
                    _fire(cg, "dma.put")
                    c_region[:] = c_stack.transpose(0, 2, 1, 3)
                    stats.tally(DMAMode.PE, DMADirection.GET,
                                t_m * t_n * 8, t_m * t_n * 8 // tb, n_cpes)
                    stats.tally(DMAMode.PE, DMADirection.GET,
                                t_m * t_k * 8, t_m * t_k * 8 // tb, n_cpes * n_kk)
                    stats.tally(DMAMode.PE, DMADirection.GET,
                                t_k * t_n * 8, t_k * t_n * 8 // tb, n_cpes * n_kk)
                    stats.tally(DMAMode.PE, DMADirection.PUT,
                                t_m * t_n * 8, t_m * t_n * 8 // tb, n_cpes)


class StepwiseEngine(VectorizedEngine):
    """The plan-compiled stepwise formulation as a named engine.

    Registered as ``"stepwise"`` so sessions, batch items, and serve
    requests can select the bit-exact fast path by name.  Results and
    analytic stats match the device engine bit for bit; wall-clock
    sits between the device and fused paths.
    """

    name = "stepwise"
    stepwise = True
