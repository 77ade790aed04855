"""Data-thread mappings: which CPE holds which piece of a CG block.

Two mappings are implemented, matching the paper:

``PEMapping`` (Sec III-A, the "instinctive" mapping)
    the CG block is an 8x8 grid of thread-level blocks and
    ``thread(u, v)`` holds block ``(u, v)`` of each matrix, fetched with
    per-CPE ``PE_MODE`` transfers.

``RowMapping`` (Sec IV-A, the mixed-mode mapping of Figure 5)
    A and C travel in ``ROW_MODE``: column strip ``i`` of the CG block
    (all ``bM`` rows x the ``i``-th ``pX``-column slice) is delivered
    collectively to mesh row ``i``, and the hardware's 16 B round-robin
    hands CPE ``(i, j)`` the interleaved rows
    ``{r : r mod 16 in {2j, 2j+1}}``.  B stays in ``PE_MODE`` but is
    remapped for consistency: CPE ``(i, j)`` holds B's k-rows
    ``[j*pK, (j+1)*pK)`` of column strip ``i``.

Both mappings expose the same load/store interface over a
:class:`~repro.arch.core_group.CoreGroup`, so the GEMM variants differ
only in which mapping (and which sharing scheme) they instantiate.

Correctness note on the interleaving: the ROW_MODE A and C tiles of a
CPE contain the *same* row subset (both matrices are distributed by the
same hardware pattern), so the thread-local update
``C_loc += A_loc @ B`` is exact even though ``C_loc``'s rows are not
contiguous in the parent matrix.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.arch.core_group import CoreGroup
from repro.arch.dma import DMADirection, DMAMode
from repro.arch.memory import MatrixHandle
from repro.arch.mesh import Coord
from repro.core.params import GRID, BlockingParams

__all__ = [
    "DataThreadMapping",
    "PEMapping",
    "RowMapping",
    "StackCopySpec",
    "BUF_A",
    "BUF_B",
    "BUF_C",
]

#: canonical LDM buffer names used by all variants.
BUF_A = "A"
BUF_B = "B"
BUF_C = "C"


@dataclass(frozen=True)
class StackCopySpec:
    """One block transfer, precompiled to a strided view recipe.

    Every mesh-wide block transfer of the stepwise engine is the same
    pure index permutation: slice a ``height x width`` region out of the
    resident matrix, split its axes (``src_shape`` — views only, the
    staged matrices are contiguous), transpose (``axes``) and assign
    into the flat-thread-ordered stack.  The spec freezes those shape
    and axis tuples once per mapping/params pair, so the hot loop
    derives no indices at all; the scatter direction reuses the same
    recipe through the inverse permutation (``inv_axes``).

    Flat fancy-index tables were measured for this role and rejected:
    a ``np.take`` through a precomputed int64 index array copies
    element-wise, while these reshape/transpose assignments keep
    numpy's strided-copy fast path (~1.5-4x faster at paper size).
    The *plan* layer stores the block-origin tables as contiguous
    int32 arrays; the per-step copies stay strided.
    """

    #: region extent in the parent matrix (rows, cols).
    height: int
    width: int
    #: axis-split of the region (a pure view on the staged matrix).
    src_shape: tuple[int, ...]
    #: region-view axes -> stack-view axes (gather direction).
    axes: tuple[int, ...]
    #: the inverse permutation (scatter direction).
    inv_axes: tuple[int, ...]
    #: axis-split of the ``(64, rows, cols)`` tile stack.
    dst_shape: tuple[int, ...]

    @classmethod
    def build(
        cls,
        height: int,
        width: int,
        src_shape: tuple[int, ...],
        axes: tuple[int, ...],
        dst_shape: tuple[int, ...],
    ) -> "StackCopySpec":
        inv_axes = tuple(int(i) for i in np.argsort(axes))
        return cls(
            height=int(height),
            width=int(width),
            src_shape=tuple(int(s) for s in src_shape),
            axes=tuple(int(i) for i in axes),
            inv_axes=inv_axes,
            dst_shape=tuple(int(s) for s in dst_shape),
        )

    def gather(self, mat: np.ndarray, row0: int, col0: int,
               stack: np.ndarray) -> None:
        """Copy block ``(row0, col0)`` of ``mat`` into the tile stack."""
        region = mat[row0:row0 + self.height, col0:col0 + self.width]
        stack.reshape(self.dst_shape)[:] = (
            region.reshape(self.src_shape).transpose(self.axes)
        )

    def scatter(self, mat: np.ndarray, row0: int, col0: int,
                stack: np.ndarray) -> None:
        """Copy the tile stack back over block ``(row0, col0)`` of ``mat``."""
        region = mat[row0:row0 + self.height, col0:col0 + self.width]
        region.reshape(self.src_shape)[:] = (
            stack.reshape(self.dst_shape).transpose(self.inv_axes)
        )

    @property
    def nbytes(self) -> int:
        """Nominal footprint of the frozen recipe (budget accounting)."""
        # height/width plus three small integer tuples; 8 bytes per slot
        # is the honest order of magnitude for the cache byte budget.
        return 8 * (2 + len(self.src_shape) + 2 * len(self.axes)
                    + len(self.dst_shape))


class DataThreadMapping(ABC):
    """Loads/stores CG-level blocks into/from the 64 CPEs' LDM tiles."""

    #: name used in reports ("PE_MODE" / "mixed ROW/PE").
    name: str = "abstract"

    def __init__(self, params: BlockingParams) -> None:
        self.params = params

    # tile shapes are mapping-independent
    def tile_shape(self, which: str) -> tuple[int, int]:
        p = self.params
        return {
            BUF_A: (p.p_m, p.p_k),
            BUF_B: (p.p_k, p.p_n),
            BUF_C: (p.p_m, p.p_n),
        }[which]

    def allocate(self, cg: CoreGroup, double_buffered: bool | None = None) -> None:
        """Allocate this mapping's LDM tiles on every CPE.

        Double buffering allocates A0/A1 and C0/C1 pairs plus a single
        B buffer, mirroring Algorithm 2's LDM budget.
        """
        db = self.params.double_buffered if double_buffered is None else double_buffered
        for cpe in cg.cpes():
            if db:
                cpe.ldm.alloc(f"{BUF_A}0", self.tile_shape(BUF_A))
                cpe.ldm.alloc(f"{BUF_A}1", self.tile_shape(BUF_A))
                cpe.ldm.alloc(f"{BUF_C}0", self.tile_shape(BUF_C))
                cpe.ldm.alloc(f"{BUF_C}1", self.tile_shape(BUF_C))
                cpe.ldm.alloc(BUF_B, self.tile_shape(BUF_B))
            else:
                cpe.ldm.alloc(BUF_A, self.tile_shape(BUF_A))
                cpe.ldm.alloc(BUF_B, self.tile_shape(BUF_B))
                cpe.ldm.alloc(BUF_C, self.tile_shape(BUF_C))

    # -- abstract transfer operations -----------------------------------

    @abstractmethod
    def load_a(self, cg: CoreGroup, handle: MatrixHandle, blk_i: int, blk_l: int,
               buf: str = BUF_A) -> None:
        """Load CG block (blk_i, blk_l) of A into every CPE's ``buf``."""

    @abstractmethod
    def load_b(self, cg: CoreGroup, handle: MatrixHandle, blk_l: int, blk_j: int,
               buf: str = BUF_B) -> None:
        """Load CG block (blk_l, blk_j) of B into every CPE's ``buf``."""

    @abstractmethod
    def load_c(self, cg: CoreGroup, handle: MatrixHandle, blk_i: int, blk_j: int,
               buf: str = BUF_C) -> None:
        """Load CG block (blk_i, blk_j) of C into every CPE's ``buf``."""

    @abstractmethod
    def store_c(self, cg: CoreGroup, handle: MatrixHandle, blk_i: int, blk_j: int,
                buf: str = BUF_C) -> None:
        """Store every CPE's ``buf`` back as CG block (blk_i, blk_j) of C."""

    # -- precompiled copy recipes ---------------------------------------

    @abstractmethod
    def build_copy_specs(self) -> dict[str, StackCopySpec]:
        """Compile this mapping's block transfers to :class:`StackCopySpec`\\ s.

        Keyed by buffer (:data:`BUF_A`/:data:`BUF_B`/:data:`BUF_C`);
        the C spec serves both the load and the store direction.
        :class:`repro.core.engine.plans.IndexPlan` freezes them into a
        cached plan so repeated shapes skip even the one-time build.
        """

    @property
    def copy_specs(self) -> dict[str, StackCopySpec]:
        """The compiled recipes, built once per mapping instance."""
        specs = getattr(self, "_copy_specs", None)
        if specs is None:
            specs = self.build_copy_specs()
            self._copy_specs = specs
        return specs

    # -- analytic DMA accounting ----------------------------------------
    #
    # One block transfer of this mapping always moves the same bytes in
    # the same number of descriptors, whatever engine executes it — so
    # the statistics are closed-form.  The ``tally_*`` methods book
    # exactly what the per-CPE ``load_*``/``store_c`` path would have
    # accumulated; the stepwise engine books them after each strided
    # stack copy, and the fused engine books them standalone (the data
    # movement there is implicit in views over main memory).

    @abstractmethod
    def tally_load_a(self, cg: CoreGroup) -> None:
        """Book the DMA statistics of one A block load."""

    @abstractmethod
    def tally_load_b(self, cg: CoreGroup) -> None:
        """Book the DMA statistics of one B block load."""

    @abstractmethod
    def tally_load_c(self, cg: CoreGroup) -> None:
        """Book the DMA statistics of one C block load."""

    @abstractmethod
    def tally_store_c(self, cg: CoreGroup) -> None:
        """Book the DMA statistics of one C block store."""

    def _tally_pe(self, cg: CoreGroup, direction: DMADirection,
                  rows: int, cols: int) -> None:
        """Book the stats of 64 per-CPE ``PE_MODE`` transfers."""
        nbytes = rows * cols * 8
        tb = cg.spec.dma.transaction_bytes
        cg.dma.stats.tally(
            DMAMode.PE, direction, nbytes, nbytes // tb,
            transfers=GRID * GRID,
        )

    def _tally_row(self, cg: CoreGroup, direction: DMADirection,
                   rows: int, cols: int) -> None:
        """Book the stats of 8 collective ``ROW_MODE`` strip transfers."""
        nbytes = rows * cols * 8
        tb = cg.spec.dma.transaction_bytes
        cg.dma.stats.tally(
            DMAMode.ROW, direction, nbytes, nbytes // tb, transfers=GRID
        )


class PEMapping(DataThreadMapping):
    """Sec III-A: thread (u, v) owns thread-level block (u, v)."""

    name = "PE_MODE"

    def load_a(self, cg, handle, blk_i, blk_l, buf=BUF_A):
        p = self.params
        for coord in cg.mesh.coords():
            cg.dma.pe_get(
                handle,
                blk_i * p.b_m + coord.row * p.p_m,
                blk_l * p.b_k + coord.col * p.p_k,
                p.p_m,
                p.p_k,
                cg.cpe(coord).ldm.get(buf),
            )

    def load_b(self, cg, handle, blk_l, blk_j, buf=BUF_B):
        p = self.params
        for coord in cg.mesh.coords():
            cg.dma.pe_get(
                handle,
                blk_l * p.b_k + coord.row * p.p_k,
                blk_j * p.b_n + coord.col * p.p_n,
                p.p_k,
                p.p_n,
                cg.cpe(coord).ldm.get(buf),
            )

    def load_c(self, cg, handle, blk_i, blk_j, buf=BUF_C):
        p = self.params
        for coord in cg.mesh.coords():
            cg.dma.pe_get(
                handle,
                blk_i * p.b_m + coord.row * p.p_m,
                blk_j * p.b_n + coord.col * p.p_n,
                p.p_m,
                p.p_n,
                cg.cpe(coord).ldm.get(buf),
            )

    def store_c(self, cg, handle, blk_i, blk_j, buf=BUF_C):
        p = self.params
        for coord in cg.mesh.coords():
            cg.dma.pe_put(
                handle,
                blk_i * p.b_m + coord.row * p.p_m,
                blk_j * p.b_n + coord.col * p.p_n,
                p.p_m,
                p.p_n,
                cg.cpe(coord).ldm.get(buf),
            )

    # -- stacked transfers ----------------------------------------------
    #
    # Thread (u, v) owns tile (u, v) of the block, so a whole block
    # load is one 4-D axis-split of the memory region (a pure view)
    # assigned into the stack in a single vectorized copy:
    # ``stack[u*8+v] = region[u*rows:(u+1)*rows, v*cols:(v+1)*cols]``.
    # The PE permutation (0, 2, 1, 3) is its own inverse, so gather and
    # scatter share one recipe verbatim.

    def build_copy_specs(self) -> dict[str, StackCopySpec]:
        p = self.params

        def pe(rows: int, cols: int) -> StackCopySpec:
            return StackCopySpec.build(
                height=rows * GRID,
                width=cols * GRID,
                src_shape=(GRID, rows, GRID, cols),
                axes=(0, 2, 1, 3),
                dst_shape=(GRID, GRID, rows, cols),
            )

        return {
            BUF_A: pe(p.p_m, p.p_k),
            BUF_B: pe(p.p_k, p.p_n),
            BUF_C: pe(p.p_m, p.p_n),
        }

    # every PE_MODE block transfer is 64 per-CPE tile descriptors
    def tally_load_a(self, cg):
        self._tally_pe(cg, DMADirection.GET, self.params.p_m, self.params.p_k)

    def tally_load_b(self, cg):
        self._tally_pe(cg, DMADirection.GET, self.params.p_k, self.params.p_n)

    def tally_load_c(self, cg):
        self._tally_pe(cg, DMADirection.GET, self.params.p_m, self.params.p_n)

    def tally_store_c(self, cg):
        self._tally_pe(cg, DMADirection.PUT, self.params.p_m, self.params.p_n)


class RowMapping(DataThreadMapping):
    """Sec IV-A: ROW_MODE for A and C, remapped PE_MODE for B."""

    name = "mixed ROW/PE"

    def load_a(self, cg, handle, blk_i, blk_l, buf=BUF_A):
        p = self.params
        for strip in range(GRID):
            cg.dma.row_get(
                handle,
                blk_i * p.b_m,
                blk_l * p.b_k + strip * p.p_k,
                p.b_m,
                p.p_k,
                cg.row_ldm_buffers(strip, buf),
            )

    def load_b(self, cg, handle, blk_l, blk_j, buf=BUF_B):
        p = self.params
        for coord in cg.mesh.coords():
            # CPE (i, j) holds k-rows [j*pK, (j+1)*pK) of column strip i
            cg.dma.pe_get(
                handle,
                blk_l * p.b_k + coord.col * p.p_k,
                blk_j * p.b_n + coord.row * p.p_n,
                p.p_k,
                p.p_n,
                cg.cpe(coord).ldm.get(buf),
            )

    def load_c(self, cg, handle, blk_i, blk_j, buf=BUF_C):
        p = self.params
        for strip in range(GRID):
            cg.dma.row_get(
                handle,
                blk_i * p.b_m,
                blk_j * p.b_n + strip * p.p_n,
                p.b_m,
                p.p_n,
                cg.row_ldm_buffers(strip, buf),
            )

    def store_c(self, cg, handle, blk_i, blk_j, buf=BUF_C):
        p = self.params
        for strip in range(GRID):
            cg.dma.row_put(
                handle,
                blk_i * p.b_m,
                blk_j * p.b_n + strip * p.p_n,
                p.b_m,
                p.p_n,
                cg.row_ldm_buffers(strip, buf),
            )

    # -- stacked transfers ----------------------------------------------
    #
    # ROW_MODE's Figure 5 interleave is a pure index permutation: block
    # row ``g*16 + 2j + t`` of column strip ``u`` lands on CPE (u, j) as
    # tile row ``2g + t``.  Splitting the block's row axis into
    # ``(groups, j, t)`` and its column axis into ``(u, cols)`` makes
    # the whole distribution one 5-D transpose between two views —
    # a single vectorized copy for all 8 collective strip transfers.
    # B's remapped PE_MODE layout is the same trick in 4-D.

    def build_copy_specs(self) -> dict[str, StackCopySpec]:
        p = self.params
        groups = p.b_m // 16

        def rowed(cols: int) -> StackCopySpec:
            return StackCopySpec.build(
                height=p.b_m,
                width=cols * GRID,
                src_shape=(groups, GRID, 2, GRID, cols),
                axes=(3, 1, 0, 2, 4),
                dst_shape=(GRID, GRID, groups, 2, cols),
            )

        return {
            BUF_A: rowed(p.p_k),
            # CPE (i, j) holds k-rows [j*pK, (j+1)*pK) of column strip i.
            BUF_B: StackCopySpec.build(
                height=p.b_k,
                width=p.b_n,
                src_shape=(GRID, p.p_k, GRID, p.p_n),
                axes=(2, 0, 1, 3),
                dst_shape=(GRID, GRID, p.p_k, p.p_n),
            ),
            BUF_C: rowed(p.p_n),
        }

    # A and C ride the 8 collective ROW_MODE strips; B stays PE_MODE
    def tally_load_a(self, cg):
        self._tally_row(cg, DMADirection.GET, self.params.b_m, self.params.p_k)

    def tally_load_b(self, cg):
        self._tally_pe(cg, DMADirection.GET, self.params.p_k, self.params.p_n)

    def tally_load_c(self, cg):
        self._tally_row(cg, DMADirection.GET, self.params.b_m, self.params.p_n)

    def tally_store_c(self, cg):
        self._tally_row(cg, DMADirection.PUT, self.params.b_m, self.params.p_n)
