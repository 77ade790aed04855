"""The paper's contribution: three-level blocked DGEMM on one CG.

- :mod:`repro.core.params` — blocking parameters and the hardware
  constraints they must satisfy (LDM capacity, DMA granularity,
  register budget);
- :mod:`repro.core.model` — the closed-form bandwidth/blocking model of
  Sec III-C;
- :mod:`repro.core.mapping` — the two data-thread mappings: the
  instinctive PE_MODE mapping of Sec III-A and the interleaved
  mixed-mode mapping of Sec IV-A (Figure 5);
- :mod:`repro.core.sharing` — the collective data-sharing roles of
  Sec III-B (Figure 3) executed over the register-communication mesh;
- :mod:`repro.core.kernel_functional` — the register-tile multiply,
  both a lane-accurate register-file version and the vectorised one
  the variants use;
- :mod:`repro.core.variants` — RAW / PE / ROW / DB / SCHED;
- :mod:`repro.core.engine` — the two execution engines: the checked
  per-CPE ``device`` path and the mesh-wide ``vectorized`` path
  (stacked tiles, batched matmuls, identical accounting);
- :mod:`repro.core.context` — scoped staging of operands in CG main
  memory (unique handles, free-on-exit, staging-plan cache);
- :mod:`repro.core.api` — the public ``dgemm`` entry point;
- :mod:`repro.core.session` — the :class:`Session` facade that owns a
  device, a warm staging context, and a multi-CG batch pool — the
  documented entry point for callers who don't want to plumb devices;
- :mod:`repro.core.reference` — the numpy reference.
"""

from repro.core.params import BlockingParams
from repro.core.model import (
    bandwidth_reduction,
    required_bandwidth,
    min_block_n,
    ldm_doubles,
    register_budget,
    register_bandwidth_reduction,
    optimal_register_tile,
)
from repro.core.reference import reference_dgemm
from repro.core.context import ContextStats, ExecutionContext
from repro.core.api import dgemm
from repro.core.engine import ENGINES, get_engine
from repro.core.variants import VARIANTS, get_variant
from repro.core.batch import BatchResult, dgemm_batch, validate_items

# imported last: Session pulls in repro.multi, which imports the
# submodules above — reordering this import recreates the cycle.
from repro.core.session import Session, SessionStats

__all__ = [
    "ContextStats",
    "ExecutionContext",
    "Session",
    "SessionStats",
    "BatchResult",
    "dgemm_batch",
    "validate_items",
    "BlockingParams",
    "bandwidth_reduction",
    "required_bandwidth",
    "min_block_n",
    "ldm_doubles",
    "register_budget",
    "register_bandwidth_reduction",
    "optimal_register_tile",
    "reference_dgemm",
    "dgemm",
    "VARIANTS",
    "get_variant",
    "ENGINES",
    "get_engine",
]
