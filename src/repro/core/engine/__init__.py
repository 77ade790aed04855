"""Execution engines: three ways to run the same GEMM program.

A :class:`~repro.core.variants.base.GEMMVariant` describes *what* the
cluster does — which mapping distributes blocks, which sharing scheme
exchanges strips, in what order tiles multiply.  An **engine** decides
*how* that program is executed by the simulation:

``device`` (:class:`DeviceEngine`)
    the fidelity path: every per-CPE DMA transfer, register-network
    broadcast and LDM tile is individually executed through the
    :mod:`repro.arch` device model, so buffer discipline, alignment
    and producer/consumer protocols are *checked*, not assumed.

``vectorized`` (:class:`VectorizedEngine`)
    the throughput path: the eight sharing steps of each strip
    multiplication collapse into one BLAS panel product on strided
    views of the operands in main memory — results within the
    library's ``rtol=1e-12`` comparison tolerance of the device path.

``stepwise`` (:class:`StepwiseEngine`)
    the bit-exact fast path: all 64 CPEs' tiles live in one
    ``(64, rows, cols)`` stack, block transfers are strided slice
    copies, each sharing step reads its owner tiles through broadcast
    views, and a step's 64 tile multiplies run as one batched
    ``np.matmul`` — the same arithmetic in the same order, minus the
    Python-loop object machinery.  Every index table comes from a
    cached :class:`~repro.core.engine.plans.IndexPlan`, and results
    match the device engine bit for bit.

Both fast engines book the DMA/register-communication statistics the
device path would have measured analytically, so accounting is
identical across all three.

The engines mutate C in core-group main memory and are
interchangeable behind the ``engine=`` keyword of
:func:`repro.core.api.dgemm`, :func:`repro.core.batch.dgemm_batch`,
:class:`repro.multi.scheduler.CGScheduler` and
:class:`repro.core.session.Session`.  ``device`` is the default for
fidelity experiments; :meth:`Session.batch` defaults to ``vectorized``
because a served batch stream wants throughput, not protocol checking.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.core.engine.base import Engine
from repro.core.engine.device import DeviceEngine
from repro.core.engine.plans import (
    IndexPlan,
    PlanCache,
    PlanCacheStats,
    PlanSignature,
    default_plan_cache,
)
from repro.core.engine.vectorized import StepwiseEngine, VectorizedEngine

__all__ = [
    "Engine",
    "DeviceEngine",
    "VectorizedEngine",
    "StepwiseEngine",
    "IndexPlan",
    "PlanCache",
    "PlanCacheStats",
    "PlanSignature",
    "default_plan_cache",
    "ENGINES",
    "engine_name",
    "get_engine",
]

#: registry, keyed by the ``engine=`` keyword values.
ENGINES: dict[str, type[Engine]] = {
    "device": DeviceEngine,
    "vectorized": VectorizedEngine,
    "stepwise": StepwiseEngine,
}


def engine_name(name: str) -> str:
    """Normalize an ``engine=`` name, rejecting names not in :data:`ENGINES`.

    Every entry point that takes an engine by name checks it here, so
    an unknown name fails before anything executes.
    """
    key = str(name).lower()
    if key not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}; choose from {sorted(ENGINES)}"
        )
    return key


def get_engine(name: "str | Engine") -> Engine:
    """Resolve an ``engine=`` keyword (name or instance) to an engine."""
    if isinstance(name, Engine):
        return name
    return ENGINES[engine_name(name)]()
