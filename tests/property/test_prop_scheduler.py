"""Property: pool dispatch never changes the numbers.

The CGScheduler may route items anywhere and in any grouping, but
every item runs the same single-CG kernel on identical operands — so
the outputs must be *bit-identical* to the serial ``dgemm_batch`` run,
for any mix of shapes, trans flags and alpha/beta.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest
from repro.core.batch import dgemm_batch
from repro.core.params import BlockingParams
from repro.multi import CGScheduler

PARAMS = BlockingParams.small(double_buffered=True)

_DIMS = st.sampled_from([24, 64, 100, 128])


@st.composite
def batch_items(draw):
    m = draw(_DIMS)
    n = draw(_DIMS)
    k = draw(_DIMS)
    seed = draw(st.integers(0, 2**16))
    transa = draw(st.sampled_from(["N", "T"]))
    transb = draw(st.sampled_from(["N", "T"]))
    alpha = draw(st.sampled_from([1.0, -0.5, 2.0]))
    beta = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if transa == "T" else (m, k))
    b = rng.standard_normal((n, k) if transb == "T" else (k, n))
    c = rng.standard_normal((m, n)) if beta else None
    return GemmRequest(a, b, c, alpha=alpha, beta=beta,
                       transa=transa, transb=transb)


@settings(max_examples=10, deadline=None)
@given(
    items=st.lists(batch_items(), min_size=1, max_size=6),
    pool=st.integers(1, 4),
)
def test_pool_results_bit_identical_to_serial(items, pool):
    serial = dgemm_batch(items, params=PARAMS)
    result = CGScheduler(n_core_groups=pool, params=PARAMS).run(items)
    assert result.ok
    assert len(result) == len(serial.outputs)
    for x, y in zip(serial.outputs, result.outputs):
        assert np.array_equal(x, y)
    assert result.flops == serial.flops
    assert result.padded_flops == serial.padded_flops
    assert result.makespan_seconds <= result.serial_seconds + 1e-15


@settings(max_examples=6, deadline=None)
@given(
    items=st.lists(batch_items(), min_size=2, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_budgets_restored_for_any_batch(items, seed):
    scheduler = CGScheduler(n_core_groups=4, params=PARAMS)
    proc = scheduler.processor
    baselines = [proc.cg(g).memory.used_bytes for g in range(4)]
    scheduler.run(items)
    assert [proc.cg(g).memory.used_bytes for g in range(4)] == baselines
