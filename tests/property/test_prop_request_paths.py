"""Property: one request, one answer, whichever entry point it takes.

With the engine and the blocking fixed, a GEMM sent through
``Session.dgemm``, ``Session.batch``, ``Session.submit``,
``ReproServer.submit`` or ``dgemm_batch`` resolves to the same kernel
run: the outputs are
bit-identical and the DMA/regcomm traffic is equal.  Served LU follows
the engine it is asked for, so ``Session.submit(LuRequest, options=
SubmitOptions(engine=e))`` reproduces ``blocked_lu(..., engine=e)``
bit for bit.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import GemmRequest, LuRequest, SubmitOptions
from repro.apps.lu import blocked_lu
from repro.core.batch import dgemm_batch
from repro.core.params import BlockingParams
from repro.core.session import Session
from repro.serve import ReproServer

PARAMS = BlockingParams.small(double_buffered=True)

#: bit-identical to ``device``, and fast enough for a property test.
ENGINE = "stepwise"

_DIMS = st.sampled_from([24, 64, 100, 128])


@st.composite
def gemm_requests(draw):
    m, n, k = draw(_DIMS), draw(_DIMS), draw(_DIMS)
    transa = draw(st.sampled_from(["N", "T"]))
    transb = draw(st.sampled_from(["N", "T"]))
    alpha = draw(st.sampled_from([1.0, -0.5]))
    beta = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    a = rng.standard_normal((k, m) if transa == "T" else (m, k))
    b = rng.standard_normal((n, k) if transb == "T" else (k, n))
    c = rng.standard_normal((m, n)) if beta else None
    return GemmRequest(a, b, c, alpha=alpha, beta=beta,
                       transa=transa, transb=transb)


def _traffic(stats):
    return (stats.dma_bytes, stats.dma_transactions, stats.regcomm_bytes)


def _serve(request, pool):
    async def scenario():
        async with ReproServer(params=PARAMS, engine=ENGINE,
                               n_core_groups=pool) as server:
            return await server.submit(request)

    return asyncio.run(scenario())


@settings(max_examples=8, deadline=None)
@given(request=gemm_requests(), pool=st.integers(1, 4))
def test_gemm_equal_through_every_entry_point(request, pool):
    serial = dgemm_batch([request], engine=ENGINE, params=PARAMS)
    runs = {"dgemm_batch": (serial.outputs[0], _traffic(serial))}
    with Session(params=PARAMS, engine=ENGINE, n_core_groups=pool) as s:
        before = s.stats().traffic
        out = s.dgemm(
            request.a, request.b, request.c,
            alpha=request.alpha, beta=request.beta,
            transa=request.transa, transb=request.transb,
        )
        runs["Session.dgemm"] = (out, _traffic(s.stats().traffic.since(before)))
        batch = s.batch([request])
        runs["Session.batch"] = (batch.outputs[0], _traffic(batch.traffic))
        submitted = s.submit(request)
        assert submitted.ok
        runs["Session.submit"] = (submitted.value, _traffic(submitted.traffic))
    served = _serve(request, pool)
    assert served.ok and not served.cache_hit
    runs["ReproServer.submit"] = (served.value, _traffic(served.traffic))
    for path, (out, traffic) in runs.items():
        assert np.array_equal(out, serial.outputs[0]), path
        assert traffic == _traffic(serial), path


@pytest.mark.parametrize("engine", ["device", "stepwise"])
@settings(max_examples=4, deadline=None)
@given(
    n=st.sampled_from([20, 48, 72]),
    panel=st.sampled_from([8, 16, 32]),
    seed=st.integers(0, 2**16),
)
def test_served_lu_follows_the_requested_engine(engine, n, panel, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    direct = blocked_lu(a, panel=panel, params=PARAMS, engine=engine)
    # the session's own engine differs, so only the option can pick it
    with Session(params=PARAMS, engine="vectorized") as s:
        served = s.submit(
            LuRequest(a=a, panel=panel), options=SubmitOptions(engine=engine)
        )
    assert served.ok
    assert np.array_equal(served.value.lu, direct.lu)
    assert np.array_equal(served.value.piv, direct.piv)
    assert served.value.padded_gemm_flops == direct.padded_gemm_flops
