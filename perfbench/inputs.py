"""Seeded inputs for the benchmark's workloads, and the output checks.

The shape lists are fixed; the seed draws operand values (and, for
``serve_mixed``, the whole ``LoadGenerator`` stream).  Fixing the
shapes keeps the modeled figures (``modeled_gflops``,
``scheduler.padding_overhead``) identical from seed to seed, so a
change in them is a change in the model, never in the draw.
"""

from __future__ import annotations

import numpy as np

from repro.api import ConvRequest, GemmRequest, LuRequest
from repro.apps.conv import conv2d_reference
from repro.apps.lu import lu_residual
from repro.serve.client import LoadGenerator

#: the fused engine's contract against NumPy (library tolerance).
RTOL, ATOL = 1e-12, 1e-9
#: HPL's acceptance bound on the scaled LU residual.
LU_RESIDUAL_LIMIT = 16.0

#: every dimension a multiple of the default SCHED blocking
#: (b_m, b_n, b_k) = (128, 256, 768): no padding at all.
ALIGNED_SHAPES = (
    (256, 512, 768), (512, 256, 1536), (384, 256, 768), (128, 512, 1536),
    (512, 512, 768), (256, 256, 1536), (384, 512, 768), (128, 256, 768),
)

#: 20 shapes off the blocking grid, 64x256x640 .. 512x192x704; padded
#: to the default blocking they cost 2.30x their useful flops.
RAGGED_SHAPES = (
    (64, 256, 640), (64, 288, 576), (192, 192, 576), (160, 224, 768),
    (288, 288, 640), (192, 288, 768), (480, 288, 512), (320, 224, 576),
    (160, 288, 704), (160, 224, 704), (96, 256, 640), (512, 256, 576),
    (480, 288, 576), (320, 288, 576), (160, 192, 512), (288, 192, 640),
    (224, 192, 576), (64, 192, 640), (64, 256, 576), (512, 192, 704),
)


#: one slot in this many of the serve_mixed stream is an LU (the
#: LoadGenerator's own ``lu_fraction``).
LU_EVERY = 10


def gemm_batch(shapes, seed: int, *, column_major: bool) -> list[GemmRequest]:
    """One request per shape; every odd item also accumulates into C.

    ``column_major`` operands are the BLAS layout the device stages
    as-is; row-major ones (NumPy's default) cost a transposing copy.
    """
    rng = np.random.default_rng(seed)
    order = "F" if column_major else "C"
    items = []
    for idx, (m, n, k) in enumerate(shapes):
        a = np.asarray(rng.standard_normal((m, k)), order=order)
        b = np.asarray(rng.standard_normal((k, n)), order=order)
        if idx % 2:
            c = rng.standard_normal((m, n))
            items.append(GemmRequest(a=a, b=b, c=c, alpha=1.0, beta=1.0))
        else:
            items.append(GemmRequest(a=a, b=b))
    return items


def serve_stream(seed: int, count: int) -> list:
    """``count`` requests of the seeded ``LoadGenerator`` mix.

    The generator's own LU draws are random in number, and each LU
    holds the single dispatch worker for ~100 ms, so the LU count alone
    would move the latency tail from seed to seed.  Here every
    ``LU_EVERY``-th slot takes the generator's next fresh LU and the
    other slots take its GEMM, conv and repeat requests in order: every
    seed carries the same LU load, and the seed draws everything else.
    """
    gen = LoadGenerator(seed=seed)
    n_lu = count // LU_EVERY
    lus: list = []
    others: list = []
    seen: set[int] = set()
    while len(lus) < n_lu or len(others) < count - n_lu:
        for req in gen.generate(64):
            if not isinstance(req, LuRequest):
                others.append(req)
            elif id(req) not in seen:
                seen.add(id(req))
                lus.append(req)
    lus.reverse()
    others.reverse()
    return [
        lus.pop() if idx % LU_EVERY == LU_EVERY - 1 else others.pop()
        for idx in range(count)
    ]


def numpy_gemm(req: GemmRequest) -> np.ndarray:
    """The bare NumPy floor for one request: ``alpha*a@b + beta*c``."""
    out = req.a @ req.b
    if req.alpha != 1.0:
        out *= req.alpha
    if req.c is not None:
        out += req.beta * req.c
    return out


def gemm_ok(out, expected: np.ndarray) -> bool:
    return (
        out is not None
        and out.shape == expected.shape
        and bool(np.allclose(out, expected, rtol=RTOL, atol=ATOL))
    )


def request_ok(req, value) -> bool:
    """Check one served value against its reference."""
    if value is None:
        return False
    if isinstance(req, LuRequest):
        return lu_residual(req.a, value) < LU_RESIDUAL_LIMIT
    if isinstance(req, ConvRequest):
        expected = conv2d_reference(
            np.asarray(req.images), np.asarray(req.kernels), req.stride
        )
        return value.shape == expected.shape and bool(
            np.allclose(value, expected, rtol=RTOL, atol=ATOL)
        )
    return gemm_ok(value, numpy_gemm(req))


def gemm_flops(req) -> int:
    """Useful (unpadded) flops of a GEMM or lowered conv request."""
    m, n, k = req.validate()
    return 2 * m * n * k
