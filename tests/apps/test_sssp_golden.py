"""Golden ``sssp_batched`` results, pinned on every kernel backend.

Each case pins the distance array (as a SHA-256 prefix of its int64
bytes) and the simulated time (as ``float.hex``, so to the last bit).
A change to the SSSP glue (the edge gather, the dedupe, the relax pass)
that only changes wall-clock time must leave both exactly as they are.

Cases: ``random_graph`` seeds at the default ``batch=1024`` and at 16
and 64, where one relaxed frontier spans several ``insert_bulk``
slices.
"""

import hashlib

import pytest

from repro.apps.sssp import random_graph, sssp_batched
from repro.primitives import kernels

#: (n_vertices, seed, batch) -> (sha256(dist)[:16], sim_time_ns.hex())
GOLDEN = {
    (200, 0, 1024): ("b2420cee0632a523", "0x1.5d4d30ec73c4ep+16"),
    (1000, 1, 1024): ("82ce3b1dfe47f993", "0x1.178d105cb13e2p+17"),
    (3000, 2, 1024): ("7aca327622a4b192", "0x1.0ffa988d59dcap+18"),
    (1000, 3, 16): ("07bfb6a195f09f7f", "0x1.1ab85a6b2b653p+21"),
    (3000, 4, 64): ("e485938405242f2d", "0x1.f590a0093ffdap+20"),
}


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("n,seed,batch", sorted(GOLDEN))
def test_random_graph_matches_golden(n, seed, batch, backend):
    graph = random_graph(n, seed=seed)
    with kernels.use(backend):
        dist, sim_ns = sssp_batched(graph, batch=batch)
    digest = hashlib.sha256(dist.tobytes()).hexdigest()[:16]
    assert (digest, sim_ns.hex()) == GOLDEN[n, seed, batch]
