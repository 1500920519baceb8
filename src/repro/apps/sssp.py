"""Dijkstra single-source shortest paths on the batched PQ (extension).

SSSP is the workload the other GPU priority-queue efforts target
(Crosetto's CUPQ [7], Iacono et al. [15]); the paper cites it as
motivation, so the reproduction includes it as an extension: a
sequential reference and a batched delta-relaxation variant driving
:class:`~repro.core.native.NativeBGPQ`.

Graphs are CSR arrays (optionally built from a networkx graph).  The
batched variant pops up to k tentative (dist, vertex) pairs per
DELETEMIN, relaxes all their out-edges in one vectorised pass, and
pushes improved tentative distances in batches — lazy deletion handles
the stale entries, as in the A* engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.native import NativeBGPQ
from ..device.kernels import GpuContext

__all__ = ["CSRGraph", "random_graph", "from_networkx", "sssp_sequential", "sssp_batched"]

UNREACHED = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CSRGraph:
    """Directed weighted graph in compressed-sparse-row form."""

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def n_edges(self) -> int:
        return int(self.indices.size)

    def out_edges(self, v: int):
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.indices[lo:hi], self.weights[lo:hi]


def random_graph(n: int, avg_degree: float = 8.0, max_weight: int = 100, seed: int = 0) -> CSRGraph:
    """Uniform random directed graph with integer weights."""
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.integers(1, max_weight + 1, size=m)
    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.searchsorted(src, np.arange(n + 1))
    return CSRGraph(indptr.astype(np.int64), dst.astype(np.int64), w.astype(np.int64))


def from_networkx(g, weight: str = "weight") -> CSRGraph:
    """Build a CSRGraph from a networkx (Di)Graph."""
    import networkx as nx

    nodes = sorted(g.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    rows = []
    for u in nodes:
        for _, v, data in g.edges(u, data=True):
            rows.append((index[u], index[v], int(data.get(weight, 1))))
    rows.sort()
    if rows:
        src, dst, w = (np.array(col, dtype=np.int64) for col in zip(*rows))
    else:
        src = dst = w = np.empty(0, dtype=np.int64)
    indptr = np.searchsorted(src, np.arange(len(nodes) + 1)).astype(np.int64)
    return CSRGraph(indptr, dst, w)


def sssp_sequential(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Textbook lazy-deletion Dijkstra; returns the distance array."""
    import heapq

    dist = np.full(graph.n_vertices, UNREACHED, dtype=np.int64)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        nbrs, ws = graph.out_edges(v)
        for u, w in zip(nbrs.tolist(), ws.tolist()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def sssp_batched(
    graph: CSRGraph,
    source: int = 0,
    ctx: GpuContext | None = None,
    batch: int = 1024,
) -> tuple[np.ndarray, float]:
    """Batched Dijkstra on NativeBGPQ; returns (distances, sim_time_ns).

    Because a batch may settle vertices out of strict distance order,
    a vertex can be relaxed more than once (delta-stepping-style
    wasted work); lazy deletion keeps the result exact.
    """
    ctx = ctx if ctx is not None else GpuContext.default()
    model = ctx.model
    dist = np.full(graph.n_vertices, UNREACHED, dtype=np.int64)
    dist[source] = 0
    pq = NativeBGPQ(node_capacity=batch, ctx=ctx, payload_width=1)
    pq.insert(np.array([0]), payload=np.array([[source]]))
    kernel_ns = 0.0
    while pq:
        keys, payload = pq.deletemin(batch)
        vs = payload[:, 0]
        fresh = keys <= dist[vs]
        vs, ds = vs[fresh], keys[fresh]
        if vs.size == 0:
            continue
        # vectorised edge expansion over the whole settled batch
        starts, ends = graph.indptr[vs], graph.indptr[vs + 1]
        counts = ends - starts
        if counts.sum() == 0:
            continue
        edge_idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
        parents = np.repeat(np.arange(vs.size), counts)
        nd = ds[parents] + graph.weights[edge_idx]
        targets = graph.indices[edge_idx]
        order = np.lexsort((nd, targets))
        targets, nd = targets[order], nd[order]
        first = np.ones(targets.size, dtype=bool)
        first[1:] = targets[1:] != targets[:-1]
        targets, nd = targets[first], nd[first]
        improved = nd < dist[targets]
        targets, nd = targets[improved], nd[improved]
        dist[targets] = nd
        n_edges = int(edge_idx.size)
        kernel_ns += (
            model.shared_pass_ns(n_edges)
            + model.bitonic_sort_ns(min(n_edges, 2 * batch))
            + model.global_read_ns(2 * n_edges)
            + model.global_write_ns(max(1, int(targets.size)))
        )
        pq.insert_bulk(nd, payload=targets.reshape(-1, 1))
    return dist, pq.sim_time_ns + kernel_ns
