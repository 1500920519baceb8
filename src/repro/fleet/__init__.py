"""Sharded BGPQ fleet: multi-queue router + relaxed global deletemin.

Scaling *around* the root lock instead of through it: N independent
NativeBGPQ shards (each with its own partial buffer and arena) behind
a placement router with four policies (hash, spray, and the
load-aware shortest/d-choice).  Inserts are shard-local; the
global ``delete_min`` is k-relaxed — a spray probe over shard minima
plus a steal-from-fullest fallback — and
:func:`repro.core.check_k_relaxed` verifies the relaxation bound on
every run.  The fleet is elastic: an
:class:`~repro.fleet.elastic.ElasticController` grows, shrinks, and
rebalances the shard set from the ``shard.imbalance`` gauge at the
request driver's safe points.  ``repro bench shard`` and ``repro bench
frontier`` gate the fleet's simulated throughput and ordering quality
against the committed ``BENCH_shard.json`` / ``BENCH_frontier.json``
baselines; ``docs/FLEET.md`` is the operator guide.
"""

from .driver import FleetOpRecord, FleetRunResult, KeyBatch, mixed_scripts, run_fleet
from .elastic import ElasticController
from .router import LOAD_AWARE_POLICIES, POLICIES, Router
from .sharded import OpTicket, ReshardTicket, ShardedBGPQ

__all__ = [
    "Router",
    "POLICIES",
    "LOAD_AWARE_POLICIES",
    "ShardedBGPQ",
    "OpTicket",
    "ReshardTicket",
    "ElasticController",
    "FleetOpRecord",
    "FleetRunResult",
    "KeyBatch",
    "run_fleet",
    "mixed_scripts",
]
