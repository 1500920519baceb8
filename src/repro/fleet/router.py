"""Placement and probe policies for the sharded BGPQ fleet.

The router answers two questions, both without touching any shard's
root lock:

* **Where does an insert batch go?**  Four policies, two blind and two
  load-aware:

  - ``policy="hash"`` splits the batch by a per-key multiplicative
    hash (splitmix64's finalizer constant), spreading the *key space*
    uniformly over shards so every shard's minimum tracks the global
    distribution — the property the relaxed delete side relies on.
    Blind to load: a skewed key distribution (many duplicates of a few
    hot keys) lands every copy of a hot key on the same shard.
  - ``policy="spray"`` sends the whole batch to one uniformly random
    shard, preserving batch locality (one shard heapify per batch
    instead of N partial ones) at the price of coarser balance.
  - ``policy="shortest"`` is join-shortest-simulated-queue: the whole
    batch goes to the shard with the smallest *load* — the lexical
    minimum of ``(simulated clock, pending + stored keys, index)``
    as supplied by the fleet.  Clocks dominate in steady state; the
    backlog term breaks cold-start ties so simultaneous dispatches do
    not herd onto one shard.  Deterministic: no RNG is consulted.
  - ``policy="d-choice"`` is power-of-d-choices: sample ``spray_width``
    distinct shards uniformly (same RNG as the probe) and send the
    batch to the least loaded of that sample — near-``shortest``
    balance while only comparing d loads, and with spray's seeded
    randomness keeping placement history diverse.

* **Which shards does a relaxed delete_min look at?**  A *spray probe*:
  ``spray_width`` distinct shards chosen uniformly at random (SprayList
  transplanted to the shard dimension — instead of spraying down a
  skip list, we spray across shard minima).  The fleet peeks those
  shards' root minima and services the delete on the best one; when
  every probed shard is empty it falls back to stealing from the
  fullest shard, PIPQ's delete-steal split.

All randomness comes from one seeded :class:`random.Random`, so a
fleet run is a pure function of (seed, workload) — which is what makes
the shard bench's simulated-throughput ratios committable as a CI
baseline.  :meth:`Router.resize` supports the elastic fleet
(:mod:`repro.fleet.elastic`): it re-targets the policy at a new shard
count while keeping the RNG stream intact, so an elastic run is still
a pure function of (seed, workload, controller config).
"""

from __future__ import annotations

import random

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Router", "POLICIES", "LOAD_AWARE_POLICIES"]

POLICIES = ("hash", "spray", "shortest", "d-choice")

#: policies whose :meth:`Router.place` needs the fleet's per-shard
#: ``loads`` snapshot (the blind policies ignore it)
LOAD_AWARE_POLICIES = ("shortest", "d-choice")

#: splitmix64 finalizer multiplier — odd, so the map is a bijection on
#: the 64-bit ring; the xor-shift folds high entropy into the low bits
#: the modulo reads
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(32)


def _hash_shards(keys: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorised per-key shard assignment (stable across runs)."""
    h = keys.astype(np.uint64) * _HASH_MULT
    h ^= h >> _HASH_SHIFT
    return (h % np.uint64(n_shards)).astype(np.intp)


class Router:
    """Deterministic placement + probe-set policy for N shards.

    Parameters
    ----------
    n_shards:
        Current fleet width; changed in place by :meth:`resize` when
        the elastic controller grows or shrinks the fleet.
    policy:
        One of :data:`POLICIES` — see the module docstring for the
        placement matrix.
    spray_width:
        Probe-set size for relaxed deletes, and the ``d`` of
        ``d-choice`` placement.  Clamped to ``n_shards``; the requested
        width is remembered so a grown fleet re-expands it.
    seed:
        Seeds the single :class:`random.Random` behind spray placement,
        d-choice sampling, and probe sets.
    """

    def __init__(
        self,
        n_shards: int,
        policy: str = "hash",
        spray_width: int = 2,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ConfigurationError("fleet needs at least one shard")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {policy!r}; choose one of {POLICIES}"
            )
        if spray_width < 1:
            raise ConfigurationError("spray width must be >= 1")
        self.n_shards = n_shards
        self.policy = policy
        self._want_width = spray_width
        self.spray_width = min(spray_width, n_shards)
        self._rng = random.Random(seed ^ 0xF1EE7)
        #: shards the most recent load-aware placement compared
        #: (empty for hash/spray) — read by the fleet's ``shard.place``
        #: obs emission right after :meth:`place` returns
        self.last_candidates: tuple[int, ...] = ()

    # -- elasticity ---------------------------------------------------------
    def resize(self, n_shards: int) -> None:
        """Re-target the router at a grown/shrunk fleet.

        Keeps the RNG stream (determinism is preserved as a pure
        function of the call sequence) and re-derives ``spray_width``
        from the originally requested width, so a fleet that shrank to
        one shard and grew back probes at full width again.
        """
        if n_shards < 1:
            raise ConfigurationError("fleet needs at least one shard")
        self.n_shards = n_shards
        self.spray_width = min(self._want_width, n_shards)

    # -- insert placement ---------------------------------------------------
    def place(
        self, keys: np.ndarray, loads: list | None = None
    ) -> list[tuple[int, np.ndarray]]:
        """Split an insert batch into per-shard sub-batches.

        Returns ``[(shard, sub_keys), ...]`` with empty shards omitted;
        sub-batches preserve the incoming key order (the queues sort
        internally anyway).  ``loads`` is the fleet's per-shard load
        snapshot (any per-shard sequence ordered so that smaller
        compares as less loaded — the fleet supplies
        ``(clock, backlog)`` tuples); required by the load-aware
        policies, ignored by ``hash``/``spray``.
        """
        self.last_candidates = ()
        if keys.size == 0:
            return []
        if self.n_shards == 1:
            return [(0, keys)]
        if self.policy == "spray":
            return [(self._rng.randrange(self.n_shards), keys)]
        if self.policy in LOAD_AWARE_POLICIES:
            return [(self._place_loaded(loads), keys)]
        shards = _hash_shards(keys, self.n_shards)
        return [
            (s, keys[shards == s])
            for s in range(self.n_shards)
            if np.any(shards == s)
        ]

    def _place_loaded(self, loads: list | None) -> int:
        """Least-loaded shard over all (shortest) or d sampled (d-choice)."""
        if loads is None:
            raise ConfigurationError(
                f"policy {self.policy!r} needs the fleet's per-shard loads"
            )
        if self.policy == "shortest" or self.spray_width >= self.n_shards:
            candidates = tuple(range(self.n_shards))
        else:  # d-choice: sample d = spray_width distinct shards
            candidates = tuple(self._sample(self.n_shards, self.spray_width))
        self.last_candidates = candidates
        # lexical minimum of (load, index): equal loads go to the lower index
        best = candidates[0]
        best_load = loads[best]
        for i in candidates[1:]:
            load = loads[i]
            if load < best_load or (load == best_load and i < best):
                best, best_load = i, load
        return best

    # -- delete probe -------------------------------------------------------
    def probe_set(self) -> tuple[int, ...]:
        """``spray_width`` distinct shards to peek for a relaxed delete."""
        if self.spray_width >= self.n_shards:
            return tuple(range(self.n_shards))
        return tuple(self._sample(self.n_shards, self.spray_width))

    def _sample(self, n: int, d: int) -> list[int]:
        """``self._rng.sample(range(n), d)``, draw for draw.

        ``random.sample`` spends most of a small call on its
        ``Sequence`` check.  For a population of at most 21 and at most
        5 draws it takes its pool path, replayed here with the same
        ``_randbelow`` calls, so the RNG stream is unchanged; larger
        calls go to ``sample`` itself.
        """
        if n > 21 or d > 5:
            return self._rng.sample(range(n), d)
        randbelow = self._rng._randbelow
        pool = list(range(n))
        out = []
        for i in range(d):
            j = randbelow(n - i)
            out.append(pool[j])
            pool[j] = pool[n - i - 1]
        return out
