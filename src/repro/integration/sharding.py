"""Consistent-hash assignment of registered applications to shards.

:class:`ShardMap` assigns applications to ``n_shards`` shards by *consistent
hashing* (a ring of virtual nodes per shard), so the mapping is
deterministic across processes and runs, roughly balanced, and stable --
growing the shard count relocates only the applications that land on the
new shard's ring points instead of reshuffling everything.

:class:`~repro.integration.recommender_service.RecommendationService`
records each application's shard id at registration and reports it through
``shard_for``.  Nothing in the library decides anything from a shard id:
the shard count changes no decision (pinned against
``benchmarks/service_parity_reference.json`` at 1-4 shards).  The map stays
because checkpoints (format v2) record ``n_shards`` in their digest.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, Iterable, List, Tuple

__all__ = ["ShardMap"]

#: Virtual ring points per shard; more points mean better balance at a
#: small construction cost.
_REPLICAS_PER_SHARD = 64


class ShardMap:
    """Consistent-hash assignment of application names to shards.

    Each shard contributes ``_REPLICAS_PER_SHARD`` virtual points to a hash
    ring; an application belongs to the shard owning the first ring point at
    or after the application's own hash.  MD5 (stable across processes and
    Python versions, unlike the salted builtin ``hash``) keeps the mapping
    deterministic, so a service restored from a checkpoint places a newly
    registered application where the original would have.

    Parameters
    ----------
    n_shards:
        Number of shards (>= 1).
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(_REPLICAS_PER_SHARD):
                points.append((self._hash(f"shard-{shard}:vnode-{replica}"), shard))
        points.sort()
        self._ring_hashes = [point for point, _ in points]
        self._ring_shards = [shard for _, shard in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    # ------------------------------------------------------------------ #
    def shard_for(self, application: str) -> int:
        """The shard owning ``application`` (deterministic)."""
        if self.n_shards == 1:
            return 0
        index = bisect_right(self._ring_hashes, self._hash(str(application)))
        if index == len(self._ring_hashes):  # wrap around the ring
            index = 0
        return self._ring_shards[index]

    def assignments(self, applications: Iterable[str]) -> Dict[int, List[str]]:
        """``{shard_id: [applications...]}`` for every shard (possibly empty)."""
        out: Dict[int, List[str]] = {shard: [] for shard in range(self.n_shards)}
        for application in applications:
            out[self.shard_for(application)].append(application)
        return out

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"ShardMap(n_shards={self.n_shards})"
