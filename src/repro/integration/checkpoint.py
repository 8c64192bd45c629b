"""Versioned whole-service checkpoints with bit-identical restore.

A serving deployment must survive process restarts without losing learned
state: the per-arm model matrices, the exploration policy's RNG position,
the ticket table (including still-pending tickets), and the run-history
ledger.  :func:`checkpoint_service` captures all of it into a
:class:`ServiceCheckpoint`; :func:`restore_service` rebuilds a
:class:`~repro.integration.recommender_service.RecommendationService` that
continues **bit-identically** -- the restored service produces the same
recommendations, observations and ticket ids as the original would have
(pinned by ``tests/test_service_checkpoint.py``).

Format (version 2)
------------------
A checkpoint is a pickled :class:`ServiceCheckpoint` with explicit fields:

* ``version`` -- format version; :meth:`ServiceCheckpoint.verify` refuses
  any other version (version-1 files included) before the payload is
  unpickled.
* ``n_shards`` -- shard-map geometry (the consistent-hash ring is rebuilt
  deterministically from it).
* ``next_ticket`` -- the deterministic ticket counter.
* ``payload`` -- one pickle of the whole service state: hardware catalog,
  application registry, run-history ledger, default tolerance, service
  seed, the per-application records (recommender with its model matrices,
  policy/exploration state and reward config; priority; shard id) and the
  ticket table in global submission order.  One pickle keeps an object the
  service shares between applications -- a ``numpy.random.Generator`` seed
  -- shared after the restore.
* ``digest`` -- SHA-256 over the version, ``n_shards``, ``next_ticket`` and
  the payload; :meth:`ServiceCheckpoint.verify` rejects corrupted or
  truncated files.

Event logs are deliberately **not** checkpointed -- they are transient
observability state; pass a fresh ``log`` to :func:`restore_service`.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.utils.logging import EventLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.integration.recommender_service import RecommendationService

__all__ = [
    "CHECKPOINT_VERSION",
    "ServiceCheckpoint",
    "checkpoint_service",
    "restore_service",
]

#: Current checkpoint format version.
CHECKPOINT_VERSION = 2

_PICKLE_PROTOCOL = 4


def _digest(version: int, n_shards: int, next_ticket: int, payload: bytes) -> str:
    hasher = hashlib.sha256()
    hasher.update(f"service-checkpoint-v{version}:{n_shards}:{next_ticket}".encode("utf-8"))
    hasher.update(payload)
    return hasher.hexdigest()


@dataclass
class ServiceCheckpoint:
    """One captured service state; see the module docstring for the format."""

    version: int
    n_shards: int
    next_ticket: int
    payload: bytes
    digest: str = ""

    def verify(self) -> None:
        """Raise ``ValueError`` on version mismatch or payload corruption."""
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {self.version}; this build "
                f"reads version {CHECKPOINT_VERSION}"
            )
        expected = _digest(self.version, self.n_shards, self.next_ticket, self.payload)
        if self.digest != expected:
            raise ValueError(
                "checkpoint integrity check failed: payload digest "
                f"{expected[:12]}... does not match recorded {self.digest[:12]}..."
            )

    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Write the checkpoint to ``path`` (atomic via a temp file)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(pickle.dumps(self, protocol=_PICKLE_PROTOCOL))
        tmp.replace(path)

    @classmethod
    def load(cls, path) -> "ServiceCheckpoint":
        """Read and :meth:`verify` a checkpoint from ``path``."""
        try:
            data = pickle.loads(Path(path).read_bytes())
        except Exception as exc:
            raise ValueError(f"{path} does not contain a service checkpoint") from exc
        if not isinstance(data, cls):
            raise ValueError(f"{path} does not contain a service checkpoint")
        data.verify()
        return data


def checkpoint_service(service: "RecommendationService") -> ServiceCheckpoint:
    """Capture ``service`` into a verified :class:`ServiceCheckpoint`."""
    payload = pickle.dumps(
        {
            "catalog": service.catalog,
            "registry": service.registry,
            "history": service.history,
            "tolerance": service.tolerance,
            "seed": service._seed,
            "applications": service._applications,
            "tickets": service._tickets,
        },
        protocol=_PICKLE_PROTOCOL,
    )
    n_shards, next_ticket = service.n_shards, service._next_ticket
    return ServiceCheckpoint(
        version=CHECKPOINT_VERSION,
        n_shards=n_shards,
        next_ticket=next_ticket,
        payload=payload,
        digest=_digest(CHECKPOINT_VERSION, n_shards, next_ticket, payload),
    )


def restore_service(
    checkpoint: ServiceCheckpoint, log: Optional[EventLog] = None
) -> "RecommendationService":
    """Rebuild a service from ``checkpoint``; continues bit-identically.

    ``log`` attaches a fresh event log to the restored service (logs are not
    part of the checkpointed state).
    """
    from repro.integration.recommender_service import RecommendationService

    checkpoint.verify()
    state = pickle.loads(checkpoint.payload)
    service = RecommendationService(
        catalog=state["catalog"],
        history=state["history"],
        tolerance=state["tolerance"],
        seed=state["seed"],
        log=log,
        n_shards=checkpoint.n_shards,
    )
    service.registry = state["registry"]
    service._applications = state["applications"]
    service._tickets = state["tickets"]
    service._next_ticket = int(checkpoint.next_ticket)
    return service
