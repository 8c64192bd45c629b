"""Shared utilities for the BanditWare reproduction.

The :mod:`repro.utils` package groups small cross-cutting helpers used by
every other subsystem:

* :mod:`repro.utils.rng` -- deterministic random-number-generator plumbing.
  Every stochastic component in the library (workload generators, bandit
  policies, simulation replications) accepts either an integer seed or a
  :class:`numpy.random.Generator` and funnels it through
  :func:`repro.utils.rng.as_generator` so experiments are reproducible.
* :mod:`repro.utils.validation` -- argument-checking helpers that raise
  consistent, descriptive errors.
* :mod:`repro.utils.logging` -- a tiny structured logger used by the cluster
  simulator and the recommendation service.
"""

from repro.utils.rng import SeedSequencePool, as_generator
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
    check_feature_matrix,
)
from repro.utils.logging import EventLog, LogRecord, NullLog

__all__ = [
    "SeedSequencePool",
    "as_generator",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_feature_matrix",
    "EventLog",
    "LogRecord",
    "NullLog",
]
