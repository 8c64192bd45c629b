"""Platform-side bookkeeping: application registry and run-history store."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog
from repro.utils.numeric import ordered_sum
from repro.workloads.base import RunRecord, records_to_frame

__all__ = ["ApplicationInfo", "ApplicationRegistry", "RunHistoryStore"]


@dataclass(frozen=True)
class ApplicationInfo:
    """Metadata describing one registered application.

    Attributes
    ----------
    name:
        Unique application name (e.g. ``"burnpro3d"``).
    owner:
        The registering user or project.
    feature_names:
        Workflow features the application reports with every submission; these
        become BanditWare's context vector.
    description:
        Free-form description shown in the catalog.
    """

    name: str
    owner: str
    feature_names: tuple
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("application name must be non-empty")
        if not self.feature_names:
            raise ValueError(f"application {self.name!r} must declare at least one feature")


class ApplicationRegistry:
    """Registry of applications known to the platform."""

    def __init__(self) -> None:
        self._applications: Dict[str, ApplicationInfo] = {}

    def register(
        self,
        name: str,
        owner: str,
        feature_names: Sequence[str],
        description: str = "",
    ) -> ApplicationInfo:
        """Register a new application; raises if the name is already taken."""
        if name in self._applications:
            raise ValueError(f"application {name!r} is already registered")
        info = ApplicationInfo(
            name=name,
            owner=owner,
            feature_names=tuple(str(f) for f in feature_names),
            description=description,
        )
        self._applications[name] = info
        return info

    def get(self, name: str) -> ApplicationInfo:
        if name not in self._applications:
            raise KeyError(
                f"application {name!r} is not registered; known: {sorted(self._applications)}"
            )
        return self._applications[name]

    def __contains__(self, name: str) -> bool:
        return name in self._applications

    def __len__(self) -> int:
        return len(self._applications)


class RunHistoryStore:
    """Append-only store of completed runs, queryable per application."""

    def __init__(self) -> None:
        self._records: List[RunRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: RunRecord) -> None:
        """Append one completed run."""
        self._records.append(record)

    def extend(self, records: Sequence[RunRecord]) -> None:
        """Append many completed runs."""
        for record in records:
            self.add(record)

    def records_for(self, application: str) -> List[RunRecord]:
        """All runs of one application, in insertion order."""
        return [r for r in self._records if r.application == application]

    def frame_for(self, application: str) -> DataFrame:
        """Run history of one application as a :class:`DataFrame`."""
        return records_to_frame(self.records_for(application))

    def total_runtime(self, application: Optional[str] = None) -> float:
        """Total observed runtime (seconds), optionally restricted to one application."""
        records = self._records if application is None else self.records_for(application)
        return float(ordered_sum(r.runtime_seconds for r in records))

    def hardware_usage(self, application: Optional[str] = None) -> Dict[str, int]:
        """Run counts per hardware configuration."""
        records = self._records if application is None else self.records_for(application)
        counts: Dict[str, int] = {}
        for record in records:
            counts[record.hardware] = counts.get(record.hardware, 0) + 1
        return counts
