"""A per-node key-value store of versioned records."""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.storage.record import RecordVersion, VersionedRecord


class KVStore:
    """Hash-table of :class:`VersionedRecord`, one instance per storage node.

    Records are created lazily on first touch with ``default_value`` so
    workloads can address an arbitrary keyspace without a load phase; an
    explicit :meth:`load` is provided for experiments that want one.
    """

    def __init__(self, default_value: Any = 0, max_versions: int = 8) -> None:
        self.default_value = default_value
        self.max_versions = max_versions
        self._records: Dict[str, VersionedRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def items(self) -> Iterator[Tuple[str, VersionedRecord]]:
        """Every materialised ``(key, record)``, in creation order."""
        return iter(self._records.items())

    def record(self, key: str) -> VersionedRecord:
        """Fetch (or lazily create) the record for ``key``."""
        record = self._records.get(key)
        if record is None:
            record = VersionedRecord(key, self.default_value, self.max_versions)
            self._records[key] = record
        return record

    def get(self, key: str) -> RecordVersion:
        """Latest committed version of ``key``."""
        return self.record(key).latest

    def load(self, items: Dict[str, Any]) -> None:
        """Bulk-install initial values (version stays 0: it is initial state)."""
        for key, value in items.items():
            record = VersionedRecord(key, value, self.max_versions)
            self._records[key] = record

    def snapshot(self) -> Dict[str, Any]:
        """Committed value of every materialised record (for test assertions)."""
        return {key: record.latest.value for key, record in self._records.items()}
