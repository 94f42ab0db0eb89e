"""Write-ahead log with a simulated sync delay and optional group commit.

Replica handlers must not acknowledge protocol writes (accepted options,
prepared 2PC records) before they are durable.  Durability is modelled as a
``sync_delay_ms`` per forced flush; entries are retained so tests can audit
exactly what was forced when.

**Group commit** (``batch_window_ms > 0``): instead of forcing each append
individually, the log opens a batch on the first append and flushes it
``batch_window_ms`` later; every append landing in the window becomes
durable at the same flush instant and shares one sync.  This is the classic
throughput-vs-latency trade for log-bound storage: the A4 ablation measures
the sync-count reduction against the added per-write latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.obs.events import NULL_TRACER, Tracer
from repro.obs.metrics import NULL_METRICS, MetricsRegistry


@dataclass(frozen=True)
class WalEntry:
    lsn: int
    kind: str
    txid: str
    payload: Any
    appended_at: float
    durable_at: float


class WriteAheadLog:
    """An append-only log; ``append`` returns the delay until the entry is
    durable, which the caller adds before sending its acknowledgement."""

    def __init__(
        self,
        sync_delay_ms: float = 0.5,
        batch_window_ms: float = 0.0,
        tracer: Optional[Tracer] = None,
        label: str = "wal",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if sync_delay_ms < 0:
            raise ValueError("sync_delay_ms must be >= 0")
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        self.sync_delay_ms = sync_delay_ms
        self.batch_window_ms = batch_window_ms
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.label = label
        self.entries: List[WalEntry] = []
        self.sync_count = 0
        self._batch_flush_at: float = -1.0  # durable instant of the open batch

    def append(self, kind: str, txid: str, payload: Any, now: float) -> float:
        """Append an entry and return the time until it is durable (ms)."""
        metrics = self.metrics
        synced = False
        if self.batch_window_ms == 0:
            durable_at = now + self.sync_delay_ms
            self.sync_count += 1
            synced = True
        else:
            if now >= self._batch_flush_at - self.sync_delay_ms:
                # No open batch (or its flush already started): open one.
                self._batch_flush_at = now + self.batch_window_ms + self.sync_delay_ms
                self.sync_count += 1
                synced = True
            durable_at = self._batch_flush_at
        if metrics.enabled:
            metrics.inc("wal.appends", node=self.label)
            if synced:
                metrics.inc("wal.syncs", node=self.label)
        entry = WalEntry(
            lsn=len(self.entries),
            kind=kind,
            txid=txid,
            payload=payload,
            appended_at=now,
            durable_at=durable_at,
        )
        self.entries.append(entry)
        tracer = self.tracer
        if tracer.wants_wal:
            # One span per append covering its durability window; batched
            # appends overlap on the same track, which is exactly how group
            # commit looks in a trace viewer.
            tracer.span(
                now, durable_at, "wal",
                "sync" if self.batch_window_ms == 0 else "group_commit",
                track=f"wal:{self.label}", kind=kind, txid=txid, lsn=entry.lsn,
            )
        return durable_at - now

    def entries_for(self, txid: str) -> List[WalEntry]:
        return [entry for entry in self.entries if entry.txid == txid]

    def __len__(self) -> int:
        return len(self.entries)
