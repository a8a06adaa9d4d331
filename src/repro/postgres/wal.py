"""Write-ahead log with optional full-page images.

The WAL models exactly the accounting that matters to the paper's pgbench
observation: small logical records always; a full page image *in addition*
the first time a page is touched after a checkpoint when
``full_page_writes`` is on.  Records are packed into WAL pages on the log
device; an fsync at commit makes them durable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.ssd.device import Ssd

#: Bytes one logical WAL record takes.
RECORD_BYTES = 128


@dataclass
class WalStats:
    """WAL volume accounting (the paper's 'amount of WAL log data')."""

    records: int = 0
    record_bytes: int = 0
    full_page_images: int = 0
    full_page_bytes: int = 0
    wal_pages_written: int = 0
    commits: int = 0

    @property
    def total_bytes(self) -> int:
        return self.record_bytes + self.full_page_bytes


class Wal:
    """Append-only WAL over a log device.

    :data:`RECORD_BYTES` models the size of one logical record (a pgbench
    UPDATE record is on the order of 100–200 bytes); full page images
    consume a whole data page.  The WAL fills device pages with whatever
    mix of records and images is pending, so turning full_page_writes off
    shrinks the number of WAL pages per commit — which is the entire
    performance effect the experiment shows.
    """

    def __init__(self, device: Ssd, data_page_bytes: int = 4096) -> None:
        self.device = device
        self.data_page_bytes = data_page_bytes
        self.stats = WalStats()
        self._pending_bytes = 0
        self._pending_payload: List[Any] = []
        self._cursor_lpn = 0
        self._partial_fill = 0  # bytes used in the current WAL page

    def log_record(self, record: Any) -> None:
        """Append one small logical record."""
        self.stats.records += 1
        self.stats.record_bytes += RECORD_BYTES
        self._pending_bytes += RECORD_BYTES
        self._pending_payload.append(("rec", record))

    def log_full_page_image(self, page_id: int, image: Any) -> None:
        """Append a full before-image of a data page (full_page_writes)."""
        self.stats.full_page_images += 1
        self.stats.full_page_bytes += self.data_page_bytes
        self._pending_bytes += self.data_page_bytes
        self._pending_payload.append(("fpi", page_id, image))

    def commit(self) -> None:
        """fsync the WAL: write out every pending byte as WAL pages."""
        page_size = self.device.page_size
        total = self._partial_fill + self._pending_bytes
        pages_needed = -(-total // page_size) if total else 0
        already_written = 1 if self._partial_fill else 0
        new_pages = max(0, pages_needed - already_written)
        # Rewriting the current partial page counts as a write too (the
        # WAL's well-known partial-page rewrite cost).
        if self._partial_fill and self._pending_bytes:
            new_pages += 1
        seq = self.stats.commits + 1
        payload = tuple(self._pending_payload)
        region = max(1, self.device.logical_pages // 2)
        for __ in range(new_pages):
            self.device.write(self._cursor_lpn, ("wal", seq, payload))
            self._cursor_lpn = (self._cursor_lpn + 1) % region
            self.stats.wal_pages_written += 1
        self.device.flush()
        self._partial_fill = total % page_size
        self._pending_bytes = 0
        self._pending_payload = []
        self.stats.commits += 1

    def log_checkpoint_marker(self) -> None:
        """Durably record that every commit so far is reflected in the
        heap.  Replay after a crash skips commits at or below the newest
        marker — without it, a surviving stale WAL page could roll a
        checkpointed row backwards."""
        region = max(1, self.device.logical_pages // 2)
        self.device.write(self._cursor_lpn, ("walckpt", self.stats.commits))
        self._cursor_lpn = (self._cursor_lpn + 1) % region
        self.stats.wal_pages_written += 1
        self.device.flush()
        self._partial_fill = 0

    @staticmethod
    def replay_scan(device: Ssd):
        """Post-crash scan of the WAL region.

        Returns the payloads of commits newer than the latest durable
        checkpoint marker, ordered by commit sequence.  Payload pages are
        deduplicated by sequence number (a commit spanning several WAL
        pages repeats its payload on each)."""
        region = max(1, device.logical_pages // 2)
        commits = {}
        horizon = 0
        for lpn in range(region):
            if not device.ftl.is_mapped(lpn):
                continue
            record = device.ftl.read(lpn)
            if not isinstance(record, tuple) or not record:
                continue
            if record[0] == "wal":
                __, seq, payload = record
                commits[seq] = payload
            elif record[0] == "walckpt":
                horizon = max(horizon, record[1])
        return [commits[seq] for seq in sorted(commits) if seq > horizon]
