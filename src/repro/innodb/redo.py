"""Redo log (WAL) on a dedicated log device.

Mirrors the experimental setup: the paper put the MySQL log on a separate
Samsung PM853T SSD, so redo traffic never competes with tablespace I/O on
the OpenSSD.  The log is identical across the three flush modes — it is
the *page* flush pipeline that SHARE changes — but it must exist so
transaction commits charge realistic log I/O and so recovery tests can
replay committed work.

Records are opaque tuples; the log packs them into device pages and
fsyncs at commit (group commit: one fsync may cover several transactions'
records when the engine batches)."""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.ssd.device import Ssd

#: Log records packed into one device page.
RECORDS_PER_PAGE = 32


class RedoLog:
    """Append-only log of (lsn, record) entries over a plain SSD."""

    def __init__(self, device: Ssd) -> None:
        self.device = device
        # The log file is a fixed-size region (ib_logfile*), recycled
        # circularly; it must not consume the whole device or the log
        # device's own GC has no headroom.
        self.region_pages = max(1, device.logical_pages // 2)
        #: LSN the next appended record takes (plain attribute: the
        #: B+tree stamps it on every page image it builds).
        self.next_lsn = 1
        self._pending: List[Tuple[int, Any]] = []
        self._cursor_lpn = 0
        self._committed_through = 0
        self.commits = 0

    def append(self, record: Any) -> int:
        """Buffer a record; returns its LSN.  Not durable until commit."""
        lsn = self.next_lsn
        self.next_lsn = lsn + 1
        self._pending.append((lsn, record))
        return lsn

    def commit(self) -> int:
        """Force the buffered records to the log device (group commit).

        Returns the highest durable LSN.
        """
        pending = self._pending
        # A read-only transaction logged nothing: no write, but the
        # flush below still goes out (it costs a device command slot).
        while pending:
            self.device.write(self._cursor_lpn,
                              tuple(pending[:RECORDS_PER_PAGE]))
            del pending[:RECORDS_PER_PAGE]
            self._cursor_lpn = (self._cursor_lpn + 1) % self.region_pages
        self.device.flush()
        self._committed_through = self.next_lsn - 1
        self.commits += 1
        return self._committed_through

    def replay_records(self) -> List[Tuple[int, Any]]:
        """Read back every durable record in LSN order (recovery path).

        The simulated log never wraps during a test, so a linear scan from
        LPN 0 to the first unmapped page reproduces the durable tail.
        """
        records: List[Tuple[int, Any]] = []
        lpn = 0
        while lpn < self.region_pages and self.device.ftl.is_mapped(lpn):
            records.extend(self.device.read(lpn))
            lpn += 1
        records.sort(key=lambda item: item[0])
        return records
