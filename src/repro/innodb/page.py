"""Database page images.

A :class:`Page` is what the engine stores in a device page: the page id,
the LSN of the last modification, an opaque payload (the B+tree node
content), and a checksum.  The checksum is what detects torn writes — a
crash in the middle of an in-place page write leaves a mix of old and new
sectors on media, which :func:`torn_copy` models explicitly so recovery
tests can produce the exact failure Section 2 describes.

``Page`` is a hand-rolled ``__slots__`` value class rather than a frozen
dataclass: the B+tree builds a fresh image for every node it touches, so
construction is on the engine's per-operation hot path, and the frozen
dataclass ``object.__setattr__`` ceremony tripled its cost.  Treat
instances as immutable — every layer (pool aliasing, device pages,
recovery comparisons) assumes an image never changes after construction.
"""

from __future__ import annotations

from typing import Any

_TORN_MARK = "<torn>"


class Page:
    """One page image.

    ``payload`` is treated as opaque, immutable data; the engine always
    builds a fresh Page when a node changes, so device pages never alias
    mutable host state.
    """

    __slots__ = ("page_id", "lsn", "payload", "checksum_ok")

    def __init__(self, page_id: int, lsn: int, payload: Any,
                 checksum_ok: bool = True) -> None:
        self.page_id = page_id
        self.lsn = lsn
        self.payload = payload
        self.checksum_ok = checksum_ok

    def is_torn(self) -> bool:
        """True when the checksum does not match — a torn write."""
        return not self.checksum_ok

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Page):
            return NotImplemented
        return (self.page_id == other.page_id and self.lsn == other.lsn
                and self.payload == other.payload
                and self.checksum_ok == other.checksum_ok)

    def __hash__(self) -> int:
        return hash((self.page_id, self.lsn, self.payload,
                     self.checksum_ok))

    def __repr__(self) -> str:
        return (f"Page(page_id={self.page_id}, lsn={self.lsn}, "
                f"payload={self.payload!r}, "
                f"checksum_ok={self.checksum_ok})")


def torn_copy(page: Page) -> Page:
    """The on-media result of a page write interrupted by power loss: a
    detectably corrupt image (mixed old/new sectors fail the checksum)."""
    return Page(page.page_id, page.lsn, _TORN_MARK, checksum_ok=False)
