"""Generic atomic multi-page writes built on SHARE.

This is the reusable form of what the modified InnoDB does (Section 4.3):
stage the new page images in a scratch (journal) area, fsync, then issue
one SHARE batch that remaps every destination page onto its staged copy.
A crash before the SHARE leaves all destinations at their old content; a
crash after it leaves all of them at the new content — multi-page write
atomicity with **zero** redundant data writes.

Unlike the fixed-set atomic-write FTLs the paper compares against
(Section 6.1), pages can be staged at any time and in any order; only the
final ``commit`` is a single atomic step.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import ShareError
from repro.ssd.device import Ssd


class ScratchArea:
    """A ring of scratch LPNs used to stage page images.

    The area is reused circularly, like InnoDB's doublewrite buffer: once a
    staged copy has been remapped into place by SHARE, its scratch LPN may
    be rewritten — the device keeps the shared physical page alive until
    the destination LPN moves away too.
    """

    def __init__(self, ssd: Ssd, base_lpn: int, size_pages: int) -> None:
        if size_pages < 1:
            raise ValueError(f"scratch area needs >= 1 page: {size_pages}")
        if base_lpn < 0 or base_lpn + size_pages > ssd.logical_pages:
            raise ValueError("scratch area outside the device's logical space")
        self._ssd = ssd
        self.base_lpn = base_lpn
        self.size_pages = size_pages
        self._cursor = 0

    def stage(self, data: Any) -> int:
        """Write one page image into the scratch ring; returns the scratch
        LPN holding it."""
        lpn = self.base_lpn + self._cursor
        self._cursor = (self._cursor + 1) % self.size_pages
        self._ssd.write(lpn, data)
        return lpn


class AtomicWriter:
    """Atomic propagation of a set of (destination LPN -> page image)
    updates using stage + SHARE."""

    def __init__(self, ssd: Ssd, scratch: ScratchArea) -> None:
        self._ssd = ssd
        self._scratch = scratch
        self._staged: Dict[int, int] = {}

    def stage(self, dst_lpn: int, data: Any) -> None:
        """Stage a new image for ``dst_lpn``.  Restaging the same
        destination before commit simply supersedes the earlier copy."""
        if not 0 <= dst_lpn < self._ssd.logical_pages:
            raise ValueError(f"destination LPN out of range: {dst_lpn}")
        if self._scratch.base_lpn <= dst_lpn < (self._scratch.base_lpn
                                                + self._scratch.size_pages):
            raise ShareError(
                f"destination LPN {dst_lpn} lies inside the scratch area")
        self._staged[dst_lpn] = self._scratch.stage(data)

    def commit(self) -> int:
        """Flush staging, then remap every destination atomically.

        The staged set must fit one device-atomic SHARE batch — that is the
        price of all-or-nothing semantics across the whole set.  Returns
        the number of pages committed.
        """
        if not self._staged:
            raise ShareError("nothing staged to commit")
        if len(self._staged) > self._ssd.max_share_batch:
            raise ShareError(
                f"{len(self._staged)} staged pages exceed the atomic SHARE "
                f"limit of {self._ssd.max_share_batch}")
        self._ssd.flush()
        pairs = sorted(self._staged.items())
        self._ssd.share_batch(pairs)
        count = len(pairs)
        self._staged = {}
        return count

    def abort(self) -> None:
        """Forget staged images; destinations keep their old content."""
        self._staged = {}
