"""Exception hierarchy shared across every layer of the SHARE reproduction.

Each simulated layer (NAND array, FTL, SSD facade, host filesystem, database
engines) raises a subclass of :class:`ReproError` so callers can distinguish
programming mistakes (plain ``ValueError``/``TypeError``) from simulated
device and protocol failures.

The hierarchy separates two very different failure families at the flash
layer:

* **protocol violations** (:class:`ProgramError`, :class:`ReadError`) —
  the FTL broke a chip-level rule (overwrote a programmed page, read an
  erased one).  These indicate firmware bugs and are never retried or
  masked.
* **media faults** (:class:`MediaError` and subclasses) — the *medium*
  failed: an uncorrectable read, a program failure, an erase failure.
  Firmware is expected to survive these (read-retry, re-program elsewhere,
  retire the block); when it cannot, the typed error propagates unchanged
  through the device facade and host stack so engines never receive wrong
  data silently.

Everything a device command can legitimately surface to the host subclasses
:class:`DeviceError` — media faults (via :class:`MediaError`'s dual
parentage) and FTL-state errors (via :class:`FtlError`) alike — so host
code can catch one type at the ioctl boundary without also swallowing
programming mistakes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DeviceError",
    "FlashError",
    "ProgramError",
    "ReadError",
    "MediaError",
    "UncorrectableReadError",
    "ProgramFailError",
    "EraseFailError",
    "FtlError",
    "OutOfSpaceError",
    "UnmappedPageError",
    "ShareError",
    "DeviceBusyError",
    "CommandTimeoutError",
    "CommandUnsupportedError",
    "PowerFailure",
    "ResilienceError",
    "CircuitOpenError",
    "RetriesExhaustedError",
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "NoSpace",
    "IoctlError",
    "EngineError",
    "TornPageError",
    "ClusterError",
    "StaleEpochError",
    "ShardUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeviceError(ReproError):
    """Base class for every error a device command can surface to the host.

    This covers malformed requests raised by the SSD facade itself, FTL
    state errors (:class:`FtlError`), and media faults
    (:class:`MediaError`).  Host layers that must degrade gracefully catch
    ``DeviceError``; anything else escaping a device call is a bug.
    """


class FlashError(ReproError):
    """Base class for NAND-array level failures (protocol and media)."""


class ProgramError(FlashError):
    """Raised when a page is programmed out of order or re-programmed.

    Real NAND forbids overwriting a programmed page and (for MLC) requires
    pages within a block to be programmed sequentially.  Violations indicate
    an FTL bug, so the array refuses the operation instead of corrupting
    state silently.
    """


class ReadError(FlashError):
    """Raised when reading an unwritten (erased) page — an FTL bug, not a
    media fault."""


class MediaError(FlashError, DeviceError):
    """Base class for genuine media failures injected by the fault plan.

    Unlike the protocol violations above, these model the physics of NAND
    (charge loss, failed program pulses, worn-out blocks).  They are both
    :class:`FlashError` (they originate at the array) and
    :class:`DeviceError` (they may surface to the host when firmware
    cannot mask them).
    """


class UncorrectableReadError(MediaError):
    """Read ECC failure: the page's payload cannot be reconstructed.

    May be transient (cleared by read-retry) or permanent (a dead page);
    the FTL retries up to its budget, scrubs correctable pages to fresh
    locations, and otherwise surfaces this error — never stale or wrong
    data."""


class ProgramFailError(MediaError):
    """A program operation failed to commit charge; the target page is
    unusable and its block must be retired after relocating live data."""


class EraseFailError(MediaError):
    """An erase operation failed; the block has grown bad and must be
    retired (its previous contents remain readable but it can never be
    reused)."""


class FtlError(DeviceError):
    """Base class for FTL protocol violations and state errors."""


class OutOfSpaceError(FtlError):
    """Raised when the FTL cannot find a free page even after garbage
    collection, i.e. the logical space is overcommitted (or the spare
    pool and free pool are both exhausted by grown bad blocks)."""


class UnmappedPageError(FtlError):
    """Raised when reading an LPN that has no physical mapping."""


class ShareError(FtlError):
    """Raised for invalid SHARE commands (bad range, overlap, unmapped
    source, or reverse-map capacity exhaustion that cannot be reconciled)."""


class DeviceBusyError(DeviceError):
    """The device rejected a command with transient backpressure.

    Models queue-full / firmware-busy NVMe status: the command was never
    executed and it is always safe (and expected) to retry after a
    backoff.  Injected by :class:`repro.sim.faults.DeviceBusy`."""


class CommandTimeoutError(DeviceError):
    """A command exceeded its completion deadline at the host boundary.

    The host cannot tell whether the device applied the command before
    the timeout, so retries must be idempotent (SHARE re-mapping a dst
    LPN onto the same src physical page is).  Injected by
    :class:`repro.sim.faults.CommandTimeout`."""


class CommandUnsupportedError(DeviceError):
    """The device rejected a command as unsupported or the handling
    firmware unit is hung.

    Sticky by nature: retrying does not help, so the host resilience
    layer fails fast and engines degrade to their classic two-phase
    paths.  Injected by :class:`repro.sim.faults.ShareOutage`."""


class PowerFailure(ReproError):
    """Injected power failure.

    Raised at a registered fault point to simulate sudden power loss; the
    test harness catches it, discards all volatile state, and restarts the
    stack from the persisted media image.
    """


class ResilienceError(ReproError):
    """Base class for failures surfaced by the host resilience layer.

    Raised by :class:`repro.host.resilience.ShareGuard` when a guarded
    device command could not be completed within policy — engines catch
    this one type to trigger their two-phase fallback paths.  The
    underlying :class:`DeviceError` (if any) is chained as
    ``__cause__``."""


class CircuitOpenError(ResilienceError):
    """The circuit breaker is open: the command was not attempted.

    Fast-fail path — after repeated SHARE failures the breaker stops
    hammering a sick device and engines go straight to fallback until
    the recovery timeout elapses and a probe succeeds."""


class RetriesExhaustedError(ResilienceError):
    """A guarded command kept failing past the retry budget or deadline,
    or failed with a non-retryable :class:`DeviceError`."""

    def __init__(self, message: str, attempts: int = 1,
                 elapsed_us: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.elapsed_us = elapsed_us


class FileSystemError(ReproError):
    """Base class for host filesystem failures."""


class FileNotFound(FileSystemError):
    """Raised when opening or unlinking a path that does not exist."""


class FileExists(FileSystemError):
    """Raised when creating a path that already exists."""


class NoSpace(FileSystemError):
    """Raised when the filesystem has no free extents left."""


class IoctlError(FileSystemError):
    """Raised when a share ioctl cannot be translated to device LPNs."""


class EngineError(ReproError):
    """Base class for database-engine level errors."""


class TornPageError(EngineError):
    """Raised when a page checksum mismatch (torn write) is detected and no
    recovery copy exists."""


class ClusterError(ReproError):
    """Base class for sharded-tier failures (router, replication,
    failover)."""


class StaleEpochError(ClusterError):
    """A replication record from a superseded epoch was offered to the
    log or to a replica applier.

    Each promotion bumps the shard pair's epoch; a demoted primary (or a
    lagging applier holding pre-failover records) is fenced by this
    error so stale remaps are never replayed over post-failover state."""


class ShardUnavailableError(ClusterError):
    """The shard that owns a key has no healthy primary and promotion
    could not produce one (e.g. both devices of the pair are down)."""
