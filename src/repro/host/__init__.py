"""Host storage stack: extent-based filesystem, the share ioctl path,
and the resilience layer (retry, circuit breaker) engines use to
survive SHARE command failures."""

from repro.host.file import File
from repro.host.filesystem import FsConfig, HostFs
from repro.host.ioctl import share_file_ranges, share_ioctl
from repro.host.resilience import CircuitBreaker, GuardStats, ShareGuard

__all__ = ["File", "FsConfig", "HostFs", "share_file_ranges", "share_ioctl",
           "CircuitBreaker", "ShareGuard", "GuardStats"]
