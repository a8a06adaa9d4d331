"""The paper's primary contribution as a host-side library.

:mod:`repro.core.atomic_write` packages the paper's central trick —
"write anywhere, then remap into place" — as a generic atomic multi-page
write primitive any storage engine can adopt (Section 3.3's "other
applications of SHARE").
"""

from repro.core.atomic_write import AtomicWriter, ScratchArea

__all__ = ["AtomicWriter", "ScratchArea"]
