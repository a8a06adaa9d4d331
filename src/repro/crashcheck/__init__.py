"""Systematic crash-consistency exploration.

The paper's durability arguments (Sections 4.2.2 and 4.3) are stated per
mechanism: the SHARE batch commits through a single mapping-page program,
the doublewrite buffer repairs torn pages, the couchstore header is the
commit point.  This package checks the *composition*: it enumerates every
place a workload actually reaches where something can go wrong, then
re-runs the workload once per place with the fault injected exactly
there, recovers from the persisted media, and verifies a set of named
invariants — mapping-table agreement, recovery idempotence, bounded
physical sharing, bad-block accounting, each engine's
read-your-acknowledged-writes contract, and the cluster tier's
no-lost-acked-write, read-your-writes and replica convergence.

There is one loop and six families of fault (power cuts, media faults,
host-boundary command faults, shard kills, shard media storms, seeded
cluster chaos); ``docs/crash-consistency.md`` has the table.

* :mod:`repro.crashcheck.sweep` — the engine: :class:`Site`,
  :class:`SiteResult`, :class:`SweepReport`, :func:`run_site`,
  :func:`sweep` and the capping rule :func:`sample_sites`.
* :mod:`repro.crashcheck.families` — the six :class:`Family` rows,
  :data:`FAMILIES` by name.
* :mod:`repro.crashcheck.workloads` / :mod:`repro.crashcheck.cluster` —
  the harnesses.
* :mod:`repro.crashcheck.invariants` — the checks.
* ``python -m repro.tools.crashexplore --family F`` — the CLI.
"""

from repro.crashcheck.cluster import (ClusterChaosHarness, ClusterHarness,
                                      media_cluster_harness)
from repro.crashcheck.families import (CLUSTER_CHAOS, CLUSTER_KILL,
                                       CLUSTER_MEDIA, COMMAND, FAMILIES,
                                       MEDIA, POWER, seed_sites)
from repro.crashcheck.invariants import check_media, media_accounting
from repro.crashcheck.sweep import (Family, Site, SiteResult, SweepReport,
                                    run_site, sample_evenly, sample_sites,
                                    sweep)
from repro.crashcheck.workloads import WORKLOADS, DeviceState

__all__ = [
    "Family",
    "Site",
    "SiteResult",
    "SweepReport",
    "run_site",
    "sweep",
    "sample_evenly",
    "sample_sites",
    "FAMILIES",
    "POWER",
    "MEDIA",
    "COMMAND",
    "CLUSTER_KILL",
    "CLUSTER_MEDIA",
    "CLUSTER_CHAOS",
    "seed_sites",
    "check_media",
    "media_accounting",
    "WORKLOADS",
    "DeviceState",
    "ClusterHarness",
    "ClusterChaosHarness",
    "media_cluster_harness",
]
