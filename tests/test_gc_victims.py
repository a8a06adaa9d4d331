"""GC victim selection against a brute-force oracle, and a golden run.

The FTL picks victims from its own block-state lists.  The oracle here
is the scan it replaced — every data block asked "are you active, free,
bad, programmed?" through the media, then ``min(key=...)`` — kept only
in the tests, run beside the FTL at *every* collection of a randomized
write / trim / share / idle-GC / power-cycle run.  The golden test pins
the victim sequence and final ``DeviceStats`` of one seeded 20 000-op
run as recorded on the commit before the block-state rewrite.
"""

import hashlib
import random

import pytest

from repro.errors import OutOfSpaceError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, ProgramFault
from repro.ssd.device import Ssd, SsdConfig


# ---------------------------------------------------------------- oracle

def oracle_candidates(ftl):
    """The old ``_gc_candidates`` scan: one media question per block."""
    active = set(ftl.active_blocks().values())
    free = set(ftl.free_blocks()) | set(ftl.spare_blocks())
    bad = ftl.grown_bad_blocks
    data_blocks = range(ftl.geometry.block_count - ftl.config.map_block_count)
    return [b for b in data_blocks
            if b not in active and b not in free and b not in bad
            and ftl.nand.programmed_pages_in_block(b) > 0]


def oracle_next(ftl, allow_wear_move):
    """(block, is_gc_event) the old ``_collect_victim`` / ``idle_gc``
    would reclaim next, or None."""
    candidates = oracle_candidates(ftl)
    if not candidates:
        return None
    config = ftl.config
    if allow_wear_move and config.wear_leveling and len(candidates) > 1:
        erase_counts = ftl.nand.erase_counts
        coldest = min(candidates, key=lambda b: (erase_counts[b], b))
        spread = max(erase_counts[b] for b in candidates) \
            - erase_counts[coldest]
        if spread >= config.wear_delta_threshold:
            return coldest, False
    valid = {}
    for __, ppn in ftl.fwd.mapped_lpns():
        block = ppn // ftl.geometry.pages_per_block
        valid.setdefault(block, set()).add(ppn)
    for ppn in ftl._shadow_owner:
        valid.setdefault(ppn // ftl.geometry.pages_per_block,
                         set()).add(ppn)
    return min(candidates, key=lambda b: (len(valid.get(b, ())), b)), True


class VictimLog:
    """Records every reclaim; with ``check`` on, asserts each one is the
    oracle's choice at that instant."""

    def __init__(self, monkeypatch, check):
        self.victims = []
        # True from the start of a _collect_victim call until its first
        # reclaim: the only reclaim that may be a wear-leveling move.
        self._wear_allowed = False
        log = self
        reclaim = PageMappingFtl._reclaim_block
        collect = PageMappingFtl._collect_victim

        def reclaim_block(ftl, block, is_gc_event):
            if check:
                assert (block, is_gc_event) == oracle_next(
                    ftl, log._wear_allowed)
            log._wear_allowed = False
            log.victims.append((block, is_gc_event))
            return reclaim(ftl, block, is_gc_event)

        def collect_victim(ftl):
            log._wear_allowed = True
            try:
                progressed = collect(ftl)
            finally:
                log._wear_allowed = False
            if check and not progressed:
                assert oracle_next(ftl, True) is None
            return progressed

        monkeypatch.setattr(PageMappingFtl, "_reclaim_block", reclaim_block)
        monkeypatch.setattr(PageMappingFtl, "_collect_victim", collect_victim)

    def digest(self):
        return hashlib.sha256(repr(self.victims).encode()).hexdigest()


# ---------------------------------------------------------------- driver

def build_ssd(channels, wear_leveling, l2p="flat", faults=None,
              spare_blocks=0, wear_threshold=3):
    geometry = FlashGeometry(page_size=4096, pages_per_block=16,
                             block_count=72, overprovision_ratio=0.15,
                             channel_count=channels)
    config = SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=24,
                      wear_leveling=wear_leveling,
                      wear_delta_threshold=wear_threshold,
                      spare_block_count=spare_blocks, l2p_strategy=l2p))
    if faults is None:
        return Ssd(SimClock(), config)
    return Ssd(SimClock(), config, faults=faults)


def run_mixed(ssd, seed, ops, program_fault_every=0, on_power_cycle=None):
    """Seeded write / read / share / trim / idle-GC / flush / power-cycle
    mix over 85 % of the logical space, skewed towards low LPNs so
    blocks age unevenly.  Returns the shadow ``{lpn: payload}``."""
    rng = random.Random(seed)
    span = int(ssd.logical_pages * 0.85)
    shadow = {}

    def pick():
        return int(span * rng.random() ** 2)

    for index in range(ops):
        roll = rng.random()
        lpn = pick()
        if program_fault_every and index % program_fault_every == 0 \
                and ssd.ftl.spare_blocks():
            media = ssd.faults.media
            media.arm(ProgramFault(
                nth=media.op_counts["program"] + rng.randrange(1, 40)))
        if roll < 0.50 or lpn not in shadow and roll < 0.93:
            payload = ("v", lpn, index)
            ssd.write(lpn, payload)
            shadow[lpn] = payload
        elif roll < 0.66:
            assert ssd.read(lpn) == shadow[lpn]
        elif roll < 0.82:
            source = pick()
            if source == lpn or source not in shadow:
                continue
            ssd.share(lpn, source)
            shadow[lpn] = shadow[source]
        elif roll < 0.93:
            ssd.trim(lpn)
            shadow.pop(lpn, None)
        elif roll < 0.97:
            ssd.idle_gc(max_blocks=rng.randrange(1, 4),
                        min_invalid_fraction=rng.choice((0.25, 0.5, 0.9)))
        elif roll < 0.995:
            ssd.flush()
        else:
            ssd.flush()
            ssd.power_cycle()
            if on_power_cycle is not None:
                on_power_cycle()
    return shadow


def check_contents(ssd, shadow):
    for lpn, payload in shadow.items():
        assert ssd.read(lpn) == payload
    ssd.ftl.check_invariants()


# ------------------------------------------------------------ differential

@pytest.mark.parametrize("channels, wear_leveling, l2p", [
    (channels, wear_leveling, "flat")
    for channels in (1, 4) for wear_leveling in (True, False)
] + [(channels, True, "delta") for channels in (1, 4)])
def test_every_victim_matches_the_brute_force_oracle(
        monkeypatch, channels, wear_leveling, l2p):
    log = VictimLog(monkeypatch, check=True)
    ssd = build_ssd(channels, wear_leveling, l2p, wear_threshold=2)
    shadow = run_mixed(ssd, seed=11 * channels + wear_leveling, ops=6000,
                       on_power_cycle=lambda: ssd.ftl.check_invariants())
    assert len(log.victims) > 100
    if wear_leveling:
        assert any(not is_gc for __, is_gc in log.victims)
    check_contents(ssd, shadow)


@pytest.mark.parametrize("channels", [1, 4])
def test_victims_match_the_oracle_across_block_retirement(
        monkeypatch, channels):
    log = VictimLog(monkeypatch, check=True)
    faults = FaultPlan()
    faults.media.enable_counting()
    ssd = build_ssd(channels, True, faults=faults, spare_blocks=4,
                    wear_threshold=2)
    shadow = run_mixed(ssd, seed=5 + channels, ops=4000,
                       program_fault_every=400,
                       on_power_cycle=lambda: ssd.ftl.check_invariants())
    assert len(ssd.ftl.grown_bad_blocks) >= 3
    assert len(log.victims) > 50
    check_contents(ssd, shadow)


def test_overcommitted_space_still_raises(monkeypatch):
    VictimLog(monkeypatch, check=True)
    geometry = FlashGeometry(page_size=4096, pages_per_block=8,
                             block_count=16, overprovision_ratio=0.01)
    ssd = Ssd(SimClock(), SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, gc_low_water=2, gc_high_water=3)))
    with pytest.raises(OutOfSpaceError):
        for round_ in range(4):
            for lpn in range(ssd.logical_pages):
                ssd.write(lpn, (round_, lpn))


# ------------------------------------------------------------------ golden

#: Recorded on the parent commit (PR 13, 5eea593) with this very driver:
#: ``build_ssd(4, True)`` then ``run_mixed(ssd, seed=20160626, ops=20000)``.
#: Re-recorded when a departing primary's replacement became the lowest
#: extra LPN instead of a set's iteration order: the victims and the NAND
#: counts held; one more spill lookup (466 before) cost one microsecond
#: (busy 325966.15 and clock 279560 before), and 1382 log spills were
#: 1394.
GOLDEN = {
    "victims": 1163,
    "wear_moves": 57,
    "first_victims": [[7, True], [1, True], [5, True], [0, True],
                      [3, True], [6, True], [13, True], [2, True],
                      [15, True], [9, True], [23, True], [4, True]],
    "victims_sha256":
        "ca17ec948a4e30d46dd4575bd39bf69ebc0b961ecd00f30ddecb29da619606a3",
    "stats": {
        "block_erases": 1163,
        "busy_us": 325967.1500000206,
        "copyback_pages": 8366,
        "flush_commands": 592,
        "gc_events": 1106,
        "host_read_pages": 2756,
        "host_write_pages": 11167,
        "map_page_writes": 3662,
        "share_commands": 2454,
        "share_log_spills": 1382,
        "share_pairs": 2454,
        "share_spill_pages": 0,
        "spill_lookups": 467,
        "trim_commands": 1861,
        "wear_level_moves": 57,
        "write_amplification": 2.077102176054446,
    },
    "clock_us": 279561,
    "nand": [23195, 14626, 1391, 57],
}


def test_golden_victim_sequence_and_device_stats(monkeypatch):
    log = VictimLog(monkeypatch, check=False)
    ssd = build_ssd(4, True)
    shadow = run_mixed(ssd, seed=20160626, ops=20_000)
    stats = ssd.stats.snapshot()
    observed = {
        "victims": len(log.victims),
        "wear_moves": sum(1 for __, is_gc in log.victims if not is_gc),
        "first_victims": [list(entry) for entry in log.victims[:12]],
        "victims_sha256": log.digest(),
        "stats": {name: stats[name] for name in sorted(stats)},
        "clock_us": ssd.clock.now_us,
        "nand": [ssd.nand.total_programs, ssd.nand.total_reads,
                 ssd.nand.total_erases, ssd.nand.max_erase_count],
    }
    assert observed == GOLDEN
    check_contents(ssd, shadow)
