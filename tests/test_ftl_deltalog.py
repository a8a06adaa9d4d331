"""Unit tests for the mapping delta log."""

import zlib
from array import array

import pytest

from repro.errors import FtlError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.deltalog import (
    KIND_BADBLK,
    KIND_SHARE,
    KIND_SNAP,
    KIND_TRIM,
    MAP_MAGIC,
    MAP_PAGE_TAG,
    DeltaRecord,
    MapLog,
    _seal,
    _unseal,
)
from repro.sim.faults import CORRUPT_PAYLOAD


@pytest.fixture
def env():
    geo = FlashGeometry.small()
    nand = NandArray(geo)
    blocks = [geo.block_count - 2, geo.block_count - 1]
    log = MapLog(nand, geo, blocks, records_per_page=4)
    return nand, geo, blocks, log


def record(lpn, seq, kind=KIND_SHARE, new_ppn=0):
    return DeltaRecord(kind, lpn, None, new_ppn, seq)


class TestDeltaRecord:
    """A record is plain data; its rules are enforced where a mapping
    page is sealed: ``append_atomic`` refuses to program the page."""

    def test_valid(self):
        rec = DeltaRecord(KIND_SHARE, 1, 2, 3, 4)
        assert rec.new_ppn == 3
        assert rec == (KIND_SHARE, 1, 2, 3, 4)

    @staticmethod
    def refused(env, bad, match):
        nand, geo, blocks, log = env
        with pytest.raises(ValueError, match=match):
            log.append_atomic([record(1, 1), bad])
        assert log.page_writes == 0
        assert not nand.is_programmed(geo.first_ppn(blocks[0]))
        assert MapLog.scan(nand, geo, blocks) == ([], 0)

    def test_trim_must_have_no_new_ppn(self, env):
        self.refused(env, DeltaRecord(KIND_TRIM, 1, 2, 3, 4),
                     "trim records must have new_ppn=None")

    def test_unknown_kind_rejected(self, env):
        self.refused(env, DeltaRecord("bogus", 1, None, None, 1),
                     "unknown delta kind: 'bogus'")

    def test_negative_fields_rejected(self, env):
        self.refused(env, DeltaRecord(KIND_SHARE, -1, None, 0, 1),
                     "negative LPN: -1")
        self.refused(env, (KIND_SHARE, 1, None, 0, -1), "negative seq: -1")

    def test_badblk_carries_no_ppns(self, env):
        self.refused(env, DeltaRecord(KIND_BADBLK, 3, None, 7, 0),
                     "badblk records carry no PPNs")

    def test_negative_ppn_rejected(self, env):
        # The seal encodes None as -1: a real PPN of -1 would seal alike.
        self.refused(env, DeltaRecord(KIND_SHARE, 1, None, -1, 1),
                     "negative PPN")
        self.refused(env, DeltaRecord(KIND_TRIM, 1, -1, None, 1),
                     "negative PPN")

    def test_fields_beyond_64_bits_rejected(self, env):
        # The page is packed as signed 64-bit integers: a field that does
        # not fit is refused by name, like any other broken rule.
        self.refused(env, DeltaRecord(KIND_SHARE, 1, None, 0, 2 ** 70),
                     "seq outside signed 64 bits")
        self.refused(env, DeltaRecord(KIND_SHARE, 2 ** 63, None, 0, 1),
                     "lpn outside signed 64 bits")
        self.refused(env, DeltaRecord(KIND_SHARE, 1, 2 ** 64, 0, 1),
                     "old_ppn outside signed 64 bits")


def pack(rows):
    """The packed image of ``rows`` of five int64 fields each."""
    return array("q", [field for row in rows for field in row]).tobytes()


def unpack(packed):
    """Rows of five int64 fields from a packed image."""
    fields = array("q", packed)
    return [list(fields[index:index + 5])
            for index in range(0, len(fields), 5)]


class TestSeal:
    """A mapping page is stored as its packed fields and a CRC32 of
    exactly those bytes: any change to a field or to the page's shape —
    or a well-checksummed page ``_seal`` would not have written — makes
    ``_unseal`` answer None, and ``MapLog.scan`` counts the page in
    ``bad_pages`` instead of replaying it."""

    RECORDS = (
        DeltaRecord(KIND_SHARE, 7, None, 40, 11),
        DeltaRecord(KIND_SHARE, 8, 3, 41, 12),
        DeltaRecord(KIND_TRIM, 9, 5, None, 13),
        DeltaRecord(KIND_BADBLK, 2, None, None, 14),
        DeltaRecord(KIND_SNAP, 10, None, 42, 15),
    )

    @staticmethod
    def scan_of(payload):
        """``MapLog.scan`` of a map region whose first page holds
        ``payload`` and whose second holds one good record."""
        geo = FlashGeometry.small()
        nand = NandArray(geo)
        blocks = [geo.block_count - 2, geo.block_count - 1]
        first = geo.first_ppn(blocks[0])
        nand.program(first, payload, spare=(MAP_PAGE_TAG,))
        nand.program(first + 1, _seal((record(99, 1),)),
                     spare=(MAP_PAGE_TAG,))
        return MapLog.scan(nand, geo, blocks)

    def refused(self, payload):
        assert _unseal(payload) is None
        records, bad_pages = self.scan_of(payload)
        assert [r.lpn for r in records] == [99]
        assert bad_pages == 1

    def test_round_trip_yields_delta_records(self):
        bare = tuple(tuple(rec) for rec in self.RECORDS)
        payload = _seal(bare)
        assert payload == _seal(self.RECORDS)    # named or bare: same page
        magic, packed, crc = payload
        assert magic == MAP_MAGIC == "maplog-v4"
        assert type(packed) is bytes and len(packed) == 5 * 40
        assert crc == zlib.crc32(packed)
        assert unpack(packed)[2] == [1, 9, 5, -1, 13]   # trim, None as -1
        decoded = _unseal(payload)
        assert decoded == list(self.RECORDS)
        assert all(isinstance(rec, DeltaRecord) for rec in decoded)
        records, bad_pages = self.scan_of(payload)
        assert [r.lpn for r in records] == [7, 8, 9, 2, 10, 99]
        assert bad_pages == 0

    def test_any_flipped_field_is_detected(self):
        magic, packed, crc = _seal(self.RECORDS)
        rows = unpack(packed)
        flips = 0
        for index, row in enumerate(rows):
            for field, value in enumerate(row):
                for new_value in {value + 1, value - 1, value ^ 64,
                                  value ^ 1 << 40, -1, 0, 2 ** 63 - 1}:
                    if new_value == value:
                        continue
                    forged = [list(other) for other in rows]
                    forged[index][field] = new_value
                    self.refused((magic, pack(forged), crc))
                    flips += 1
        assert flips > 150

    def test_crc_and_magic_are_checked(self):
        magic, packed, crc = _seal(self.RECORDS)
        self.refused((magic, packed, crc ^ 1))
        self.refused((magic, packed, str(crc)))
        self.refused(("maplog-v3", packed, crc))
        # A page in the previous, record-tuple layout is not this one.
        self.refused(("maplog-v3", self.RECORDS, crc))
        self.refused((magic, self.RECORDS, crc))

    def test_torn_shapes_are_detected(self):
        magic, packed, crc = _seal(self.RECORDS)
        rows = unpack(packed)
        self.refused((magic, pack(rows[:-1]), crc))            # record lost
        self.refused((magic, pack(rows + rows[:1]), crc))      # doubled
        self.refused((magic, pack(rows[::-1]), crc))           # reordered
        # Not whole records: refused even under a matching checksum.
        for torn in (packed[:-1], packed + b"\0", packed[:20]):
            self.refused((magic, torn, crc))
            self.refused((magic, torn, zlib.crc32(torn)))
        # Not ``bytes``: refused even under a matching checksum.
        self.refused((magic, bytearray(packed), crc))
        self.refused((magic, memoryview(packed), crc))
        self.refused((magic, list(packed), crc))
        self.refused((magic, packed))                          # no CRC
        self.refused((magic, packed, crc, 0))
        self.refused([magic, packed, crc])                     # not a tuple
        self.refused(None)
        self.refused("garbage")

    def test_well_checksummed_forgeries_are_refused(self):
        # A page whose CRC is right but which ``_seal`` would never have
        # written: the decoded records are held to the seal's rules.
        magic, packed, __ = _seal(self.RECORDS)
        rows = unpack(packed)
        forgeries = {
            "unknown kind code": (0, 0, 6),
            "negative kind code": (0, 0, -1),
            "negative LPN": (0, 1, -5),
            "negative seq": (1, 4, -1),
            "trim with a new PPN": (2, 3, 44),
            "badblk with a PPN": (3, 2, 7),
            "PPN below None's -1": (1, 2, -2),
        }
        for what, (index, field, value) in forgeries.items():
            forged = [list(row) for row in rows]
            forged[index][field] = value
            image = pack(forged)
            assert _unseal((magic, image, zlib.crc32(image))) is None, what
            self.refused((magic, image, zlib.crc32(image)))

    def test_corrupt_payload_is_detected(self):
        self.refused((CORRUPT_PAYLOAD, 1234))


class TestMapLog:
    def test_append_and_scan(self, env):
        nand, geo, blocks, log = env
        log.append_atomic([record(1, 1), record(2, 2)])
        records, bad_pages = MapLog.scan(nand, geo, blocks)
        assert [r.lpn for r in records] == [1, 2]
        assert bad_pages == 0
        assert log.page_writes == 1

    def test_empty_batch_rejected(self, env):
        __, __, __, log = env
        with pytest.raises(ValueError):
            log.append_atomic([])

    def test_oversized_batch_rejected(self, env):
        __, __, __, log = env
        with pytest.raises(FtlError):
            log.append_atomic([record(i, i + 1) for i in range(5)])

    def test_append_splits_large_batches(self, env):
        nand, geo, blocks, log = env
        log.append([record(i, i + 1) for i in range(10)])
        assert log.page_writes == 3  # 4 + 4 + 2
        assert len(MapLog.scan(nand, geo, blocks)[0]) == 10

    def test_checkpoint_triggers_when_full(self, env):
        nand, geo, blocks, log = env
        live = [record(99, 10_000, KIND_SNAP)]
        log.set_snapshot_provider(lambda: list(live))
        total_pages = len(blocks) * geo.pages_per_block
        for i in range(total_pages + 3):
            log.append_atomic([record(i, i + 1)])
        assert log.checkpoints >= 1
        scanned, __ = MapLog.scan(nand, geo, blocks)
        # The snapshot record must be present after compaction.
        assert any(r.lpn == 99 and r.kind == KIND_SNAP for r in scanned)

    def test_checkpoint_without_provider_fails(self, env):
        nand, geo, blocks, log = env
        total_pages = len(blocks) * geo.pages_per_block
        with pytest.raises(FtlError):
            for i in range(total_pages + 1):
                log.append_atomic([record(i, i + 1)])

    def test_bind_to_end_of_log_appends_after_existing(self, env):
        nand, geo, blocks, log = env
        log.append_atomic([record(1, 1)])
        other = MapLog(nand, geo, blocks, records_per_page=4)
        other.bind_to_end_of_log()
        other.append_atomic([record(2, 2)])
        assert len(MapLog.scan(nand, geo, blocks)[0]) == 2

    def test_scan_rejects_foreign_pages(self, env):
        nand, geo, blocks, __ = env
        nand.program(geo.first_ppn(blocks[0]), "data", spare=((1, 1),))
        with pytest.raises(FtlError):
            MapLog.scan(nand, geo, blocks)

    def test_needs_a_block(self):
        geo = FlashGeometry.small()
        nand = NandArray(geo)
        with pytest.raises(ValueError):
            MapLog(nand, geo, [], records_per_page=4)
