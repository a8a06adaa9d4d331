"""On-media record formats of the couchstore file.

Every file block holds exactly one record: a document block, an index
node, or a database header.  Real couchstore packs appends at byte
granularity but 4 KiB-aligns headers; the paper's experiment geometry
(4 KiB average documents, 4 KiB tree nodes) makes the one-record-per-block
simplification faithful to the measured write volumes.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

#: A document block is ``(DOC_TAG, key, rev, body)``: the first block
#: carries the key/rev/length metadata — the 'header page of each valid
#: document' that SHARE compaction still has to read (Table 2).
DOC_TAG = "doc"
HEADER_TAG = "header"
LEAF_TAG = "cleaf"
INTERNAL_TAG = "cint"


def header_record(root_block: Optional[int], update_seq: int,
                  doc_count: int, stale_blocks: int) -> tuple:
    """A database header: commit point carrying the index root pointer."""
    return (HEADER_TAG, root_block, update_seq, doc_count, stale_blocks)


def is_header(record: Any) -> bool:
    return isinstance(record, tuple) and record and record[0] == HEADER_TAG


def doc_key(record: tuple) -> Any:
    return record[1]


def doc_body(record: tuple) -> Any:
    return record[3]


def parse_header(record: tuple) -> Tuple[Optional[int], int, int, int]:
    """(root_block, update_seq, doc_count, stale_blocks)."""
    return record[1], record[2], record[3], record[4]
