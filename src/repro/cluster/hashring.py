"""Deterministic consistent-hash ring for shard placement.

Keys are hashed with FNV-1a over their ``repr`` — never Python's
built-in ``hash()``, which is randomized per process for strings and
would make shard placement (and therefore every crashcheck sweep and
benchmark) non-reproducible.  Each node contributes ``vnodes`` virtual
points so load stays balanced even with a handful of shards, and a key
maps to the first point clockwise from its own hash.

A ring instance is immutable; :meth:`rebalance` derives a *new* ring
with nodes added and/or removed.  Consistent hashing's defining
property holds by construction: a key changes owner between the old and
new ring only when its clockwise successor point belongs to an added or
removed node, so membership changes move the minimal key range.  The
live migration protocol on top of this (dual-read handoff, per-vnode
cursors, epoch fencing) lives in ``repro.cluster.rebalance``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["HashRing", "fnv1a64"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a — small, fast, and stable across processes."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def _point_hash(data: bytes) -> int:
    """FNV-1a (as :func:`fnv1a64`), then murmur3's fmix64 avalanche.

    Raw FNV-1a barely diffuses a short suffix — ``"shard3#0"`` through
    ``"shard3#63"`` hash to *adjacent* points, so without the finalizer
    each node's vnodes collapse into one arc and the ring degenerates to
    a single point per node (terrible balance, near-zero movement on
    rebalance).  Inlined: this is the placement floor of every routed
    KV op, and the one hashing path of vnodes, :meth:`HashRing.lookup`
    and :meth:`HashRing.lookup_point`."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK
    return h ^ (h >> 33)


class HashRing:
    """Consistent-hash ring over a set of node names."""

    def __init__(self, nodes: Sequence[str], vnodes: int = 64) -> None:
        if not nodes:
            raise ValueError("ring needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate node names: {list(nodes)!r}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for node in self.nodes:
            for replica in range(vnodes):
                point = _point_hash(f"{node}#{replica}".encode("utf-8"))
                points.append((point, node))
        points.sort()
        self._hashes = [point for point, _ in points]
        # One slot past the last point wraps to the first, so the
        # bisect index needs no bounds check.
        self._points = points + points[:1]
        self._owners = [owner for _, owner in self._points]

    def lookup(self, key) -> str:
        """Owning node for ``key`` (first ring point clockwise)."""
        return self._owners[bisect_right(
            self._hashes, _point_hash(repr(key).encode("utf-8")))]

    def lookup_point(self, key) -> Tuple[int, str]:
        """``(vnode_point, owner)`` for ``key`` — the migration cursor
        unit: all keys sharing a vnode point move as one batch."""
        return self._points[bisect_right(
            self._hashes, _point_hash(repr(key).encode("utf-8")))]

    def rebalance(self, add: Sequence[str] = (),
                  remove: Sequence[str] = ()) -> "HashRing":
        """A new ring with ``add`` joined and ``remove`` departed.

        Validates membership strictly — adding a present node or
        removing an absent one is a caller bug, not a no-op."""
        add = list(add)
        remove = list(remove)
        for node in add:
            if node in self.nodes:
                raise ValueError(f"node already in ring: {node!r}")
        for node in remove:
            if node not in self.nodes:
                raise ValueError(f"node not in ring: {node!r}")
        nodes = [n for n in self.nodes if n not in remove] + add
        if not nodes:
            raise ValueError("rebalance would empty the ring")
        return HashRing(nodes, vnodes=self.vnodes)

    def moved_keys(self, keys: Sequence, new_ring: "HashRing"
                   ) -> Dict[object, Tuple[str, str]]:
        """Keys whose owner differs between this ring and ``new_ring``,
        mapped to ``(old_owner, new_owner)``."""
        moved: Dict[object, Tuple[str, str]] = {}
        for key in keys:
            old_owner = self.lookup(key)
            new_owner = new_ring.lookup(key)
            if old_owner != new_owner:
                moved[key] = (old_owner, new_owner)
        return moved

    def spread(self, keys: Sequence) -> Dict[str, int]:
        """Key count per node — balance diagnostics for tests/reports."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.nodes)
