"""Consistent hashing: stable key -> shard placement for the cluster.

The sharded service (``ppchecker serve --shards N``) and the sharded
study plane route every job to one pipeline worker process by the
content hash of its input.  The placement function must be

- **deterministic across processes**: the accept process, a restarted
  supervisor, and a differential test harness must all agree -- so the
  ring hashes with :mod:`hashlib` (SHA-256), never the interpreter's
  seeded ``hash()``;
- **balanced**: keys spread evenly over shards (virtual nodes bound
  the skew);
- **stable under membership change**: when a shard dies or joins,
  only the keys owned by the affected arc move -- roughly ``1/N`` of
  the keyspace, not a full reshuffle (the property suite in
  ``tests/service/test_hashring_properties.py`` pins both bounds).

Everything is stdlib; a ring over a few dozen shards with the default
128 virtual nodes builds in well under a millisecond and answers
:meth:`HashRing.place` with one binary search.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

#: virtual nodes per shard; more nodes = tighter balance, linearly
#: larger ring.  128 keeps the max/mean key skew under ~1.35 for the
#: shard counts the service runs (2..64), pinned by the property suite.
DEFAULT_REPLICAS = 128


def stable_hash(key: str) -> int:
    """A 64-bit position derived from SHA-256 -- independent of
    ``PYTHONHASHSEED``, the platform, and the process."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over named shards.

    >>> ring = HashRing(["shard-0", "shard-1", "shard-2"])
    >>> ring.place("com.example.app")  # doctest: +SKIP
    'shard-1'

    Membership changes (:meth:`add` / :meth:`remove`) rebuild only the
    sorted point index; placements for keys not owned by the affected
    shard are unchanged (the minimal-remap property).
    """

    def __init__(self, shards: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[int] = []      # sorted virtual-node positions
        self._owners: list[str] = []      # _owners[i] owns _points[i]
        self._shards: dict[str, list[int]] = {}
        for shard in shards:
            self.add(shard)

    # -- membership --------------------------------------------------------

    def __contains__(self, shard: str) -> bool:
        return shard in self._shards

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> list[str]:
        """Current members, sorted (deterministic iteration order)."""
        return sorted(self._shards)

    def add(self, shard: str) -> None:
        """Add *shard*'s virtual nodes to the ring (idempotent)."""
        if shard in self._shards:
            return
        points = [stable_hash(f"{shard}#{replica}")
                  for replica in range(self.replicas)]
        self._shards[shard] = points
        for point in points:
            index = bisect.bisect_left(self._points, point)
            # ties between different shards' virtual nodes are broken
            # by owner name so insertion order never changes placement
            while (index < len(self._points)
                   and self._points[index] == point
                   and self._owners[index] < shard):
                index += 1
            self._points.insert(index, point)
            self._owners.insert(index, shard)

    def remove(self, shard: str) -> None:
        """Drop *shard* from the ring (idempotent)."""
        if shard not in self._shards:
            return
        del self._shards[shard]
        keep = [i for i, owner in enumerate(self._owners)
                if owner != shard]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- placement ---------------------------------------------------------

    def place(self, key: str) -> str:
        """The shard owning *key*: the first virtual node at or after
        the key's position, wrapping at the top of the ring."""
        if not self._points:
            raise LookupError("hash ring is empty")
        index = bisect.bisect_right(self._points, stable_hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def place_many(self, keys: Sequence[str]) -> dict[str, str]:
        """``{key: shard}`` for every key (one binary search each)."""
        return {key: self.place(key) for key in keys}

    def assignments(self, keys: Sequence[str]) -> dict[str, list[str]]:
        """``{shard: [keys...]}`` preserving *keys* order; every
        current member appears, possibly with an empty list."""
        out: dict[str, list[str]] = {shard: [] for shard in self.shards}
        for key in keys:
            out[self.place(key)].append(key)
        return out


def ring_for(count: int, replicas: int = DEFAULT_REPLICAS) -> HashRing:
    """The canonical ring over ``count`` numbered shards
    (``shard-0`` .. ``shard-N-1``) -- what ``--shards N`` builds in
    every process that must agree on placement."""
    if count < 1:
        raise ValueError("shard count must be >= 1")
    return HashRing((shard_name(i) for i in range(count)),
                    replicas=replicas)


def shard_name(index: int) -> str:
    return f"shard-{index}"


__all__ = ["DEFAULT_REPLICAS", "HashRing", "ring_for", "shard_name",
           "stable_hash"]
