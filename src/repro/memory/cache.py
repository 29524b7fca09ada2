"""A set-associative cache with LRU replacement.

Used for the L1 instruction, L1 data, and L2 caches (Table 1).  The L2
is the coherence point and stores real line data; the L1s are
timing-only tag arrays kept inclusive with the L2.  Geometry and policy
come from :class:`repro.common.config.CacheConfig`.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import List, Optional, TYPE_CHECKING

from repro.common.config import CacheConfig
from repro.common.stats import StatGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel


class LineState(enum.Enum):
    """Coherence state of a cached line (absence is Invalid).

    MSI uses SHARED and MODIFIED; the MESI variant adds EXCLUSIVE —
    a clean line held by exactly one cache, which may be written
    without a directory round trip.
    """

    SHARED = "S"
    EXCLUSIVE = "E"
    MODIFIED = "M"


class CacheLine:
    """One resident cache line."""

    __slots__ = ("address", "state", "data")

    def __init__(self, address: int, state: LineState,
                 data: Optional[bytearray]) -> None:
        self.address = address
        self.state = state
        self.data = data

    @property
    def dirty(self) -> bool:
        return self.state is LineState.MODIFIED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheLine({self.address:#x}, {self.state.value})"


class Cache:
    """Set-associative LRU cache keyed by line-aligned addresses."""

    def __init__(self, name: str, config: CacheConfig,
                 stats: StatGroup, tile: Optional[int] = None,
                 telemetry: Optional["Channel"] = None) -> None:
        config.validate(name)
        self.name = name
        self.config = config
        self.tile = tile
        #: CACHE-category telemetry channel, or ``None`` (the default:
        #: only the L2 — the coherence point — is given a channel).
        self._tele = telemetry
        self.line_bytes = config.line_bytes
        self.associativity = config.associativity
        self.num_sets = config.num_sets
        self._line_shift = config.line_bytes.bit_length() - 1
        # Each set is an OrderedDict: iteration order == LRU order
        # (oldest first); move_to_end on touch.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.stats = stats
        self._lookups = stats.counter("lookups")
        self._hits = stats.counter("hits")
        self._evictions = stats.counter("evictions")
        self._invalidations = stats.counter("invalidations")

    def _set_of(self, line_address: int) -> "OrderedDict[int, CacheLine]":
        index = (line_address >> self._line_shift) % self.num_sets
        return self._sets[index]

    # -- operations -----------------------------------------------------------

    def lookup(self, line_address: int, touch: bool = True,
               count: bool = True) -> Optional[CacheLine]:
        """Find a resident line; ``touch`` refreshes its LRU position.

        ``count=False`` makes the probe invisible to hit/miss statistics
        (used by coherence-side probes that are not program accesses).
        """
        # ``_set_of`` and ``Counter.add`` inlined: lookup and peek
        # dominate the memory system's host cost on both execution modes.
        cache_set = self._sets[(line_address >> self._line_shift)
                               % self.num_sets]
        line = cache_set.get(line_address)
        if count:
            self._lookups.value += 1
            if line is not None:
                self._hits.value += 1
        if line is not None and touch:
            cache_set.move_to_end(line_address)
        return line

    def insert(self, line_address: int, state: LineState,
               data: Optional[bytearray] = None,
               timestamp: int = 0) -> Optional[CacheLine]:
        """Install a line; returns the evicted victim, if any.

        Inserting an already-resident address updates it in place and
        evicts nothing.  ``timestamp`` (target cycles) is only consumed
        by telemetry.
        """
        cache_set = self._set_of(line_address)
        existing = cache_set.get(line_address)
        if existing is not None:
            existing.state = state
            if data is not None:
                existing.data = data
            cache_set.move_to_end(line_address)
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            _, victim = cache_set.popitem(last=False)  # LRU
            self._evictions.add()
        cache_set[line_address] = CacheLine(line_address, state, data)
        if self._tele is not None:
            self._tele.emit("fill", self.tile, timestamp,
                            {"line": line_address, "state": state.value})
            if victim is not None:
                self._tele.emit("evict", self.tile, timestamp,
                                {"line": victim.address,
                                 "dirty": victim.dirty})
        return victim

    def remove(self, line_address: int,
               timestamp: int = 0) -> Optional[CacheLine]:
        """Invalidate a line (coherence); returns it if it was resident."""
        line = self._set_of(line_address).pop(line_address, None)
        if line is not None:
            self._invalidations.add()
            if self._tele is not None:
                self._tele.emit("invalidate", self.tile, timestamp,
                                {"line": line_address,
                                 "state": line.state.value})
        return line

    def peek(self, line_address: int) -> Optional[CacheLine]:
        """Lookup without LRU update or statistics."""
        return self._sets[(line_address >> self._line_shift)
                          % self.num_sets].get(line_address)

    # -- introspection -------------------------------------------------------

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        n = self._lookups.value
        return self._hits.value / n if n else 0.0

    @property
    def miss_count(self) -> int:
        return self._lookups.value - self._hits.value

    def __iter__(self):
        """Iterate over all resident lines (tests, invariant checks)."""
        for cache_set in self._sets:
            yield from cache_set.values()
