"""Per-tile cache hierarchy: L1I + L1D + private L2.

The L2 is the coherence point and holds real line data; the L1s are
timing-only tag arrays kept *inclusive* with the L2 (an L2 eviction or
invalidation removes the line from both L1s).  Graphite's target
memory architecture is exactly this: private L1 data and instruction
caches with local unified L2 caches (paper §3.2); Figure 8 disables the
L1s via ``CacheConfig.enabled``.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.common.config import MemoryConfig
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import Cache, CacheLine, LineState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel


class CacheHierarchy:
    """One tile's caches plus inclusion maintenance."""

    def __init__(self, tile: TileId, config: MemoryConfig,
                 stats: StatGroup,
                 telemetry: Optional["Channel"] = None) -> None:
        self.tile = tile
        self.config = config
        self.l1i: Optional[Cache] = (
            Cache("l1i", config.l1i, stats.child("l1i"))
            if config.l1i.enabled else None)
        self.l1d: Optional[Cache] = (
            Cache("l1d", config.l1d, stats.child("l1d"))
            if config.l1d.enabled else None)
        # Only the coherence point is traced; the timing-only L1 tag
        # arrays would triple event volume without adding information.
        self.l2 = Cache("l2", config.l2, stats.child("l2"),
                        tile=int(tile), telemetry=telemetry)

    # -- L1 timing-side -----------------------------------------------------------

    def fill_l1d(self, line_address: int) -> None:
        """Install the tag in the L1D after an L1 miss (no data)."""
        if self.l1d is not None:
            self.l1d.insert(line_address, LineState.SHARED, None)

    def fill_l1i(self, line_address: int) -> None:
        if self.l1i is not None:
            self.l1i.insert(line_address, LineState.SHARED, None)

    # -- L2 / coherence side ---------------------------------------------------------

    def l2_line(self, line_address: int, count: bool = True
                ) -> Optional[CacheLine]:
        """The L2's resident line, refreshing LRU."""
        return self.l2.lookup(line_address, count=count)

    def fill_l2(self, line_address: int, state: LineState,
                data: bytearray,
                timestamp: int = 0) -> Optional[CacheLine]:
        """Install a line in the L2; returns the victim if one fell out.

        Inclusion: the caller is responsible for handing the victim to
        the coherence engine; this method removes it from the L1s.
        """
        victim = self.l2.insert(line_address, state, data,
                                timestamp=timestamp)
        if victim is not None:
            self._purge_l1(victim.address)
        return victim

    def invalidate(self, line_address: int,
                   timestamp: int = 0) -> Optional[CacheLine]:
        """Coherence invalidation: drop the line from every level."""
        self._purge_l1(line_address)
        return self.l2.remove(line_address, timestamp=timestamp)

    def downgrade(self, line_address: int) -> Optional[CacheLine]:
        """M -> S transition on a remote read (data stays resident)."""
        line = self.l2.peek(line_address)
        if line is not None:
            line.state = LineState.SHARED
        return line

    def _purge_l1(self, line_address: int) -> None:
        if self.l1d is not None:
            self.l1d.remove(line_address)
        if self.l1i is not None:
            self.l1i.remove(line_address)

    # -- invariants (used by tests) ---------------------------------------------------

    def resident_l2_lines(self) -> List[CacheLine]:
        return list(self.l2)

    def check_inclusion(self) -> bool:
        """Every L1-resident tag must be L2-resident (inclusion)."""
        for l1 in (self.l1i, self.l1d):
            if l1 is None:
                continue
            for line in l1:
                if self.l2.peek(line.address) is None:
                    return False
        return True
