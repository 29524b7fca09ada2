"""Per-tile memory controller — the "MMU" of Figure 2b.

The front-end redirects every application memory reference here.  The
controller is the boundary between the interpreter and the memory
system: it validates addresses, splits accesses that straddle cache
lines, models the L1s (timing-only tag arrays), delegates line
ownership to the coherence engine, moves the actual bytes, and charges
the host cost of each model invocation.

Every data access runs line by line through :meth:`_access_line`.  A
private L1 hit there is one L1 probe plus the L2 peek that yields the
bytes; it never reaches the coherence engine.
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.common.errors import ProtocolError
from repro.common.ids import TileId
from repro.common.stats import StatGroup
from repro.memory.cache import CacheLine, LineState
from repro.memory.coherence import CoherenceEngine

#: Charges the host cost of one memory-model access (wired to the host
#: cost model by the simulator).
ChargeFn = Callable[[], None]


class MemoryController:
    """One tile's entry point into the memory system."""

    def __init__(self, tile: TileId, engine: CoherenceEngine,
                 charge_memory_access: ChargeFn,
                 stats: StatGroup) -> None:
        self.tile = tile
        self.engine = engine
        self.space = engine.space
        self.hierarchy = engine.hierarchies[int(tile)]
        self.line_bytes = engine.line_bytes
        self._line_mask = ~(engine.line_bytes - 1)
        self._l1d = self.hierarchy.l1d
        self._l1i = self.hierarchy.l1i
        self._l2 = self.hierarchy.l2
        self._charge_fn = charge_memory_access
        self._loads = stats.counter("loads")
        self._stores = stats.counter("stores")
        self._fetches = stats.counter("fetches")
        l1d = engine.config.l1d
        l1i = engine.config.l1i
        self._l1d_latency = l1d.access_latency if l1d.enabled else 0
        self._l1i_latency = l1i.access_latency if l1i.enabled else 0

    # -- one cache line ------------------------------------------------------

    def _access_line(self, address: int, line_address: int, size: int,
                     timestamp: int, write: bool
                     ) -> Tuple[CacheLine, int]:
        """Make one line readable (or writable); returns (line, latency).

        ``[address, address + size)`` lies within ``line_address``.
        """
        # Host-cost accounting is timing bookkeeping; fast-forward
        # (:mod:`repro.sample`) skips it along with the rest of the
        # memory timing model.
        if not self.engine.functional:
            self._charge_fn()
        l1d = self._l1d
        hit = l1d is not None and l1d.lookup(line_address) is not None
        if write:
            resident = self._l2.peek(line_address)
            if hit and resident is not None \
                    and resident.state is LineState.MODIFIED:
                return resident, self._l1d_latency
            line, miss_latency = self.engine.write_access(
                self.tile, address, size, timestamp)
        elif hit:
            line = self._l2.peek(line_address)
            if line is None:
                raise ProtocolError(
                    f"L1 holds {line_address:#x} but L2 does not "
                    f"(tile {int(self.tile)})")
            return line, self._l1d_latency
        else:
            line, miss_latency = self.engine.read_access(
                self.tile, address, size, timestamp)
        self.hierarchy.fill_l1d(line_address)
        return line, self._l1d_latency + miss_latency

    # -- data accesses ---------------------------------------------------------------

    def load(self, address: int, size: int, timestamp: int
             ) -> Tuple[bytes, int]:
        """Read target memory; returns (bytes, modelled latency)."""
        self.space.check_access(address, size)
        self._loads.value += 1
        out = b""
        latency = 0
        end = address + size
        while address < end:
            line_address = address & self._line_mask
            offset = address - line_address
            chunk = min(self.line_bytes - offset, end - address)
            line, piece_latency = self._access_line(
                address, line_address, chunk, timestamp + latency, False)
            assert line.data is not None
            out += line.data[offset:offset + chunk]
            latency += piece_latency
            address += chunk
        return out, latency

    def store(self, address: int, data: bytes, timestamp: int) -> int:
        """Write target memory; returns the modelled latency."""
        size = len(data)
        self.space.check_access(address, size)
        self._stores.value += 1
        classifier = self.engine.classifier
        latency = 0
        consumed = 0
        while consumed < size:
            line_address = address & self._line_mask
            offset = address - line_address
            chunk = min(self.line_bytes - offset, size - consumed)
            line, piece_latency = self._access_line(
                address, line_address, chunk, timestamp + latency, True)
            assert line.data is not None
            line.data[offset:offset + chunk] = \
                data[consumed:consumed + chunk]
            if classifier is not None:
                classifier.note_store(self.tile, address, chunk)
            latency += piece_latency
            consumed += chunk
            address += chunk
        return latency

    def fetch(self, pc: int, timestamp: int) -> int:
        """Model an instruction fetch at ``pc``; returns the latency.

        Code lines are read-shared and flow through the same coherence
        path as data (they are simply never written).
        """
        self._fetches.value += 1
        if not self.engine.functional:
            self._charge_fn()
        line_address = pc & self._line_mask
        l1i = self._l1i
        if l1i is not None and l1i.lookup(line_address) is not None:
            return self._l1i_latency
        _, miss_latency = self.engine.read_access(
            self.tile, pc, 4, timestamp)
        self.hierarchy.fill_l1i(line_address)
        return self._l1i_latency + miss_latency
