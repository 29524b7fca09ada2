"""The in-order core performance model.

Consumes dynamic instructions and pseudo-instructions and advances the
tile-local clock (paper §3.1).  The model is configurable through
:class:`repro.common.config.CoreConfig`: per-class instruction costs,
branch predictor geometry and misprediction penalty, store-buffer and
load-queue depths.

The model never performs functional work; it only accounts time.  This
keeps it swappable: a different core model (e.g. out-of-order issue)
could consume the same streams.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.common.config import CoreConfig
from repro.common.stats import StatGroup
from repro.core.branch import BranchPredictor
from repro.core.clock import TileClock
from repro.core.instruction import (
    BranchInstruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import InstructionClass, class_costs
from repro.core.lsu import LoadQueue, StoreBuffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.bus import Channel

#: Latency charged when a load hits a buffered store (forwarding).
STORE_FORWARD_LATENCY = 1


class CorePerfModel:
    """Timing model of one in-order core with an OoO memory interface."""

    def __init__(self, config: CoreConfig, stats: StatGroup,
                 telemetry: Optional["Channel"] = None,
                 tile: Optional[int] = None) -> None:
        self.config = config
        self.clock = TileClock()
        self.stats = stats
        #: SYNC-category telemetry channel for stall events, or ``None``.
        self._tele = telemetry
        self._tile = tile
        self.branch_predictor = BranchPredictor(
            config.branch_predictor_entries, stats.child("branch"))
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries, stats.child("lsu"))
        self.load_queue = LoadQueue(
            config.load_queue_entries, stats.child("lsu"))
        self._costs = class_costs(config.instruction_costs)
        self._instructions = stats.counter("instructions")
        self._memory_stall = stats.counter("memory_stall_cycles")
        self._branch_stall = stats.counter("branch_stall_cycles")
        self._sync_wait = stats.counter("sync_wait_cycles")

    # -- instruction consumption -------------------------------------------

    def execute(self, klass: InstructionClass, count: int = 1) -> None:
        """Retire a batch of ``count`` computational instructions."""
        self.clock.advance(self._costs[klass] * count)
        self._instructions.add(count)

    def execute_branch(self, branch: BranchInstruction) -> bool:
        """Retire a branch; charge the penalty on a misprediction."""
        cost = self._costs[InstructionClass.BRANCH]
        mispredicted = self.branch_predictor.predict_and_update(
            branch.pc, branch.taken)
        if mispredicted:
            cost += self.config.branch_mispredict_penalty
            self._branch_stall.add(self.config.branch_mispredict_penalty)
        self.clock.advance(cost)
        self._instructions.add()
        return mispredicted

    def execute_memory(self, klass: InstructionClass, address: int,
                       latency: int) -> int:
        """Retire a load or store; returns the cycles the pipeline spent.

        ``latency`` is the memory model's round trip for the access (it
        already includes network round trips for misses).

        Loads: charged the full round-trip latency (the in-order core
        needs the value), shortened to the forwarding latency when a
        buffered store holds the address; the load queue adds structural
        stalls.  Stores: buffered, so the pipeline only stalls when the
        store buffer is full.
        """
        now = self.clock.cycles
        issue_cost = self._costs[klass]
        if klass is InstructionClass.LOAD:
            if self.store_buffer.forwards(address):
                latency = min(latency, STORE_FORWARD_LATENCY)
            stall = self.load_queue.issue(now, latency)
            total = issue_cost + stall + latency
        elif klass is InstructionClass.STORE:
            stall = self.store_buffer.issue(now, address, latency)
            total = issue_cost + stall
        else:
            raise ValueError(f"not a memory instruction class: {klass}")
        self.clock.advance(total)
        self._instructions.add()
        self._memory_stall.add(total - issue_cost)
        return total

    def execute_pseudo(self, pseudo: PseudoInstruction) -> None:
        """Consume a pseudo-instruction from elsewhere in the system."""
        if pseudo.kind in (PseudoKind.MESSAGE_RECEIVE, PseudoKind.SYNC,
                           PseudoKind.SPAWN):
            before = self.clock.cycles
            self.clock.forward_to(pseudo.time)
            waited = self.clock.cycles - before
            self._sync_wait.add(waited)
            if waited > 0 and self._tele is not None:
                self._tele.emit("stall", self._tile, before,
                                {"cycles": waited,
                                 "kind": pseudo.kind.value})
        if pseudo.cost:
            self.clock.advance(pseudo.cost)

    def drain(self) -> None:
        """Wait for in-flight memory operations to complete.

        The in-order model already charges load latency synchronously;
        only buffered stores can be outstanding, and they never gate
        the local clock — so this is a no-op, present for interface
        parity with the out-of-order model.
        """

    def retire_functional(self, count: int = 1) -> None:
        """Retire ``count`` instructions at fixed unit cost.

        The fast-forward path (:mod:`repro.sample`): the instruction
        counter and the local clock advance — lax synchronization
        still needs monotone per-tile clocks — but the predictor,
        LSU and stall accounting are untouched.
        """
        self.clock.advance(count)
        self._instructions.add(count)

    # -- accessors -----------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Current local clock in cycles."""
        return self.clock.cycles

    @property
    def instruction_count(self) -> int:
        return self._instructions.value
