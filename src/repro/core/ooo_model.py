"""An out-of-order core performance model.

Paper §3.1: "It is also possible to implement core models that differ
drastically from the operation of the functional models — i.e.,
although the simulator is functionally in-order with sequentially
consistent memory, the core performance model can be an out-of-order
core with a relaxed memory model.  Models throughout the remainder of
the system will reflect the new core type, as they are ultimately based
on clocks updated by the core model."

This model demonstrates exactly that swap.  It approximates an OoO
machine with a reorder-buffer window and multi-issue dispatch:

* instructions dispatch ``dispatch_width`` per cycle;
* memory operations occupy a window slot until their (memory-model
  supplied) latency elapses, overlapping with later work instead of
  stalling the pipeline — memory-level parallelism up to the window
  size;
* the pipeline stalls only when the window is full (waiting for the
  oldest entry) — an in-order-retire approximation of ROB pressure;
* branch mispredictions flush: the penalty is charged and the window
  drains (speculative overlap across a mispredicted branch is lost);
* synchronization pseudo-instructions drain the window before the
  clock forwards (a sync event orders everything before it).

The functional simulator remains sequentially consistent; only *time*
changes — which is the paper's point.
"""

from __future__ import annotations

import heapq
from typing import List

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


class OutOfOrderCoreModel:
    """Window-based OoO timing model (same interface as the in-order)."""

    def __init__(self, config: CoreConfig, stats: StatGroup,
                 telemetry=None, tile=None) -> None:
        self.config = config
        self.clock = TileClock()
        self.stats = stats
        #: SYNC-category telemetry channel for stall events, or ``None``.
        self._tele = telemetry
        self._tile = tile
        self.branch_predictor = BranchPredictor(
            config.branch_predictor_entries, stats.child("branch"))
        self._costs = class_costs(config.instruction_costs)
        self.window_size = config.rob_entries
        self.dispatch_width = max(config.dispatch_width, 1)
        #: Min-heap of completion times of in-flight long-latency ops.
        self._window: List[int] = []
        #: Fractional dispatch accumulator (width > 1).
        self._dispatch_backlog = 0.0
        self._instructions = stats.counter("instructions")
        self._memory_stall = stats.counter("memory_stall_cycles")
        self._branch_stall = stats.counter("branch_stall_cycles")
        self._sync_wait = stats.counter("sync_wait_cycles")
        self._window_stalls = stats.counter("window_stall_cycles")
        self._overlapped = stats.counter("overlapped_latency_cycles")

    # -- internal helpers ---------------------------------------------------

    def _dispatch(self, issue_cycles: float) -> None:
        """Advance the clock by front-end dispatch time."""
        # The backlog intentionally accumulates fractional issue cycles;
        # only whole cycles ever reach the clock below.
        self._dispatch_backlog += (
            issue_cycles / self.dispatch_width)  # check: allow D004 -- fractional backlog
        whole = int(self._dispatch_backlog)
        if whole:
            self.clock.advance(whole)
            self._dispatch_backlog -= whole
        self._retire_completed()

    def _retire_completed(self) -> None:
        now = self.clock.cycles
        while self._window and self._window[0] <= now:
            heapq.heappop(self._window)

    def _reserve_slot(self) -> None:
        """Stall until the window has room for one more in-flight op."""
        if len(self._window) >= self.window_size:
            oldest = heapq.heappop(self._window)
            if oldest > self.clock.cycles:
                self._window_stalls.add(oldest - self.clock.cycles)
                self.clock.forward_to(oldest)
            self._retire_completed()

    def drain(self) -> None:
        """Wait for every in-flight operation to complete."""
        if self._window:
            last = max(self._window)
            if last > self.clock.cycles:
                self._memory_stall.add(last - self.clock.cycles)
                self.clock.forward_to(last)
            self._window.clear()

    # -- the core-model interface ----------------------------------------------

    def execute(self, klass: InstructionClass, count: int = 1) -> None:
        self._dispatch(self._costs[klass] * count)
        self._instructions.add(count)

    def execute_branch(self, branch: BranchInstruction) -> bool:
        mispredicted = self.branch_predictor.predict_and_update(
            branch.pc, branch.taken)
        self._dispatch(self._costs[InstructionClass.BRANCH])
        if mispredicted:
            # Flush: lose the overlap and pay the redirect penalty.
            self.drain()
            self.clock.advance(self.config.branch_mispredict_penalty)
            self._branch_stall.add(self.config.branch_mispredict_penalty)
        self._instructions.add()
        return mispredicted

    def execute_memory(self, klass: InstructionClass, address: int,
                       latency: int) -> int:
        """Memory ops overlap: they occupy a window slot, not the pipe."""
        issue_cost = self._costs[klass]
        self._dispatch(issue_cost)
        self._reserve_slot()
        before = self.clock.cycles
        heapq.heappush(self._window, before + latency)
        self._overlapped.add(latency)
        self._instructions.add()
        return self.clock.cycles - before + issue_cost

    def execute_pseudo(self, pseudo: PseudoInstruction) -> None:
        if pseudo.kind in (PseudoKind.MESSAGE_RECEIVE, PseudoKind.SYNC,
                           PseudoKind.SPAWN):
            # Synchronization orders everything before it.
            self.drain()
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

    def retire_functional(self, count: int = 1) -> None:
        """Unit-cost retirement for fast-forward (:mod:`repro.sample`).

        Identical to the in-order model's — fast-forward progress must
        not depend on which timing model a variant selects, or shared
        prefix snapshots would diverge."""
        self.clock.advance(count)
        self._instructions.add(count)

    # -- accessors ------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.clock.cycles

    @property
    def instruction_count(self) -> int:
        return self._instructions.value
