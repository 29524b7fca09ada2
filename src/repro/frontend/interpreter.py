"""The interpreter: executes one thread's op stream against the models.

This is the meeting point of the whole back-end (Figure 2b): each op a
program yields is dispatched to the core performance model (timing),
the memory controller (functional bytes + timing), the network fabric
(messaging), or the MCP (synchronization, threads, system calls), and
the host cost of every event is charged to the scheduler.

Blocking ops return a ``BLOCKED`` quantum; the scheduler re-runs the
interpreter after a wake-up and the *same op object* is retried (its
mutable progress flags prevent duplicated side effects).  A wake-up
carries the waker's simulated timestamp, which forwards this tile's
clock — the lax synchronization rule.

Checkpointing: the program generator itself cannot pickle, so when
checkpoints are enabled (``config.ckpt.dir``) the interpreter records
every value passed to ``generator.send`` and a restore re-creates the
generator from the program reference and replays that log — pure
generator stepping, with every replayed op discarded (the models
already hold the post-op state from the snapshot).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.common.errors import CheckpointError, SimulationError
from repro.common.ids import ThreadId, TileId
from repro.core.instruction import (
    BranchInstruction,
    PseudoInstruction,
    PseudoKind,
)
from repro.core.isa import InstructionClass
from repro.core.factory import create_core_model
from repro.frontend import ops
from repro.frontend.api import ThreadContext
from repro.host.scheduler import QuantumResult, QuantumStatus, ThreadTask
from repro.transport.message import MessageKind

# Simulated-cycle costs of runtime services (the user-level library and
# trap handling around the raw system events).
SEND_CYCLES = 20
RECV_CYCLES = 20
SPAWN_CYCLES = 2000
JOIN_CYCLES = 100
MALLOC_CYCLES = 60
FREE_CYCLES = 40
LOCK_ALU_CYCLES = 4
SYSCALL_TRAP_CYCLES = 200

#: Synthetic code footprint walked by instruction fetches, per program
#: (the hot loop of a kernel; fits comfortably in the L1I).
CODE_FOOTPRINT_BYTES = 1024

#: Sentinel: the current op blocked; retry it after a wake-up.
_BLOCK = object()

#: Wire overhead of a user message (header bytes).
USER_MESSAGE_HEADER = 8


class ThreadInterpreter(ThreadTask):
    """Drives one application thread (generator) to completion."""

    def __init__(self, kernel: Any, tile: TileId, program: Any,
                 args: tuple = (), start_clock: int = 0) -> None:
        self.kernel = kernel
        self.tile = tile
        self.program = program
        self.args = tuple(args)
        #: Shippable identity of ``program`` (a ``WorkloadRef`` /
        #: ``PickledProgram``), set by the spawner when known; used to
        #: re-create the generator after a checkpoint restore.
        self.program_ref: Any = None
        stats = kernel.stats.child(f"thread{int(tile)}")
        core_config = kernel.config.core_config_for(int(tile))
        channel = None
        tele_bus = getattr(kernel, "telemetry", None)
        if tele_bus is not None:
            from repro.telemetry.events import EventCategory
            channel = tele_bus.channel(EventCategory.SYNC)
        self.core = create_core_model(core_config, stats.child("core"),
                                      telemetry=channel, tile=int(tile))
        #: Runtime sanitizers (``--sanitize``), or ``None``.
        self._sanitizers = getattr(kernel, "sanitizers", None)
        self.core.clock.forward_to(start_clock)
        self.memory = kernel.controllers[int(tile)]
        self.netif = kernel.fabric.interface(tile)
        self.context = ThreadContext(ThreadId(int(tile)),
                                     kernel.config.num_tiles)
        self.generator = program(self.context, *args)
        #: Clock at which this thread began (its spawn timestamp).
        self.start_clock = start_clock
        self._send_value: Any = None
        self._pending_op: Any = None
        self._wake_time: Optional[int] = None
        self._finished = False
        #: Value returned by the program generator, if any.
        self.result: Any = None
        self._fetch_cursor = 0
        self._code_base = kernel.code_base(program)
        self._model_ifetch = kernel.config.memory.l1i.enabled
        self._l1i_hit_latency = kernel.config.memory.l1i.access_latency
        #: Replay log for checkpoint/restore: every value handed to
        #: ``generator.send`` since genesis, or ``None`` when the run
        #: is not snapshottable.  Cleared when the thread finishes.
        #: Shard migration (:mod:`repro.net`) rides the same log — a
        #: migrated interpreter is rebuilt by replay on the adopting
        #: worker — so migration-capable runs keep it too.
        ckpt = getattr(kernel.config, "ckpt", None)
        distrib = getattr(kernel.config, "distrib", None)
        snapshottable = (ckpt is not None and ckpt.enabled) or (
            distrib is not None
            and getattr(distrib, "migration_capable", None) is not None
            and distrib.migration_capable())
        self._ckpt_log: Optional[List[Any]] = (
            [] if snapshottable else None)

    # -- ThreadTask interface ------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.core.cycles

    def notify_wake(self, timestamp: int) -> None:
        """Forward the clock to a wake event's timestamp.

        The forward happens eagerly (the wake IS the synchronization
        event), and the timestamp is also remembered so the retried op
        charges its sync-wait statistics on resume.
        """
        self.core.clock.forward_to(timestamp)
        if self._sanitizers is not None:
            self._sanitizers.on_interaction(int(self.tile), timestamp,
                                            self.core.cycles)
        if self._wake_time is None or timestamp > self._wake_time:
            self._wake_time = timestamp

    def run(self, budget_instructions: int,
            cycle_limit: Optional[int] = None) -> QuantumResult:
        if self._finished:
            raise SimulationError("running a finished thread")
        # Execution mode is sampled once per quantum: the scheduler only
        # flips it at quantum boundaries (:mod:`repro.sample`).
        functional = bool(getattr(self.kernel, "exec_functional", False))
        handlers = self._FF_HANDLERS if functional else self._HANDLERS
        executed = 0
        while executed < budget_instructions:
            if cycle_limit is not None and self.core.cycles >= cycle_limit:
                return QuantumResult(QuantumStatus.RAN, executed)
            if self._pending_op is not None:
                op = self._pending_op
                self._consume_wake(functional)
            else:
                if self._ckpt_log is not None:
                    self._ckpt_log.append(self._send_value)
                try:
                    op = self.generator.send(self._send_value)
                except StopIteration as stop:
                    self.result = stop.value
                    return self._finish(executed)
                self._send_value = None
            handler = handlers.get(type(op))
            if handler is None:
                raise SimulationError(f"unknown front-end op {op!r}")
            result = handler(self, op)
            if result is _BLOCK:
                self._pending_op = op
                return QuantumResult(QuantumStatus.BLOCKED, executed)
            self._pending_op = None
            self._send_value = result
            executed += op.count if isinstance(op, ops.Compute) else 1
        return QuantumResult(QuantumStatus.RAN, executed)

    def _finish(self, executed: int) -> QuantumResult:
        self._finished = True
        # A finished thread never replays; drop the log so snapshots
        # of long runs do not keep every completed thread's history.
        self._ckpt_log = None
        # Retire everything in flight before reporting the final clock.
        self.core.drain()
        self.kernel.thread_finished(self.tile, self.core.cycles)
        return QuantumResult(QuantumStatus.DONE, executed)

    # -- checkpoint support ---------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle everything except the generator (unpicklable).

        The program is replaced by its shippable reference so the
        snapshot never embeds a workload-builder closure; restore
        resolves it back and :meth:`rebuild_generator` replays the
        send log to reconstruct the generator's position.
        """
        state = dict(self.__dict__)
        state["generator"] = None
        ref = self.program_ref
        if ref is None:
            from repro.distrib.wire import make_program_ref
            ref = make_program_ref(self.program)
        state["program"] = ref
        state["program_ref"] = ref
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if hasattr(self.program, "resolve"):
            self.program = self.program.resolve()

    def rebuild_generator(self) -> None:
        """Reconstruct the generator after a restore by replaying.

        Re-creates the generator from the resolved program and feeds
        it the recorded send values; every op it yields during replay
        is discarded — the models already hold the post-op state from
        the snapshot, and a blocked thread retries its pickled
        ``_pending_op`` (which carries the mutated progress flags),
        not the freshly-yielded duplicate.
        """
        if self._finished or self.generator is not None:
            return
        if self._ckpt_log is None:
            raise CheckpointError(
                f"tile {int(self.tile)}: no replay log in snapshot")
        generator = self.program(self.context, *self.args)
        for index, value in enumerate(self._ckpt_log):
            try:
                generator.send(value)
            except StopIteration:
                raise CheckpointError(
                    f"tile {int(self.tile)}: replay ended after "
                    f"{index} of {len(self._ckpt_log)} sends — the "
                    f"program is not deterministic") from None
        self.generator = generator

    def _consume_wake(self, functional: bool = False) -> None:
        if self._wake_time is not None:
            if functional:
                self.core.clock.forward_to(self._wake_time)
            else:
                self.core.execute_pseudo(PseudoInstruction(
                    PseudoKind.SYNC, time=self._wake_time))
            self._wake_time = None

    # -- op dispatch ------------------------------------------------------------------

    def _execute(self, op: Any) -> Any:
        handler = self._HANDLERS.get(type(op))
        if handler is None:
            raise SimulationError(f"unknown front-end op {op!r}")
        return handler(self, op)

    def _fetch(self) -> None:
        """Model the instruction fetch for one op (one basic block)."""
        if not self._model_ifetch:
            return
        pc = self._code_base + self._fetch_cursor
        self._fetch_cursor = (self._fetch_cursor + 64) % CODE_FOOTPRINT_BYTES
        latency = self.memory.fetch(pc, self.core.cycles)
        if latency > self._l1i_hit_latency:
            # Only the miss portion stalls; hit latency is pipelined.
            self.core.clock.advance(latency - self._l1i_hit_latency)

    # -- computational ops ----------------------------------------------------------------

    def _op_compute(self, op: ops.Compute) -> None:
        self._fetch()
        self.core.execute(op.klass, op.count)
        self.kernel.charge_instructions(op.count)

    def _op_branch(self, op: ops.Branch) -> None:
        self._fetch()
        pc = op.pc if op.pc is not None else self._code_base
        self.core.execute_branch(BranchInstruction(pc, op.taken))
        self.kernel.charge_instructions(1)

    # -- memory ops ------------------------------------------------------------------------

    def _op_load(self, op: ops.Load) -> bytes:
        self._fetch()
        data, latency = self.memory.load(op.address, op.size,
                                         self.core.cycles)
        self.core.execute_memory(InstructionClass.LOAD, op.address,
                                 latency)
        self.kernel.charge_instructions(1)
        return data

    def _op_store(self, op: ops.Store) -> None:
        self._fetch()
        latency = self.memory.store(op.address, op.data, self.core.cycles)
        self.core.execute_memory(InstructionClass.STORE, op.address,
                                 latency)
        self.kernel.charge_instructions(1)

    def _op_malloc(self, op: ops.Malloc) -> int:
        self.core.clock.advance(MALLOC_CYCLES)
        self.kernel.charge_trap()
        return self.kernel.allocator.malloc(op.size, op.align)

    def _op_free(self, op: ops.Free) -> None:
        self.core.clock.advance(FREE_CYCLES)
        self.kernel.charge_trap()
        self.kernel.allocator.free(op.address)

    # -- messaging -----------------------------------------------------------------------------

    def _op_send(self, op: ops.Send) -> None:
        self.core.execute(InstructionClass.GENERIC, SEND_CYCLES)
        dst_tile = TileId(int(op.dst))
        self.netif.send(dst_tile, payload=(int(self.tile), op.payload),
                        kind=MessageKind.USER,
                        size_bytes=len(op.payload) + USER_MESSAGE_HEADER,
                        timestamp=self.core.cycles, tag=op.tag)
        # The receiver may be blocked in Recv; let it re-check.
        self.kernel.wake_scheduler(dst_tile)

    def _op_recv(self, op: ops.Recv) -> Any:
        src_tile = TileId(int(op.src)) if op.src is not None else None
        message = self.netif.poll_match(MessageKind.USER, src=src_tile,
                                        tag=op.tag)
        if message is None:
            return _BLOCK
        # "Message receive pseudo-instruction" (paper §3.1): the clock
        # forwards to the message's arrival time, then pays recv cost.
        self.core.execute_pseudo(PseudoInstruction(
            PseudoKind.MESSAGE_RECEIVE, time=message.arrival_time,
            cost=RECV_CYCLES))
        if self._sanitizers is not None:
            self._sanitizers.on_interaction(
                int(self.tile), message.arrival_time, self.core.cycles)
        sender, payload = message.payload
        return (ThreadId(sender), payload)

    # -- synchronization ---------------------------------------------------------------------------

    def _rmw_lock_word(self, address: int) -> int:
        """Atomic RMW on a lock word: the coherence traffic of a futex.

        Returns the value read.  The word is acquired exclusively (a
        cmpxchg needs ownership) so contended locks really ping-pong.
        """
        data, load_latency = self.memory.load(address, 8, self.core.cycles)
        self.core.execute_memory(InstructionClass.LOAD, address,
                                 load_latency)
        value = int.from_bytes(data, "little")
        store_latency = self.memory.store(
            address, data, self.core.cycles)  # ownership acquisition
        self.core.execute_memory(InstructionClass.STORE, address,
                                 store_latency)
        self.core.execute(InstructionClass.IALU, LOCK_ALU_CYCLES)
        self.kernel.charge_instructions(4)
        return value

    def _op_lock(self, op: ops.Lock) -> Any:
        value = self._rmw_lock_word(op.address)
        if value == 0:
            holder = int(self.tile) + 1  # nonzero == locked
            latency = self.memory.store(
                op.address, holder.to_bytes(8, "little"), self.core.cycles)
            self.core.execute_memory(InstructionClass.STORE, op.address,
                                     latency)
            return None
        # Contended: forward to the MCP futex (system network round trip)
        # and sleep until an unlock wakes us.
        self._system_round_trip()
        self.core.clock.advance(SYSCALL_TRAP_CYCLES)
        self.kernel.mcp.futex.wait(op.address, self.tile)
        return _BLOCK

    def _op_unlock(self, op: ops.Unlock) -> None:
        latency = self.memory.store(op.address, bytes(8), self.core.cycles)
        self.core.execute_memory(InstructionClass.STORE, op.address,
                                 latency)
        self.kernel.charge_instructions(2)
        woken = self.kernel.mcp.futex.wake(op.address, 1, self.core.cycles)
        if woken:
            self._system_round_trip()

    def _op_barrier(self, op: ops.BarrierWait) -> Any:
        if not op.registered:
            self._rmw_lock_word(op.address)
            self._system_round_trip()
            release = self.kernel.mcp.barrier_arrive(
                op.address, op.participants, self.tile, self.core.cycles)
            op.registered = True
            if release is None:
                return _BLOCK
            op.registered = False
            self.core.execute_pseudo(PseudoInstruction(
                PseudoKind.SYNC, time=release))
            return None
        # Retried after a wake: released unless we are still registered.
        if self.kernel.mcp.barrier_is_waiting(op.address, self.tile):
            return _BLOCK
        op.registered = False
        return None

    # -- threads -----------------------------------------------------------------------------------

    def _op_spawn(self, op: ops.Spawn) -> ThreadId:
        self._system_round_trip()
        self.core.clock.advance(SPAWN_CYCLES)
        child = self.kernel.spawn_thread(op.program, op.args, self.tile,
                                         self.core.cycles)
        return child

    def _op_join(self, op: ops.Join) -> Any:
        target = TileId(int(op.thread))
        if not op.registered:
            self._system_round_trip()
            self.core.clock.advance(JOIN_CYCLES)
            final = self.kernel.mcp.threads.try_join(self.tile, target)
            op.registered = True
            if final is None:
                return _BLOCK
            op.registered = False
            self.core.execute_pseudo(PseudoInstruction(
                PseudoKind.SYNC, time=final))
            return None
        final = self.kernel.mcp.threads.final_clock(target)
        if final is None:
            return _BLOCK  # spurious wake; child still running
        op.registered = False
        return None

    # -- system calls -----------------------------------------------------------------------------------

    def _op_syscall(self, op: ops.Syscall) -> Any:
        self._system_round_trip()
        self.core.clock.advance(SYSCALL_TRAP_CYCLES)
        self.kernel.charge_trap()
        return self.kernel.mcp.syscalls.execute(op.name, op.args)

    # -- helpers -------------------------------------------------------------------------------------------

    def _system_round_trip(self) -> None:
        """A control round trip to the MCP over the system network."""
        from repro.system.mcp import MCP_TILE
        clock = self.core.cycles
        out = self.kernel.fabric.transfer(self.tile, MCP_TILE,
                                          MessageKind.SYSTEM, 32, clock)
        self.kernel.fabric.transfer(MCP_TILE, self.tile,
                                    MessageKind.SYSTEM, 32, clock + out)

    # -- functional fast-forward handlers (:mod:`repro.sample`) -------------------------

    # Every handler below performs the *identical* functional work as
    # its detailed twin — bytes move, locks acquire, messages deliver,
    # threads spawn — but time is accounted at fixed unit cost: no
    # instruction fetch, no branch predictor, no LSU, no host-cost
    # charges.  The instruction counter advances by the same amounts as
    # the detailed handlers so fast-forwarded instruction totals remain
    # comparable.  Crucially, nothing here depends on the core or
    # network configuration, so variants forked from a shared
    # fast-forward snapshot see byte-identical architectural state.

    def _ff_compute(self, op: ops.Compute) -> None:
        self.core.retire_functional(op.count)

    def _ff_branch(self, op: ops.Branch) -> None:
        self.core.retire_functional(1)

    def _ff_load(self, op: ops.Load) -> bytes:
        data, _ = self.memory.load(op.address, op.size, self.core.cycles)
        self.core.retire_functional(1)
        return data

    def _ff_store(self, op: ops.Store) -> None:
        self.memory.store(op.address, op.data, self.core.cycles)
        self.core.retire_functional(1)

    def _ff_malloc(self, op: ops.Malloc) -> int:
        self.core.clock.advance(MALLOC_CYCLES)
        return self.kernel.allocator.malloc(op.size, op.align)

    def _ff_free(self, op: ops.Free) -> None:
        self.core.clock.advance(FREE_CYCLES)
        self.kernel.allocator.free(op.address)

    def _ff_send(self, op: ops.Send) -> None:
        self.core.retire_functional(SEND_CYCLES)
        dst_tile = TileId(int(op.dst))
        self.netif.send(dst_tile, payload=(int(self.tile), op.payload),
                        kind=MessageKind.USER,
                        size_bytes=len(op.payload) + USER_MESSAGE_HEADER,
                        timestamp=self.core.cycles, tag=op.tag)
        self.kernel.wake_scheduler(dst_tile)

    def _ff_recv(self, op: ops.Recv) -> Any:
        src_tile = TileId(int(op.src)) if op.src is not None else None
        message = self.netif.poll_match(MessageKind.USER, src=src_tile,
                                        tag=op.tag)
        if message is None:
            return _BLOCK
        self.core.clock.forward_to(message.arrival_time)
        self.core.clock.advance(RECV_CYCLES)
        sender, payload = message.payload
        return (ThreadId(sender), payload)

    def _ff_rmw_lock_word(self, address: int) -> int:
        data, _ = self.memory.load(address, 8, self.core.cycles)
        self.memory.store(address, data, self.core.cycles)
        self.core.retire_functional(2 + LOCK_ALU_CYCLES)
        return int.from_bytes(data, "little")

    def _ff_lock(self, op: ops.Lock) -> Any:
        value = self._ff_rmw_lock_word(op.address)
        if value == 0:
            holder = int(self.tile) + 1
            self.memory.store(op.address, holder.to_bytes(8, "little"),
                              self.core.cycles)
            self.core.retire_functional(1)
            return None
        self.core.clock.advance(SYSCALL_TRAP_CYCLES)
        self.kernel.mcp.futex.wait(op.address, self.tile)
        return _BLOCK

    def _ff_unlock(self, op: ops.Unlock) -> None:
        self.memory.store(op.address, bytes(8), self.core.cycles)
        self.core.retire_functional(1)
        self.kernel.mcp.futex.wake(op.address, 1, self.core.cycles)

    def _ff_barrier(self, op: ops.BarrierWait) -> Any:
        if not op.registered:
            self._ff_rmw_lock_word(op.address)
            release = self.kernel.mcp.barrier_arrive(
                op.address, op.participants, self.tile, self.core.cycles)
            op.registered = True
            if release is None:
                return _BLOCK
            op.registered = False
            self.core.clock.forward_to(release)
            return None
        if self.kernel.mcp.barrier_is_waiting(op.address, self.tile):
            return _BLOCK
        op.registered = False
        return None

    def _ff_spawn(self, op: ops.Spawn) -> ThreadId:
        self.core.clock.advance(SPAWN_CYCLES)
        return self.kernel.spawn_thread(op.program, op.args, self.tile,
                                        self.core.cycles)

    def _ff_join(self, op: ops.Join) -> Any:
        target = TileId(int(op.thread))
        if not op.registered:
            self.core.clock.advance(JOIN_CYCLES)
            final = self.kernel.mcp.threads.try_join(self.tile, target)
            op.registered = True
            if final is None:
                return _BLOCK
            op.registered = False
            self.core.clock.forward_to(final)
            return None
        final = self.kernel.mcp.threads.final_clock(target)
        if final is None:
            return _BLOCK
        op.registered = False
        return None

    def _ff_syscall(self, op: ops.Syscall) -> Any:
        self.core.clock.advance(SYSCALL_TRAP_CYCLES)
        return self.kernel.mcp.syscalls.execute(op.name, op.args)

    _HANDLERS = {
        ops.Compute: _op_compute,
        ops.Branch: _op_branch,
        ops.Load: _op_load,
        ops.Store: _op_store,
        ops.Malloc: _op_malloc,
        ops.Free: _op_free,
        ops.Send: _op_send,
        ops.Recv: _op_recv,
        ops.Lock: _op_lock,
        ops.Unlock: _op_unlock,
        ops.BarrierWait: _op_barrier,
        ops.Spawn: _op_spawn,
        ops.Join: _op_join,
        ops.Syscall: _op_syscall,
    }

    _FF_HANDLERS = {
        ops.Compute: _ff_compute,
        ops.Branch: _ff_branch,
        ops.Load: _ff_load,
        ops.Store: _ff_store,
        ops.Malloc: _ff_malloc,
        ops.Free: _ff_free,
        ops.Send: _ff_send,
        ops.Recv: _ff_recv,
        ops.Lock: _ff_lock,
        ops.Unlock: _ff_unlock,
        ops.BarrierWait: _ff_barrier,
        ops.Spawn: _ff_spawn,
        ops.Join: _ff_join,
        ops.Syscall: _ff_syscall,
    }
