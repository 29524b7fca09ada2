"""Worker process: executes the interpreters of one tile shard.

A worker is the mp backend's analogue of one Graphite target process:
it owns the tile threads striped onto it (paper §3.5) and *really*
executes their programs — the generators run here, op by op, through
unmodified :class:`~repro.frontend.interpreter.ThreadInterpreter`
instances.  What the worker does **not** own is shared simulation
state: the memory system, network models, MCP, allocator, host cost
model and scheduler all live in the coordinator, reached through
:class:`KernelProxy` — a stand-in for the kernel object whose local
pieces (config, per-thread stats, inbound message queues) are worker
resident and whose shared pieces are RPCs over the control pipe.

Determinism: the pipe is FIFO and the coordinator runs exactly one
quantum anywhere at a time, so kernel calls reach the coordinator in
the same order the in-process backend would make them — including the
order in which the jittered cost model's RNG is consumed.  Host-cost
charges are casts: ``kernel.charge_instructions(n)`` and
``kernel.charge_trap()`` here send a cost token, and the coordinator's
cost model draws the jitter and charges it when the cast arrives, in
cast order.
"""

from __future__ import annotations

import pickle
import sys
import traceback
from typing import Any, List, Optional

from repro.common.config import SimulationConfig
from repro.common.ids import ThreadId, TileId
from repro.common.stats import StatGroup
from repro.distrib.shard import ShardQueues
from repro.distrib.wire import (
    FrameKind,
    HostStatsBatch,
    ShardCheckpoint,
    decode_frame,
    encode_frame,
)
from repro.frontend.interpreter import ThreadInterpreter
from repro.profile.timers import create_profiler
from repro.telemetry.aggregate import TelemetryBatch
from repro.telemetry.bus import create_bus
from repro.telemetry.events import EventCategory
from repro.transport.message import Message, MessageKind


class _MemoryProxy:
    """``kernel.controllers[tile]`` stand-in: RPCs to the real MC."""

    __slots__ = ("_kernel", "_tile")

    def __init__(self, kernel: "KernelProxy", tile: int) -> None:
        self._kernel = kernel
        self._tile = tile

    def load(self, address: int, size: int, timestamp: int):
        return self._kernel.rpc("memory_load",
                                (self._tile, address, size, timestamp))

    def store(self, address: int, data: bytes, timestamp: int) -> int:
        return self._kernel.rpc("memory_store",
                                (self._tile, address, data, timestamp))

    def fetch(self, pc: int, timestamp: int) -> int:
        return self._kernel.rpc("memory_fetch",
                                (self._tile, pc, timestamp))


class _NetIfProxy:
    """Per-tile network endpoint: sends are RPCs, receives are local.

    Inbound queues are worker-owned (fed by DELIVER frames), so the
    receive path — the only transport operation on an interpreter's
    critical polling loop — never crosses the process boundary.
    """

    __slots__ = ("_kernel", "tile")

    def __init__(self, kernel: "KernelProxy", tile: TileId) -> None:
        self._kernel = kernel
        self.tile = tile

    def send(self, dst: TileId, payload: Any = None,
             kind: MessageKind = MessageKind.USER, size_bytes: int = 8,
             timestamp: int = 0, tag: Optional[int] = None) -> None:
        return self._kernel.rpc("fabric_send",
                                (int(self.tile), int(dst), kind.value,
                                 payload, size_bytes, timestamp, tag))

    def poll(self, kind: MessageKind) -> Optional[Message]:
        return self._kernel.queues.poll(self.tile, kind)

    def poll_match(self, kind: MessageKind, src: Optional[TileId] = None,
                   tag: Optional[int] = None) -> Optional[Message]:
        return self._kernel.queues.poll_match(self.tile, kind, src, tag)

    def pending(self, kind: MessageKind) -> int:
        return self._kernel.queues.pending(self.tile, kind)


class _FabricProxy:
    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def interface(self, tile: TileId) -> _NetIfProxy:
        return _NetIfProxy(self._kernel, tile)

    def transfer(self, src: TileId, dst: TileId, kind: MessageKind,
                 size_bytes: int, timestamp: int) -> int:
        return self._kernel.rpc("fabric_transfer",
                                (int(src), int(dst), kind.value,
                                 size_bytes, timestamp))


class _AllocatorProxy:
    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def malloc(self, size: int, align: int = 8) -> int:
        return self._kernel.rpc("malloc", (size, align))

    def free(self, address: int) -> None:
        return self._kernel.rpc("free", (address,))


class _FutexProxy:
    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def wait(self, address: int, tile: TileId) -> None:
        return self._kernel.rpc("futex_wait", (address, int(tile)))

    def wake(self, address: int, count: int, clock: int) -> int:
        return self._kernel.rpc("futex_wake", (address, count, clock))


class _ThreadsProxy:
    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def try_join(self, tile: TileId, target: TileId) -> Optional[int]:
        return self._kernel.rpc("try_join", (int(tile), int(target)))

    def final_clock(self, target: TileId) -> Optional[int]:
        return self._kernel.rpc("final_clock", (int(target),))


class _SyscallsProxy:
    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def execute(self, name: str, args: tuple) -> Any:
        return self._kernel.rpc("syscall", (name, args))


class _McpProxy:
    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel
        self.futex = _FutexProxy(kernel)
        self.threads = _ThreadsProxy(kernel)
        self.syscalls = _SyscallsProxy(kernel)

    def barrier_arrive(self, address: int, total: int, tile: TileId,
                       clock: int) -> Optional[int]:
        return self._kernel.rpc("barrier_arrive",
                                (address, total, int(tile), clock))

    def barrier_is_waiting(self, address: int, tile: TileId) -> bool:
        return self._kernel.rpc("barrier_is_waiting",
                                (address, int(tile)))


class _ControllerTable:
    """Lazy ``controllers[tile]`` lookup over the whole tile space."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel: "KernelProxy") -> None:
        self._kernel = kernel

    def __getitem__(self, tile: int) -> _MemoryProxy:
        return _MemoryProxy(self._kernel, int(tile))


class KernelProxy:
    """The kernel object handed to this worker's interpreters."""

    def __init__(self, worker: "Worker",
                 config: SimulationConfig) -> None:
        self._worker = worker
        self.config = config
        #: Execution mode sampled by the interpreters once per quantum
        #: (:mod:`repro.sample`).  Driven by SET_MODE frames (wire v6)
        #: so it only ever changes between quanta; pickles with the
        #: shard, so a checkpoint taken mid-fast-forward resumes
        #: functional.
        self.exec_functional = False
        self.stats = StatGroup("sim")
        self.queues = worker.queues
        #: Worker-local event bus: no sinks (a worker never opens the
        #: coordinator's trace file); events batch over the wire.
        self.telemetry = create_bus(config.telemetry, with_sinks=False)
        self.controllers = _ControllerTable(self)
        self.fabric = _FabricProxy(self)
        self.allocator = _AllocatorProxy(self)
        self.mcp = _McpProxy(self)
        #: Code base shipped in the SPAWN frame currently being handled;
        #: consumed by the interpreter's single ``code_base`` call.
        self._pending_code_base: Optional[int] = None
        self._code_bases: dict = {}

    # -- pipe plumbing -------------------------------------------------------

    def rpc(self, method: str, args: tuple) -> Any:
        return self._worker.rpc(method, args)

    def cast(self, method: str, args: tuple) -> None:
        self._worker.cast(method, args)

    # -- kernel interface ----------------------------------------------------

    def charge_instructions(self, count: int) -> None:
        self.cast("charge", (("instructions", count),))

    def charge_trap(self) -> None:
        self.cast("charge", (("model_trap",),))

    def code_base(self, program: Any) -> int:
        base = self._code_bases.get(id(program))
        if base is None:
            base = self._pending_code_base
            assert base is not None, "code_base outside a SPAWN frame"
            self._pending_code_base = None
            self._code_bases[id(program)] = base
        return base

    def spawn_thread(self, program: Any, args: tuple, parent_tile: TileId,
                     parent_clock: int) -> ThreadId:
        from repro.distrib.wire import make_program_ref
        child = self.rpc("spawn_thread",
                         (make_program_ref(program), args,
                          int(parent_tile), parent_clock))
        return ThreadId(child)

    def thread_finished(self, tile: TileId, final_clock: int) -> None:
        self.cast("thread_finished", (int(tile), final_clock))

    def wake_scheduler(self, tile: TileId) -> None:
        self.cast("wake_scheduler", (int(tile),))


class Worker:
    """One worker process: frame loop + interpreter shard."""

    def __init__(self, conn, process_index: int,
                 config: SimulationConfig, tiles: List[int]) -> None:
        self.conn = conn
        self.process_index = process_index
        self.queues = ShardQueues([TileId(t) for t in tiles])
        self.kernel = KernelProxy(self, config)
        self.interpreters: dict = {}
        #: Kernel proxies adopted through live shard migration: their
        #: interpreters keep charging stats into these trees, so stat
        #: and histogram collection folds them in alongside the
        #: primary kernel.
        self.adopted: List[KernelProxy] = []
        # Crash flight recorder (``--flight-dir``): every process keeps
        # its own bounded ring of recent events.  It observes a mask-0
        # bus when tracing is off, so nothing is recorded or shipped —
        # batches drain only *recorded* events, keeping the
        # coordinator's merged trace byte-identical either way.  Must
        # attach before any channel resolves (observer mask).
        self.flight = None
        if config.telemetry.flight_dir:
            from repro.obs.flight import FlightRecorder
            from repro.telemetry.bus import TelemetryBus
            from repro.telemetry.events import ALL_CATEGORIES
            if self.kernel.telemetry is None:
                self.kernel.telemetry = TelemetryBus(0)
            self.flight = FlightRecorder(config.telemetry.flight_events)
            self.kernel.telemetry.observe(self.flight.on_event,
                                          ALL_CATEGORIES)
        self._batch_events = config.telemetry.batch_events
        self._tele_worker = None
        if self.kernel.telemetry is not None:
            self._tele_worker = self.kernel.telemetry.channel(
                EventCategory.WORKER)
        #: Worker-side host profiler (``--profile``): ``None`` when off,
        #: in which case the plain frame I/O methods below stay bound
        #: and nothing is timed.  Scope names: ``idle.wait`` (blocked on
        #: the control pipe), ``wire.encode``/``wire.decode``/
        #: ``wire.send`` (serialization), ``quantum.run`` (interpreting
        #: the op stream; RPC waits nest inside and subtract out).
        self.profiler = create_profiler(config.profile)
        if self.profiler is not None:
            self._send = self._send_timed  # type: ignore[method-assign]
            self._recv = self._recv_timed  # type: ignore[method-assign]
        elif config.distrib.migration_capable() or \
                config.distrib.needs_worker_busy_signal():
            # Migration-capable runs (and runs with a straggler
            # watchdog) always carry a minimal profiler: only
            # ``quantum.run`` is bracketed (frame I/O stays untimed),
            # which is exactly the per-worker busy signal the
            # rebalance policy and the watchdog feed on.
            from repro.profile.timers import HostProfiler
            self.profiler = HostProfiler()

    def _flush_telemetry(self) -> None:
        """Ship buffered events once the batch threshold is crossed.

        Only called at points where the coordinator is known to be
        reading this worker's pipe (inside a quantum, or answering
        COLLECT_TELEMETRY) — an unsolicited frame at any other time
        would deadlock against an unread pipe.
        """
        bus = self.kernel.telemetry
        if bus is None or len(bus.events) < self._batch_events:
            return
        self._send(FrameKind.TELEMETRY,
                   TelemetryBatch(self.process_index,
                                  bus.drain_pending()))

    # -- frame I/O -----------------------------------------------------------

    def _send(self, kind: FrameKind, payload: Any) -> None:
        self.conn.send_bytes(encode_frame(kind, payload))

    def _recv(self) -> tuple:
        return decode_frame(self.conn.recv_bytes())

    def _send_timed(self, kind: FrameKind, payload: Any) -> None:
        prof = self.profiler
        prof.enter("wire.encode")
        try:
            blob = encode_frame(kind, payload)
        finally:
            prof.exit()
        prof.enter("wire.send")
        try:
            self.conn.send_bytes(blob)
        finally:
            prof.exit()

    def _recv_timed(self) -> tuple:
        prof = self.profiler
        prof.enter("idle.wait")
        try:
            blob = self.conn.recv_bytes()
        finally:
            prof.exit()
        prof.enter("wire.decode")
        try:
            return decode_frame(blob)
        finally:
            prof.exit()

    def rpc(self, method: str, args: tuple) -> Any:
        """Issue a kernel RPC; service interleaved casts while waiting.

        Between the KERNEL_CALL and its KERNEL_REPLY the coordinator may
        legitimately send this worker DELIVER, NOTIFY_WAKE or SPAWN
        frames (side effects of the very call in flight, e.g. a send to
        a tile we own, or a spawn landing on our shard).  Those are
        handled inline; all are pure-local, so no recursion is possible.
        """
        self._send(FrameKind.KERNEL_CALL, (method, args))
        while True:
            kind, payload = self._recv()
            if kind is FrameKind.KERNEL_REPLY:
                return payload
            if kind is FrameKind.SHUTDOWN:
                # The coordinator aborted mid-call (its side raised);
                # exit instead of waiting for a reply that never comes.
                sys.exit(0)
            self._handle_cast_frame(kind, payload)

    def cast(self, method: str, args: tuple) -> None:
        self._send(FrameKind.KERNEL_CAST, (method, args))

    # -- frame handlers ------------------------------------------------------

    def _handle_cast_frame(self, kind: FrameKind, payload: Any) -> None:
        if kind is FrameKind.DELIVER:
            self.queues.enqueue(payload)
        elif kind is FrameKind.NOTIFY_WAKE:
            tile, timestamp = payload
            self.interpreters[tile].notify_wake(timestamp)
        elif kind is FrameKind.SPAWN:
            self._handle_spawn(payload)
        elif kind is FrameKind.SET_MODE:
            self._handle_set_mode(payload)
        else:
            raise RuntimeError(f"unexpected frame {kind} in worker")

    def _handle_set_mode(self, functional: bool) -> None:
        """Flip the interpreter execution mode (wire v6).

        Purely local, like SPAWN: just a flag the interpreters sample
        at their next quantum.  Adopted kernels (live migration) flip
        too — their interpreters dispatch through them.
        """
        for kernel in [self.kernel, *self.adopted]:
            kernel.exec_functional = bool(functional)

    def _handle_spawn(self, payload: tuple) -> None:
        """Create an interpreter for a tile we own.  Purely local.

        This handler must not issue RPCs: it can run while the
        coordinator is busy servicing *another* worker's quantum, in
        which case nobody would answer.  Everything the interpreter
        constructor needs — including the synthetic code base the
        in-process backend would allocate on demand — arrives in the
        frame.
        """
        tile, ref, args, start_clock, code_base = payload
        program = ref.resolve() if hasattr(ref, "resolve") else ref
        self.kernel._pending_code_base = code_base
        interpreter = ThreadInterpreter(self.kernel, TileId(tile), program,
                                        tuple(args),
                                        start_clock=start_clock)
        if hasattr(ref, "resolve"):
            interpreter.program_ref = ref
        self.interpreters[tile] = interpreter
        if self._tele_worker is not None:
            # Buffered only (no pipe write: this frame can arrive while
            # the coordinator is busy elsewhere); ships with the next
            # batch.  WORKER events exist only in the mp backend.
            self._tele_worker.emit("interp_spawn", tile, start_clock,
                                   {"worker": self.process_index})

    def _handle_run_quantum(self, payload: tuple) -> None:
        tile, budget, cycle_limit = payload
        interpreter = self.interpreters[tile]
        if self.profiler is not None:
            self.profiler.enter("quantum.run")
            try:
                result = interpreter.run(budget, cycle_limit)
            finally:
                self.profiler.exit()
        else:
            result = interpreter.run(budget, cycle_limit)
        outcome = None
        if result.status.value == "done":
            try:
                pickle.dumps(interpreter.result)
                outcome = interpreter.result
            except Exception:
                outcome = None  # unshippable results stay worker-side
        # The coordinator reads this pipe until QUANTUM_DONE, so a full
        # event buffer flushes here, *before* the terminating frame.
        self._flush_telemetry()
        self._send(FrameKind.QUANTUM_DONE,
                   (result.status.value, result.instructions,
                    interpreter.core.cycles,
                    interpreter.core.instruction_count, outcome))

    def _handle_checkpoint(self) -> None:
        """Snapshot this shard and acknowledge the barrier (wire v4).

        Arrives only between quanta, so no interpreter is mid-op; the
        shard's entire mutable state is the kernel proxy (stats tree,
        inbound queues) plus the interpreters, pickled as one graph so
        shared references survive.
        """
        from repro.ckpt.snapshot import snapshot_bytes
        blob = snapshot_bytes({"kernel": self.kernel,
                               "interpreters": self.interpreters,
                               "adopted": self.adopted})
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, blob))

    def _handle_restore(self, blob: bytes) -> None:
        """Adopt a checkpointed shard (sent right after HELLO).

        The restored kernel proxy replaces the HELLO-built one; its
        worker backref (excised by the snapshot pickler) is repointed
        here, its program-id cache is dropped (object ids do not
        survive a process boundary), and every live interpreter's
        generator is replayed back to its checkpointed position.
        """
        hello_config = self.kernel.config
        shard = pickle.loads(blob)
        kernel = shard["kernel"]
        kernel._worker = self
        kernel._code_bases = {}
        kernel._pending_code_base = None
        self.kernel = kernel
        self.queues = kernel.queues
        self.interpreters = shard["interpreters"]
        # Shards snapshotted after a live migration carry the adopted
        # kernels too; rewire each exactly like the primary.
        self.adopted = list(shard.get("adopted", []))
        for extra in self.adopted:
            extra._worker = self
            extra._code_bases = {}
            extra._pending_code_base = None
        # Observers (telemetry bus/channels) were excised to None; the
        # resumed shard runs unobserved, like a --trace-less run.
        self._tele_worker = None
        self._redress_shard(hello_config)
        for interpreter in self.interpreters.values():
            interpreter.rebuild_generator()
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _redress_shard(self, hello_config: SimulationConfig) -> None:
        """Re-dress a restored shard for the HELLO config (wire v6).

        A snapshot-library fork (:mod:`repro.sample.library`) resumes
        a shared prefix checkpoint under a *variant* config that may
        differ from the pickled one in prefix-irrelevant sections —
        the core model above all.  Mirror of the coordinator-side fork
        re-dressing: each interpreter whose core disagrees with the
        variant gets a freshly built model (its ``core`` stat subtree
        rebuilt from scratch, so no stale counters from the primer's
        model type survive) carrying the clock and instruction total
        over — exactly the state fast-forward advances.  A plain
        crash-recovery resume restores under the identical config and
        rebuilds nothing.
        """
        from repro.core.factory import create_core_model
        for kernel in [self.kernel, *self.adopted]:
            kernel.config = hello_config
        for tile, interpreter in self.interpreters.items():
            target = hello_config.core_config_for(int(tile))
            old = interpreter.core
            if not hasattr(old, "config") or old.config == target:
                continue
            clock_now = old.clock.now
            retired = old.instruction_count
            stats = interpreter.kernel.stats.child(f"thread{int(tile)}")
            stats.children.pop("core", None)
            core = create_core_model(target, stats.child("core"),
                                     telemetry=None, tile=int(tile))
            core.clock.forward_to(clock_now)
            if retired:
                core._instructions.add(retired)
            interpreter.core = core

    def _handle_adopt(self, blob: bytes) -> None:
        """Merge a migrated shard into this worker's own (wire v5).

        Unlike RESTORE, the current kernel and interpreters stay: the
        migrated interpreters join ours, their kernel proxies are
        rewired to this worker's channel, their inbound queues are
        folded into (and then shared with) ours, and each generator is
        replayed back to its position.  Arrives only between quanta,
        so nothing is mid-op on either side; migrated interpreters run
        telemetry-unobserved afterwards, like a restored shard.
        """
        shard = pickle.loads(blob)
        kernels = []
        seen = set()
        for kernel in [shard["kernel"], *shard.get("adopted", [])]:
            if id(kernel) not in seen:
                seen.add(id(kernel))
                kernels.append(kernel)
        self.queues.absorb(shard["kernel"].queues)
        for kernel in kernels:
            kernel._worker = self
            kernel._code_bases = {}
            kernel._pending_code_base = None
            # One shared queue set per worker: DELIVER frames for the
            # migrated tiles land in our queues, and the migrated
            # interpreters poll through their (rewired) kernel.
            kernel.queues = self.queues
        for tile, interpreter in shard["interpreters"].items():
            interpreter.rebuild_generator()
            self.interpreters[tile] = interpreter
        self.adopted.extend(kernels)
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _handle_release(self) -> None:
        """Shed the migrated-away shard; start over empty (wire v5).

        The inverse of ADOPT, sent to the *source* of a non-departing
        migration.  The old kernel proxy (whose stats the adopting
        worker now reports), its queues and every interpreter are
        dropped and replaced with a fresh empty shard — so this worker
        neither double-counts the moved tiles' stats nor collides with
        a shard migrated back in later.
        """
        self.queues = ShardQueues([])
        self.kernel = KernelProxy(self, self.kernel.config)
        self.interpreters = {}
        self.adopted = []
        self._tele_worker = None
        if self.kernel.telemetry is not None:
            self._tele_worker = self.kernel.telemetry.channel(
                EventCategory.WORKER)
        self._send(FrameKind.CKPT_ACK,
                   ShardCheckpoint(self.process_index, b""))

    def _handle_collect_stats(self) -> None:
        flat = dict(self.kernel.stats.to_dict())
        for kernel in self.adopted:
            for path, value in kernel.stats.to_dict().items():
                flat[path] = flat.get(path, 0) + value
        self._send(FrameKind.STATS, flat)

    def _handle_collect_host_stats(self) -> None:
        """Ship this worker's host-profiler scopes (empty when off)."""
        scopes = (self.profiler.scope_dict()
                  if self.profiler is not None else {})
        self._send(FrameKind.HOST_STATS,
                   HostStatsBatch(self.process_index, scopes))

    def _handle_collect_telemetry(self) -> None:
        """Final drain: every buffered event plus histogram states.

        Histograms ride the telemetry channel (not COLLECT_STATS, which
        ships the counter tree) because merging them needs structured
        state, not a flat int mapping.
        """
        bus = self.kernel.telemetry
        events = bus.drain_pending() if bus is not None else []
        histograms = self.kernel.stats.histogram_states()
        if self.adopted:
            scratch = StatGroup("sim")
            scratch.merge_histogram_states(histograms)
            for kernel in self.adopted:
                scratch.merge_histogram_states(
                    kernel.stats.histogram_states())
            histograms = scratch.histogram_states()
        self._send(FrameKind.TELEMETRY,
                   TelemetryBatch(self.process_index, events,
                                  histograms))

    # -- main loop -----------------------------------------------------------

    def loop(self) -> None:
        while True:
            kind, payload = self._recv()
            if kind is FrameKind.SHUTDOWN:
                return
            if kind is FrameKind.GOODBYE:
                # Drained: our tiles live elsewhere now; leave cleanly.
                return
            try:
                if kind is FrameKind.RUN_QUANTUM:
                    self._handle_run_quantum(payload)
                elif kind is FrameKind.CHECKPOINT:
                    self._handle_checkpoint()
                elif kind is FrameKind.RESTORE:
                    self._handle_restore(payload)
                elif kind is FrameKind.ADOPT:
                    self._handle_adopt(payload)
                elif kind is FrameKind.RELEASE:
                    self._handle_release()
                elif kind is FrameKind.COLLECT_STATS:
                    self._handle_collect_stats()
                elif kind is FrameKind.COLLECT_TELEMETRY:
                    self._handle_collect_telemetry()
                elif kind is FrameKind.COLLECT_HOST_STATS:
                    self._handle_collect_host_stats()
                else:
                    self._handle_cast_frame(kind, payload)
            except SystemExit:
                return
            except BaseException as exc:
                blob = None
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    pass
                self._send(FrameKind.ERROR,
                           (traceback.format_exc(), blob))


def worker_main(conn, process_index: int = -1) -> None:
    """Entry point of a pipe worker process.

    ``conn`` is the raw multiprocessing connection; it is wrapped in a
    :class:`~repro.net.channel.PipeChannel` so the worker loop speaks
    the same channel surface whichever transport spawned it.
    """
    from repro.net.channel import PipeChannel
    _channel_worker_main(PipeChannel(conn), process_index)


def tcp_worker_main(address: str, timeout: float = 30.0) -> None:
    """Entry point of a TCP worker: dial, handshake, serve frames.

    Used both by coordinator-forked local workers (self-contained TCP
    runs) and by ``repro worker --connect`` on another host.  The
    handshake pins the net and pickle wire versions; the coordinator's
    config fingerprint is then re-checked against the HELLO config so
    a worker can never execute a different simulation than the one it
    agreed to join.
    """
    from repro.distrib.wire import WIRE_VERSION
    from repro.net.listener import connect_worker
    channel, welcome = connect_worker(address, WIRE_VERSION,
                                      timeout=timeout)
    run_connected_worker(channel, welcome)


def run_connected_worker(channel, welcome) -> None:
    """Serve a coordinator over an already-handshaken channel."""
    from repro.net.channel import ChannelClosedError
    from repro.net.handshake import HandshakeError
    try:
        kind, payload = decode_frame(channel.recv_bytes())
        if kind is not FrameKind.HELLO:
            raise RuntimeError(f"expected HELLO, got {kind}")
        config, tiles, index = payload
        if welcome.config_fingerprint and \
                config.content_hash() != welcome.config_fingerprint:
            raise HandshakeError(
                "config fingerprint mismatch between handshake "
                f"({welcome.config_fingerprint}) and HELLO "
                f"({config.content_hash()}); refusing to desync")
        worker = Worker(channel, index, config, tiles)
        # Net wire v3: a worker joining mid-fast-forward starts
        # functional; a SET_MODE frame follows HELLO regardless.
        worker.kernel.exec_functional = (
            getattr(welcome, "mode", "detailed") == "functional")
        worker.loop()
    except (EOFError, ChannelClosedError, KeyboardInterrupt):
        pass  # coordinator gone: nothing left to serve
    finally:
        channel.close()


def _channel_worker_main(channel, process_index: int) -> None:
    from repro.net.channel import ChannelClosedError
    try:
        kind, payload = decode_frame(channel.recv_bytes())
        if kind is not FrameKind.HELLO:
            raise RuntimeError(f"expected HELLO, got {kind}")
        config, tiles, index = payload
        if index < 0:
            index = process_index
        Worker(channel, index, config, tiles).loop()
    except (EOFError, ChannelClosedError, KeyboardInterrupt):
        pass
    finally:
        try:
            channel.close()
        except Exception:
            pass
