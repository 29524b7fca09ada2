"""Coordinator: the mp backend's master control process.

The coordinator plays the role Graphite gives the MCP's host process
(paper §2.2): it owns every service needing a globally consistent view
— the scheduler, the memory system, the MCP itself, the network models
and the host cost model — and drives N forked workers, one per entry
of :meth:`~repro.host.cluster.ClusterLayout.shards`.

:class:`DistribSimulator` is a :class:`~repro.sim.simulator.Simulator`
whose tile threads are :class:`RemoteTask` stubs.  When the scheduler
dispatches one, the coordinator sends RUN_QUANTUM to the owning worker
and synchronously services that worker's kernel traffic until
QUANTUM_DONE — so exactly one quantum executes anywhere at a time, and
every piece of shared state is touched in the same order as the
in-process backend.  That is what makes the two backends produce
byte-identical metrics from the same seed; the speed-up story of the
mp backend is the *sweep pool* (:mod:`repro.distrib.pool`), which runs
independent configurations in parallel.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.ids import ProcessId, ThreadId, TileId
from repro.distrib.errors import (
    DistribError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.distrib.shard import ShardTransport
from repro.distrib.wire import (
    WIRE_VERSION,
    FrameKind,
    HostStatsBatch,
    decode_frame,
    encode_frame,
    make_program_ref,
    program_key,
)
from repro.host.cluster import ClusterLayout
from repro.net.channel import Channel, ChannelClosedError, PipeChannel
from repro.net.handshake import HandshakeError
from repro.net.listener import NetListener
from repro.net.rebalance import create_policy
from repro.host.scheduler import QuantumResult, QuantumStatus, ThreadTask
from repro.sim.simulator import Simulator
from repro.system.mcp import MCP_TILE
from repro.telemetry.aggregate import TelemetryBatch, merge_batch
from repro.telemetry.events import EventCategory
from repro.transport.message import Message, MessageKind
from repro.transport.transport import Transport

#: Pipe poll granularity while waiting on a worker (seconds).
_POLL_TICK = 0.05


class WorkerCluster:
    """Lifecycle, framed I/O and tile ownership for the worker fleet.

    The cluster speaks :class:`~repro.net.channel.Channel` — forked
    children over multiprocessing pipes (``transport="pipe"``) or
    TCP-connected workers (``transport="tcp"``, local self-dialed or
    remote ``repro worker --connect`` dial-ins) — and owns the dynamic
    tile→worker map.  Membership only changes between quanta (the
    coordinator polls the listener from a scheduler hook), and a live
    worker's whole shard can be migrated to another worker via the
    checkpoint blobs of wire v4 (:meth:`migrate_shard`).  Placement is
    host bookkeeping only: every modelled cost reads the simulated
    :class:`~repro.host.cluster.ClusterLayout`, so joins, leaves and
    migrations never perturb simulated metrics.
    """

    def __init__(self, layout: ClusterLayout,
                 config: SimulationConfig,
                 profiler: Optional[Any] = None) -> None:
        self.layout = layout
        self.config = config
        self.timeout = config.distrib.worker_timeout
        self.shutdown_timeout = config.distrib.shutdown_timeout
        #: Coordinator-side host profiler (``--profile``) or ``None``.
        #: Times wire serialization (``mp.wire.encode``/``decode``/
        #: ``send``) and blocked channel waits (``mp.idle.wait``).
        self.profiler = profiler
        #: Optional :class:`~repro.obs.flight.FlightRecorder` whose
        #: wire-frame ring :meth:`send`/:meth:`recv` feed; installed by
        #: the simulator after formation (formation frames are not
        #: recorded — the ring is for steady-state forensics).
        self.flight = None
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            self._ctx = multiprocessing.get_context("spawn")
        self._channels: List[Channel] = []
        #: False once a worker departed (drained + GOODBYE) or died.
        self._active: List[bool] = []
        #: Dynamic tile→worker map, covering *every* tile id; updated
        #: by :meth:`migrate_shard`, read by every routed frame.
        self._owner: Dict[int, int] = {}
        #: Every process this cluster spawned (teardown safety net).
        self._spawned: List[Any] = []
        #: Current interpreter execution mode (:mod:`repro.sample`),
        #: mirrored here so late joiners can be brought up to date.
        self.exec_functional = False
        self.listener: Optional[NetListener] = None
        try:
            if config.distrib.transport == "tcp":
                self._start_tcp(config)
            else:
                self._start_pipes(config)
        except Exception:
            self.shutdown()
            raise

    # -- formation -----------------------------------------------------------

    def _start_pipes(self, config: SimulationConfig) -> None:
        for index, tiles in enumerate(self.layout.shards()):
            parent, child = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_entry, args=(child, index),
                name=f"repro-worker-{index}", daemon=True)
            proc.start()
            child.close()
            self._spawned.append(proc)
            self._channels.append(PipeChannel(parent, proc))
            self._active.append(True)
            for tile in tiles:
                self._owner[int(tile)] = index
            self.send(index, FrameKind.HELLO,
                      (config, [int(t) for t in tiles], index))

    def _start_tcp(self, config: SimulationConfig) -> None:
        self.listener = NetListener(
            config.distrib.listen, role="coordinator",
            wire_version=WIRE_VERSION,
            config_fingerprint=config.content_hash(),
            trace=config.telemetry.trace_id)
        expect = config.distrib.expect_workers
        count = expect if expect > 0 else self.layout.num_processes
        procs_by_pid: Dict[int, Any] = {}
        if expect == 0:
            # Self-contained multi-host shape: fork local workers that
            # dial our own listener, exercising the full TCP path.
            for index in range(count):
                proc = self._ctx.Process(
                    target=_tcp_worker_entry,
                    args=(self.listener.address,),
                    name=f"repro-worker-{index}", daemon=True)
                proc.start()
                self._spawned.append(proc)
                procs_by_pid[proc.pid] = proc
        deadline = time.monotonic() + config.distrib.connect_timeout
        while len(self._channels) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerTimeoutError(
                    f"only {len(self._channels)} of {count} workers "
                    f"dialed {self.listener.address} within "
                    f"{config.distrib.connect_timeout:.0f}s")
            accepted = self.listener.accept(timeout=min(remaining, 1.0))
            if accepted is None:
                continue
            channel, hello = accepted
            channel.proc = procs_by_pid.get(hello.pid)
            self._channels.append(channel)
            self._active.append(True)
        for index in range(count):
            tiles = [t for t in range(self.layout.num_tiles)
                     if t % count == index]
            for tile in tiles:
                self._owner[tile] = index
            self.send(index, FrameKind.HELLO, (config, tiles, index))

    # -- membership ----------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Total worker slots ever attached (departed ones included)."""
        return len(self._channels)

    def workers(self) -> List[int]:
        """Indices of the workers still attached."""
        return [i for i, alive in enumerate(self._active) if alive]

    def tiles_of(self, worker: int) -> List[int]:
        return sorted(t for t, w in self._owner.items() if w == worker)

    def owner(self, tile: TileId) -> int:
        return self._owner[int(tile)]

    def adopt_ownership(self, owner_map: Dict[int, int]) -> None:
        """Install a checkpointed tile→worker map (resume path)."""
        self._owner = dict(owner_map)

    @property
    def ownership(self) -> Dict[int, int]:
        return dict(self._owner)

    def poll_joins(self) -> List[int]:
        """Accept any pending dial-ins; returns the new worker indices.

        Called from the coordinator's scheduler hook, i.e. strictly
        between quanta — a joiner becomes a registered (initially
        tile-less) worker without ever racing a running quantum.  A
        peer failing the handshake is rejected and skipped; it never
        touches the pickle wire.
        """
        if self.listener is None:
            return []
        joined: List[int] = []
        while True:
            try:
                accepted = self.listener.accept(timeout=0.0)
            except HandshakeError:
                continue  # rejected peer; keep draining the backlog
            if accepted is None:
                return joined
            channel, _hello = accepted
            index = len(self._channels)
            self._channels.append(channel)
            self._active.append(True)
            self.send(index, FrameKind.HELLO, (self.config, [], index))
            if self.exec_functional:
                # The Welcome already advertised the mode, but the
                # frame makes it authoritative on the pickle wire too.
                self.send(index, FrameKind.SET_MODE, True)
            joined.append(index)

    def set_execution_mode(self, functional: bool) -> None:
        """Broadcast the execution mode to every worker (wire v6).

        Called by the coordinator strictly between quanta (the sample
        controller is a periodic hook), when every worker is parked on
        its control pipe — so the flag lands before any worker runs
        another quantum.  Also remembered for membership: later
        dial-ins get a SET_MODE right after HELLO, and the handshake
        Welcome advertises the current mode.
        """
        self.exec_functional = bool(functional)
        if self.listener is not None:
            self.listener.mode = ("functional" if functional
                                  else "detailed")
        for worker in self.workers():
            self.send(worker, FrameKind.SET_MODE, bool(functional))

    def migrate_shard(self, src: int, dst: int) -> List[int]:
        """Move every tile owned by ``src`` into ``dst``, live.

        The coordinated-checkpoint machinery of wire v4 does the heavy
        lifting: ``src`` snapshots its shard (kernel proxy, inbound
        queues, interpreters with their replay logs) into an opaque
        blob, ``dst`` ADOPTs it — merging the migrated tiles into its
        own shard — and the ownership map is rewired.  Runs strictly
        between quanta, so the blob is consistent by construction.
        """
        tiles = self.tiles_of(src)
        if not tiles or src == dst:
            return []
        self.send(src, FrameKind.CHECKPOINT, None)
        kind, payload = self.recv(src)
        if kind is FrameKind.ERROR:
            _raise_remote(src, payload)
        if kind is not FrameKind.CKPT_ACK:
            raise DistribError(
                f"worker {src}: expected CKPT_ACK, got {kind.value}")
        self.send(dst, FrameKind.ADOPT, payload.blob)
        kind, payload = self.recv(dst)
        if kind is FrameKind.ERROR:
            _raise_remote(dst, payload)
        if kind is not FrameKind.CKPT_ACK:
            raise DistribError(
                f"worker {dst}: expected CKPT_ACK after ADOPT, got "
                f"{kind.value}")
        # The source sheds its (now stale) shard: its old kernel would
        # otherwise keep double-reporting the moved tiles' stats, and a
        # shard migrated back in later would collide with the leftover
        # queue entries.  A departing source is GOODBYEd right after,
        # which makes the release a harmless no-op.
        self.send(src, FrameKind.RELEASE, None)
        kind, payload = self.recv(src)
        if kind is FrameKind.ERROR:
            _raise_remote(src, payload)
        if kind is not FrameKind.CKPT_ACK:
            raise DistribError(
                f"worker {src}: expected CKPT_ACK after RELEASE, got "
                f"{kind.value}")
        for tile in tiles:
            self._owner[tile] = dst
        return tiles

    def depart(self, worker: int) -> None:
        """Release a drained worker: GOODBYE, detach, reap."""
        try:
            self.send(worker, FrameKind.GOODBYE, None)
        except WorkerCrashError:
            pass
        self._active[worker] = False
        channel = self._channels[worker]
        proc = channel.proc
        if proc is not None:
            proc.join(timeout=self.shutdown_timeout)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=1.0)
        channel.close()

    # -- framed I/O ----------------------------------------------------------

    def send(self, worker: int, kind: FrameKind, payload: Any) -> None:
        prof = self.profiler
        if prof is not None:
            prof.enter("mp.wire.encode")
            try:
                blob = encode_frame(kind, payload)
            finally:
                prof.exit()
        else:
            blob = encode_frame(kind, payload)
        channel = self._channels[worker]
        if self.flight is not None:
            self.flight.note_frame("send", f"worker{worker}",
                                   kind.value, len(blob))
        try:
            if prof is not None:
                prof.enter("mp.wire.send")
                try:
                    channel.send_bytes(blob)
                finally:
                    prof.exit()
            else:
                channel.send_bytes(blob)
        except ChannelClosedError as exc:
            raise WorkerCrashError(
                f"worker {worker} ({channel.describe()}) closed while "
                f"sending {kind.value}: {exc}") from exc

    def recv(self, worker: int) -> Tuple[FrameKind, Any]:
        """Receive one frame, bounding the wait by the worker timeout.

        A dead worker is distinguished from a slow one: liveness is
        re-checked every poll tick, and a crash surfaces as
        :class:`WorkerCrashError` (with exit code, when the worker is
        a local process) rather than a hang.
        """
        channel = self._channels[worker]
        prof = self.profiler
        wait_start = time.perf_counter_ns() if prof is not None else 0
        deadline = time.monotonic() + self.timeout
        while True:
            if channel.poll(_POLL_TICK):
                try:
                    blob = channel.recv_bytes()
                except ChannelClosedError as exc:
                    raise WorkerCrashError(
                        f"worker {worker} ({channel.describe()}) closed "
                        f"its channel (exit code {channel.exitcode()})"
                    ) from exc
                if prof is not None:
                    prof.add_ns("mp.idle.wait",
                                time.perf_counter_ns() - wait_start)
                    prof.enter("mp.wire.decode")
                    try:
                        frame = decode_frame(blob)
                    finally:
                        prof.exit()
                else:
                    frame = decode_frame(blob)
                if self.flight is not None:
                    self.flight.note_frame("recv", f"worker{worker}",
                                           frame[0].value, len(blob))
                return frame
            if not channel.alive():
                # One last poll: a frame may have raced with death.
                if channel.poll(0):
                    continue
                raise WorkerCrashError(
                    f"worker {worker} ({channel.describe()}) died "
                    f"(exit code {channel.exitcode()})")
            if time.monotonic() > deadline:
                raise WorkerTimeoutError(
                    f"worker {worker} sent nothing for "
                    f"{self.timeout:.0f}s")

    # -- frame helpers -------------------------------------------------------

    def deliver(self, message: Message) -> None:
        self.send(self.owner(message.dst), FrameKind.DELIVER, message)

    def notify_wake(self, tile: TileId, timestamp: int) -> None:
        self.send(self.owner(tile), FrameKind.NOTIFY_WAKE,
                  (int(tile), timestamp))

    def spawn(self, tile: TileId, ref: Any, args: tuple,
              start_clock: int, code_base: int) -> None:
        self.send(self.owner(tile), FrameKind.SPAWN,
                  (int(tile), ref, args, start_clock, code_base))

    def collect_stats(self) -> List[Dict[str, int]]:
        """Fetch each attached worker's flattened local statistics."""
        out = []
        for worker in self.workers():
            self.send(worker, FrameKind.COLLECT_STATS, None)
            kind, payload = self.recv(worker)
            if kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            if kind is not FrameKind.STATS:
                raise DistribError(
                    f"worker {worker}: expected STATS, got {kind.value}")
            out.append(payload)
        return out

    def collect_telemetry(self) -> List[TelemetryBatch]:
        """Final telemetry drain: each worker's events + histograms."""
        out = []
        for worker in self.workers():
            self.send(worker, FrameKind.COLLECT_TELEMETRY, None)
            kind, payload = self.recv(worker)
            if kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            if kind is not FrameKind.TELEMETRY:
                raise DistribError(
                    f"worker {worker}: expected TELEMETRY, got "
                    f"{kind.value}")
            out.append(payload)
        return out

    def collect_host_stats(self) -> List[HostStatsBatch]:
        """Fetch each worker's host-profiler scope export (wire v3)."""
        out = []
        for worker in self.workers():
            self.send(worker, FrameKind.COLLECT_HOST_STATS, None)
            kind, payload = self.recv(worker)
            if kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            if kind is not FrameKind.HOST_STATS:
                raise DistribError(
                    f"worker {worker}: expected HOST_STATS, got "
                    f"{kind.value}")
            out.append(payload)
        return out

    def quantum_busy_ns(self) -> Dict[int, int]:
        """Cumulative per-worker ``quantum.run`` self-time (rebalance)."""
        busy = {}
        for batch in self.collect_host_stats():
            scope = batch.scopes.get("quantum.run", {})
            busy[batch.worker] = int(scope.get("self_ns", 0))
        return busy

    # -- teardown ------------------------------------------------------------

    @property
    def _procs(self) -> List[Any]:
        """Local process handles by worker index (None for remotes)."""
        return [channel.proc for channel in self._channels]

    def shutdown(self) -> None:
        """Stop all workers: ask nicely, then terminate stragglers."""
        for worker, channel in enumerate(self._channels):
            if not self._active[worker]:
                continue
            try:
                channel.send_bytes(
                    encode_frame(FrameKind.SHUTDOWN, None))
            except Exception:
                pass
        deadline = time.monotonic() + self.shutdown_timeout
        for proc in self._spawned:
            proc.join(timeout=max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for channel in self._channels:
            try:
                channel.close()
            except Exception:
                pass
        if self.listener is not None:
            self.listener.close()
            self.listener = None

    def __enter__(self) -> "WorkerCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _worker_entry(conn, index: int) -> None:  # pragma: no cover - child
    from repro.distrib.worker import worker_main
    worker_main(conn, index)


def _tcp_worker_entry(address: str) -> None:  # pragma: no cover - child
    from repro.distrib.worker import tcp_worker_main
    tcp_worker_main(address)


def _raise_remote(worker: int, payload: tuple) -> None:
    """Re-raise a worker-reported failure with its original type."""
    remote_tb, blob = payload
    if blob is not None:
        try:
            import pickle
            exc = pickle.loads(blob)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            if hasattr(exc, "add_note"):
                exc.add_note(f"(raised in worker {worker})\n"
                             f"--- worker traceback ---\n{remote_tb}")
            raise exc
    raise WorkerCrashError(f"worker {worker} failed", remote_tb)


class _CoreView:
    """Coordinator-side snapshot of a remote interpreter's core state."""

    __slots__ = ("cycles", "instruction_count")

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles
        self.instruction_count = 0


class RemoteTask(ThreadTask):
    """Scheduler stub for an interpreter living in a worker.

    Caches the pieces of interpreter state the scheduler and sync
    models read between quanta (`cycles`, instruction counts); the
    caches are refreshed from every QUANTUM_DONE frame and advanced by
    wake notifications exactly as ``Clock.forward_to`` would.
    """

    def __init__(self, sim: "DistribSimulator", tile: TileId,
                 start_clock: int) -> None:
        self.tile = tile
        self.start_clock = start_clock
        self.core = _CoreView(start_clock)
        self.result: Any = None
        self._sim = sim

    @property
    def cycles(self) -> int:
        return self.core.cycles

    def notify_wake(self, timestamp: int) -> None:
        if timestamp > self.core.cycles:
            self.core.cycles = timestamp
        self._sim.cluster.notify_wake(self.tile, timestamp)

    def run(self, budget_instructions: int,
            cycle_limit: Optional[int] = None) -> QuantumResult:
        return self._sim.service_quantum(self, budget_instructions,
                                         cycle_limit)


class DistribSimulator(Simulator):
    """Simulator whose tile threads execute in forked worker processes."""

    def __init__(self, config: SimulationConfig) -> None:
        super().__init__(config)
        self._cluster: Optional[WorkerCluster] = None
        #: Shard blobs a checkpoint loader stashes for ``resume_run``.
        self._restore_shards: Dict[int, bytes] = {}
        #: Tile ownership at snapshot time; rides the coordinator
        #: snapshot so a checkpoint taken after a migration resumes
        #: with the migrated placement, not the initial striping.
        self._owner_at_ckpt: Dict[int, int] = {}
        #: True once the scripted drain (``--drain-turn``) has fired.
        self._drained = False
        self._rebalance = create_policy(config)
        self._watchdog = None
        if config.distrib.straggler_fraction > 0:
            from repro.obs.watchdog import StragglerWatchdog
            self._watchdog = StragglerWatchdog(
                self.telemetry.channel(EventCategory.OBS)
                if self.telemetry is not None else None,
                config.distrib.straggler_fraction)
        if (config.distrib.backend == "mp"
                and (config.distrib.transport == "tcp"
                     or config.distrib.migration_capable()
                     or config.distrib.needs_worker_busy_signal())):
            # Membership and migration act strictly between quanta:
            # the hook polls for dial-ins, fires the scripted drain,
            # and evaluates the rebalance policy and the straggler
            # watchdog.
            self.scheduler.add_periodic_hook(self._net_hook, 1)
        self._build_handler_tables()

    def _build_handler_tables(self) -> None:
        """(Re)create the kernel dispatch tables.

        Kept out of the pickled state — the lambdas they hold cannot
        cross a snapshot — and rebuilt on ``__setstate__``.
        """
        self._rpc_handlers: Dict[str, Callable] = {
            "memory_load": self._rpc_memory_load,
            "memory_store": self._rpc_memory_store,
            "memory_fetch": self._rpc_memory_fetch,
            "fabric_send": self._rpc_fabric_send,
            "fabric_transfer": self._rpc_fabric_transfer,
            "malloc": lambda size, align: self.allocator.malloc(size,
                                                                align),
            "free": lambda address: self.allocator.free(address),
            "futex_wait": lambda a, t: self.mcp.futex.wait(a, TileId(t)),
            "futex_wake": lambda a, n, c: self.mcp.futex.wake(a, n, c),
            "barrier_arrive": lambda a, n, t, c: self.mcp.barrier_arrive(
                a, n, TileId(t), c),
            "barrier_is_waiting": lambda a, t: self.mcp.barrier_is_waiting(
                a, TileId(t)),
            "try_join": lambda t, g: self.mcp.threads.try_join(
                TileId(t), TileId(g)),
            "final_clock": lambda g: self.mcp.threads.final_clock(
                TileId(g)),
            "syscall": lambda name, args: self.mcp.syscalls.execute(
                name, args),
            "spawn_thread": self._rpc_spawn_thread,
        }
        self._cast_handlers: Dict[str, Callable] = {
            "charge": self._cast_charge,
            "thread_finished": lambda t, c: self.thread_finished(
                TileId(t), c),
            "wake_scheduler": lambda t: self.wake_scheduler(TileId(t)),
        }

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_cluster"] = None
        state["_restore_shards"] = {}
        state.pop("_rpc_handlers", None)
        state.pop("_cast_handlers", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_handler_tables()

    @property
    def cluster(self) -> WorkerCluster:
        assert self._cluster is not None, "cluster not running"
        return self._cluster

    def _make_transport(self) -> Transport:
        return ShardTransport(self.layout, self.stats.child("transport"))

    # -- execution mode (repro.sample, wire v6) ------------------------------

    def set_execution_mode(self, mode: str) -> None:
        """Flip the mode on the coordinator's models *and* the workers.

        The coordinator owns every timing model (memory system,
        network fabric, host cost), so the base-class flip already
        covers them in the mp backend; what it cannot reach is the
        interpreter dispatch in the worker processes.  A SET_MODE
        broadcast closes that gap — sent between quanta, like every
        mode switch, so both sides agree before the next quantum.
        """
        before = self.exec_functional
        super().set_execution_mode(mode)
        # getattr: the ``ff_until`` flip happens inside the base-class
        # constructor, before this subclass sets ``_cluster``.
        cluster = getattr(self, "_cluster", None)
        if self.exec_functional != before and cluster is not None:
            cluster.set_execution_mode(self.exec_functional)

    # -- lifecycle -----------------------------------------------------------

    def run(self, main_program: Any, args: tuple = ()):
        if self.profiler is not None:
            # Open the wall-time bracket before the fork so cluster
            # start-up (the paper's process start-up cost, for real)
            # counts toward host wall time.
            self.profiler.start_run()
        self._cluster = WorkerCluster(self.layout, self.config,
                                      profiler=self.profiler)
        self._cluster.flight = getattr(self, "flight", None)
        self.transport.attach(self._cluster)
        tele_worker = (self.telemetry.channel(EventCategory.WORKER)
                       if self.telemetry is not None else None)
        if tele_worker is not None:
            for index in self._cluster.workers():
                tele_worker.emit(
                    "worker_start", None, 0,
                    {"worker": index,
                     "tiles": len(self._cluster.tiles_of(index))})
        if self.exec_functional:
            # The initial fast-forward flip (``sample.ff_until``)
            # happened in ``__init__``, before any worker existed;
            # replay it now the cluster is up.
            self._cluster.set_execution_mode(True)
        try:
            return super().run(main_program, args)
        finally:
            self._cluster.shutdown()
            self.transport.attach(None)
            self._cluster = None

    def resume_run(self):
        """Continue a restored distributed simulation to completion.

        Starts a fresh worker cluster (HELLO as usual), then ships
        each worker its shard blob in a RESTORE frame so it adopts the
        checkpointed kernel and interpreters before the first quantum.
        """
        from repro.common.errors import CheckpointError
        if not self._restore_shards:
            raise CheckpointError(
                "no shard blobs to restore; load the checkpoint via "
                "repro.ckpt.recovery.load_checkpoint")
        self._cluster = WorkerCluster(self.layout, self.config)
        self._cluster.flight = getattr(self, "flight", None)
        self.transport.attach(self._cluster)
        try:
            if self._owner_at_ckpt:
                # The checkpoint was taken under a migrated placement;
                # shards must land where the blobs say the tiles live.
                highest = max(self._owner_at_ckpt.values())
                if highest >= self._cluster.num_workers:
                    raise CheckpointError(
                        f"checkpoint placement references worker "
                        f"{highest} but only "
                        f"{self._cluster.num_workers} workers "
                        f"attached; resume with at least "
                        f"{highest + 1} workers")
                self._cluster.adopt_ownership(self._owner_at_ckpt)
            restored = []
            for worker in self._cluster.workers():
                blob = self._restore_shards.get(worker)
                if blob is None:
                    if self._cluster.tiles_of(worker):
                        raise CheckpointError(
                            f"checkpoint has no shard for worker "
                            f"{worker}")
                    continue  # fully drained before the snapshot
                self._cluster.send(worker, FrameKind.RESTORE, blob)
                restored.append(worker)
            for worker in restored:
                kind, payload = self._cluster.recv(worker)
                if kind is FrameKind.ERROR:
                    _raise_remote(worker, payload)
                if kind is not FrameKind.CKPT_ACK:
                    raise DistribError(
                        f"worker {worker}: expected CKPT_ACK after "
                        f"RESTORE, got {kind.value}")
            self._restore_shards = {}
            if self.exec_functional:
                # A checkpoint taken mid-fast-forward: the shard
                # kernels pickled the flag too, but the replay also
                # updates the membership listener for late joiners.
                self._cluster.set_execution_mode(True)
            return super().resume_run()
        finally:
            self._cluster.shutdown()
            self.transport.attach(None)
            self._cluster = None

    # -- membership & migration ----------------------------------------------

    def _net_channel(self):
        if self.telemetry is None:
            return None
        return self.telemetry.channel(EventCategory.NET)

    def _net_hook(self, scheduler) -> None:
        """Between-quanta membership tick.

        Fires after every scheduler turn — the one point where no
        quantum is in flight anywhere — and performs the three
        membership actions in a fixed order: accept pending dial-ins,
        run the scripted drain, evaluate the rebalance policy.  All
        three move host placement only, so the hook cannot change
        simulated metrics.
        """
        cluster = self._cluster
        if cluster is None:
            return
        channel = self._net_channel()
        for index in cluster.poll_joins():
            if channel is not None:
                channel.emit(
                    "worker.joined", None, 0,
                    {"worker": index,
                     "peer": cluster._channels[index].describe()})
        distrib = self.config.distrib
        turn = scheduler.turns
        if (distrib.drain_turn and not self._drained
                and turn >= distrib.drain_turn):
            self._drained = True
            self._scripted_drain(cluster, channel)
        watchdog = getattr(self, "_watchdog", None)
        if ((self._rebalance is not None or watchdog is not None)
                and turn % distrib.rebalance_every == 0):
            # One host-stats sweep feeds both consumers of the
            # per-worker busy signal.
            busy = cluster.quantum_busy_ns()
            if watchdog is not None:
                watchdog.observe(busy, turn=turn)
            if self._rebalance is not None:
                self._policy_drain(cluster, channel, busy)

    def _scripted_drain(self, cluster: WorkerCluster, channel) -> None:
        """Deterministic drain (``--drain-turn``): one worker's shard
        moves and the worker departs — the migration path exercised
        without depending on host timing."""
        active = cluster.workers()
        src = self.config.distrib.drain_worker
        if src < 0:
            loaded = [w for w in active if cluster.tiles_of(w)]
            if not loaded:
                return
            src = max(loaded)
        destinations = [w for w in active if w != src]
        if src not in active or not destinations:
            return
        self._migrate(cluster, channel, src, min(destinations),
                      depart=True)

    def _policy_drain(self, cluster: WorkerCluster, channel,
                      busy: Dict[int, int]) -> None:
        active = cluster.workers()
        loaded = [w for w in active if cluster.tiles_of(w)]
        idle = [w for w in active if not cluster.tiles_of(w)]
        decision = self._rebalance.observe(busy, loaded, idle)
        if decision is not None:
            self._migrate(cluster, channel, decision[0], decision[1],
                          depart=False)

    def _migrate(self, cluster: WorkerCluster, channel, src: int,
                 dst: int, depart: bool) -> None:
        tiles = cluster.migrate_shard(src, dst)
        if not tiles:
            return
        if channel is not None:
            channel.emit("worker.migrated", None, 0,
                         {"src": src, "dst": dst, "tiles": len(tiles)})
        if depart:
            cluster.depart(src)
            if channel is not None:
                channel.emit("worker.left", None, 0, {"worker": src})

    # -- checkpointing -------------------------------------------------------

    def _checkpoint_blobs(self) -> Dict[str, bytes]:
        """Coordinated snapshot: barrier every worker, then self.

        The periodic hook fires between quanta, when every worker sits
        idle in its frame loop — so CHECKPOINT can fan out to all
        workers at once and each shard snapshot is consistent with the
        coordinator's shared state by construction.
        """
        from repro.ckpt.snapshot import snapshot_bytes
        cluster = self.cluster
        active = cluster.workers()
        for worker in active:
            cluster.send(worker, FrameKind.CHECKPOINT, None)
        blobs: Dict[str, bytes] = {}
        for worker in active:
            kind, payload = cluster.recv(worker)
            if kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            if kind is not FrameKind.CKPT_ACK:
                raise DistribError(
                    f"worker {worker}: expected CKPT_ACK, got "
                    f"{kind.value}")
            blobs[f"shard{payload.worker}"] = payload.blob
        # The coordinator snapshot carries the live tile→worker map so
        # a post-migration checkpoint resumes with the same placement.
        self._owner_at_ckpt = cluster.ownership
        blobs["coordinator"] = snapshot_bytes(self)
        return blobs

    # -- spawning ------------------------------------------------------------

    def spawn_thread(self, program: Any, args: tuple,
                     parent_tile: Optional[TileId],
                     parent_clock: int) -> ThreadId:
        """Spawn protocol, distributed: the interpreter is built in the
        owning worker from a shipped program reference.

        Mirrors the in-process sequence step for step (same MCP
        bookkeeping, same LCP hops, same transfer and host charge, and
        the code region allocated at the same point in global order) so
        all modelled costs land identically.
        """
        ref = make_program_ref(program)
        tile = self.mcp.threads.allocate_tile()
        self.mcp.threads.register_spawn(tile)
        process = self.layout.process_of_tile(tile)
        lcp = self.lcps[ProcessId(int(process))]
        if not lcp.initialized:
            lcp.initialize_process()
        lcp.handle_spawn(tile)
        self.fabric.transfer(MCP_TILE, tile, MessageKind.SYSTEM, 64,
                             parent_clock)
        self.charge(self.config.host.thread_spawn_cost)
        code_base = self._code_base_for(program_key(ref))
        self.cluster.spawn(tile, ref, args, parent_clock, code_base)
        task = RemoteTask(self, tile, parent_clock)
        self.interpreters[tile] = task
        self.scheduler.add_thread(
            task, start_host_time=self.scheduler.current_host_time())
        return ThreadId(int(tile))

    # -- the quantum service loop --------------------------------------------

    def service_quantum(self, task: RemoteTask, budget: int,
                        cycle_limit: Optional[int]) -> QuantumResult:
        """Run one quantum remotely, servicing kernel traffic inline.

        The worker owning ``task.tile`` becomes the (single) active
        worker; its KERNEL_CALL/KERNEL_CAST frames are applied to the
        shared state here, in arrival order, until QUANTUM_DONE.
        """
        worker = self.cluster.owner(task.tile)
        self.cluster.send(worker, FrameKind.RUN_QUANTUM,
                          (int(task.tile), budget, cycle_limit))
        while True:
            kind, payload = self.cluster.recv(worker)
            if kind is FrameKind.QUANTUM_DONE:
                status, instructions, cycles, icount, outcome = payload
                task.core.cycles = cycles
                task.core.instruction_count = icount
                if QuantumStatus(status) is QuantumStatus.DONE:
                    task.result = outcome
                return QuantumResult(QuantumStatus(status), instructions)
            if kind is FrameKind.KERNEL_CALL:
                method, args = payload
                reply = self._rpc_handlers[method](*args)
                self.cluster.send(worker, FrameKind.KERNEL_REPLY, reply)
            elif kind is FrameKind.KERNEL_CAST:
                method, args = payload
                self._cast_handlers[method](*args)
            elif kind is FrameKind.TELEMETRY:
                merge_batch(self.telemetry, self.stats, payload)
            elif kind is FrameKind.ERROR:
                _raise_remote(worker, payload)
            else:
                raise DistribError(
                    f"unexpected frame {kind.value} from worker "
                    f"{worker} during a quantum")

    # -- RPC handlers --------------------------------------------------------

    def _rpc_memory_load(self, tile: int, address: int, size: int,
                         timestamp: int) -> tuple:
        return self.controllers[tile].load(address, size, timestamp)

    def _rpc_memory_store(self, tile: int, address: int, data: bytes,
                          timestamp: int) -> int:
        return self.controllers[tile].store(address, data, timestamp)

    def _rpc_memory_fetch(self, tile: int, pc: int,
                          timestamp: int) -> int:
        return self.controllers[tile].fetch(pc, timestamp)

    def _rpc_fabric_send(self, src: int, dst: int, kind: str,
                         payload: Any, size_bytes: int, timestamp: int,
                         tag: Optional[int]) -> None:
        self.fabric.send(TileId(src), TileId(dst), MessageKind(kind),
                         payload, size_bytes, timestamp, tag)

    def _rpc_fabric_transfer(self, src: int, dst: int, kind: str,
                             size_bytes: int, timestamp: int) -> int:
        return self.fabric.transfer(TileId(src), TileId(dst),
                                    MessageKind(kind), size_bytes,
                                    timestamp)

    def _rpc_spawn_thread(self, ref: Any, args: tuple, parent_tile: int,
                          parent_clock: int) -> int:
        return int(self.spawn_thread(ref, args, TileId(parent_tile),
                                     parent_clock))

    # -- cast handlers -------------------------------------------------------

    def _cast_charge(self, token: tuple) -> None:
        """Charge a worker's cost token, drawing jitter here — in
        cast-arrival order, which equals in-process call order."""
        kind, *rest = token
        if kind == "instructions":
            self.cost_model.charge_instructions(rest[0])
        elif kind == "model_trap":
            self.cost_model.charge_trap()
        else:
            raise DistribError(f"unknown cost token {token!r}")

    # -- results -------------------------------------------------------------

    def _before_results(self) -> None:
        """Fold every worker's state back into the coordinator.

        Telemetry first (the drained events and histogram states),
        then the flat counter trees; the bus closes — rendering file
        sinks from the fully merged stream — right after this hook.
        """
        for batch in self.cluster.collect_telemetry():
            merge_batch(self.telemetry, self.stats, batch)
        if self.telemetry is not None:
            channel = self.telemetry.channel(EventCategory.WORKER)
            if channel is not None:
                for index in self.cluster.workers():
                    channel.emit("worker_stop", None, 0,
                                 {"worker": index})
        for flat in self.cluster.collect_stats():
            self.stats.add_flat(flat)
        if self.profiler is not None:
            self._worker_host_scopes = {
                batch.worker: batch.scopes
                for batch in self.cluster.collect_host_stats()}
