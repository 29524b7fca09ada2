"""The Simulator: assembles all subsystems and runs a target program.

One :class:`Simulator` instance is one simulation of one application on
one target architecture over one (simulated) host cluster.  It doubles
as the *kernel* object the interpreters call back into for spawning
threads, charging host costs, reaching the MCP, and waking blocked
threads.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import SimulationConfig
from repro.common.ids import ProcessId, ThreadId, TileId
from repro.common.rng import RngStreams
from repro.common.stats import StatGroup
from repro.frontend.interpreter import ThreadInterpreter
from repro.host.cluster import ClusterLayout
from repro.host.costmodel import HostCostModel
from repro.host.scheduler import Scheduler
from repro.memory.address import AddressSpace
from repro.memory.allocator import DynamicMemoryManager
from repro.memory.backing import BackingStore
from repro.memory.coherence import CoherenceEngine
from repro.memory.controller import MemoryController
from repro.memory.miss_classifier import MissClassifier
from repro.network.interface import NetworkFabric
from repro.profile.timers import create_profiler
from repro.sim.results import SimulationResult
from repro.sync.model import create_sync_model
from repro.system.lcp import create_lcps
from repro.system.mcp import MCP_TILE, MasterControlProgram
from repro.telemetry.bus import create_bus
from repro.telemetry.chrome import ChromeTraceSink
from repro.telemetry.events import EventCategory
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.skew import ClockSkewSampler
from repro.transport.message import MessageKind
from repro.transport.transport import Transport

#: Synthetic code placement: each distinct program gets a 64 KB region.
_CODE_REGION_BYTES = 64 * 1024


class Simulator:
    """One fully wired simulation instance."""

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self.rngs = RngStreams(config.seed)
        self.stats = StatGroup("sim")

        # Telemetry: ``None`` when disabled — every instrumented
        # component then resolves a ``None`` channel and the hot paths
        # stay a single attribute test.  Purely observational: the bus
        # never consumes RNG draws or touches simulated time.
        self.telemetry = create_bus(config.telemetry)

        # Runtime sanitizers (``--sanitize``): ride the bus as pure
        # observers.  With tracing off they get a mask-0 bus that
        # records nothing; either way they must attach before any
        # component resolves its channels, because ``channel()``
        # honours the observer mask.
        self.sanitizers = None
        if config.check.sanitize:
            from repro.check.sanitize import Sanitizers
            from repro.telemetry.bus import TelemetryBus
            if self.telemetry is None:
                self.telemetry = TelemetryBus(0)
            self.sanitizers = Sanitizers(config.num_tiles,
                                         self.telemetry)

        # Crash flight recorder (``--flight-dir``): a bounded ring of
        # the most recent events, riding the bus exactly like the
        # sanitizers — a mask-0 bus when tracing is off, so neither
        # the recorded trace nor the results change either way.  The
        # recovery path dumps the ring as a forensics bundle when a
        # worker crash or timeout kills the run.
        self.flight = None
        if config.telemetry.flight_dir:
            from repro.obs.flight import FlightRecorder
            from repro.telemetry.bus import TelemetryBus
            from repro.telemetry.events import ALL_CATEGORIES
            if self.telemetry is None:
                self.telemetry = TelemetryBus(0)
            self.flight = FlightRecorder(config.telemetry.flight_events)
            self.telemetry.observe(self.flight.on_event,
                                   ALL_CATEGORIES)

        # Run-level span (:mod:`repro.obs.spans`): when a trace id was
        # propagated into this config (e.g. by the serve daemon at job
        # assignment), the run stamps its lifecycle onto that job's
        # span tree.  Purely observational, like every bus client.
        self._span_emitter = None
        self._run_span = ""
        if config.telemetry.trace_id and self.telemetry is not None:
            from repro.obs.spans import SpanEmitter
            self._span_emitter = SpanEmitter(
                self.telemetry.channel(EventCategory.OBS),
                config.telemetry.trace_id,
                parent=config.telemetry.span_parent)

        sync_channel = (self.telemetry.channel(EventCategory.SYNC)
                        if self.telemetry is not None else None)

        # Host platform.
        self.layout = ClusterLayout(config.num_tiles, config.host)
        self._configure_trace_sinks()
        self.cost_model = HostCostModel(
            config.host, rng=self.rngs.stream("host_jitter"))
        self.sync_model = create_sync_model(
            config.sync, self.stats.child("sync"),
            self.rngs.stream("lax_p2p"), telemetry=sync_channel)
        self.scheduler = Scheduler(
            self.layout, self.cost_model, self.sync_model,
            self.stats.child("scheduler"),
            quantum_instructions=config.host.quantum_instructions,
            rng=self.rngs.stream("scheduler"),
            telemetry=self.telemetry)
        # Kernel interface: the interpreters' per-event host charges go
        # straight to the cost model, which draws and charges in one
        # call (bound methods, so snapshots pickle them by reference).
        self.cost_model.bind(self.scheduler.charge)
        self.charge_instructions = self.cost_model.charge_instructions
        self.charge_trap = self.cost_model.charge_trap

        # Communication.
        self.transport = self._make_transport()
        self.transport.add_delivery_hook(self._charge_message)
        self.fabric = NetworkFabric(config.num_tiles, config.network,
                                    self.transport,
                                    self.stats.child("network"),
                                    telemetry=self.telemetry)

        # Memory system.
        line_bytes = config.memory.l2.line_bytes
        self.space = AddressSpace(config.num_tiles, line_bytes)
        self.backing = BackingStore(line_bytes)
        self.classifier: Optional[MissClassifier] = None
        if config.memory.classify_misses:
            self.classifier = MissClassifier(
                config.num_tiles, line_bytes,
                self.stats.child("miss_classes"))
        self.engine = CoherenceEngine(
            config.num_tiles, config.memory, self.space, self.backing,
            self.fabric, config.core.clock_hz, self.stats.child("memory"),
            self.classifier, telemetry=self.telemetry)
        self.controllers: List[MemoryController] = [
            MemoryController(TileId(t), self.engine,
                             self.cost_model.charge_memory_access,
                             self.stats.child(f"mc{t}"))
            for t in range(config.num_tiles)]

        # System layer.
        self.allocator = DynamicMemoryManager(self.space)
        self.mcp = MasterControlProgram(
            config.num_tiles, self.allocator, self._wake_thread,
            self.stats.child("mcp"), telemetry=self.telemetry)
        self.lcps = create_lcps(self.layout, self.stats.child("system"))

        # Threads.
        self.interpreters: Dict[TileId, Any] = {}
        self._code_bases: Dict[Any, int] = {}

        # Clock-skew tracing (Figure 7).  The sampler appends the same
        # (mean, +dev, -dev) tuples the simulator always recorded; when
        # telemetry is on the samples also become SYNC events.
        self.skew_trace: List[Tuple[float, float, float]] = []
        if config.trace_clock_skew:
            self.scheduler.add_skew_sampler(
                ClockSkewSampler(self.skew_trace, sync_channel),
                config.skew_sample_period)

        # Metrics time-series: snapshot the counter tree on a fixed
        # scheduler cadence.
        self.metrics: Optional[MetricsRegistry] = None
        if config.telemetry.metrics_interval > 0:
            metrics_channel = (
                self.telemetry.channel(EventCategory.METRICS)
                if self.telemetry is not None else None)
            self.metrics = MetricsRegistry(
                self.stats, config.telemetry.metrics_interval,
                metrics_channel)
            self.scheduler.add_periodic_hook(
                self._sample_metrics, config.telemetry.metrics_interval)

        # Recovery log: one dict per crash-restart cycle performed by
        # the fault-tolerance driver (:mod:`repro.ckpt.recovery`);
        # empty on every undisturbed run.
        self.recoveries: List[Dict[str, Any]] = []

        # Sampling (config.sample): functional fast-forward and
        # interval sampling (:mod:`repro.sample`).  The controller is a
        # periodic hook, so execution mode only ever changes between
        # quanta — the same consistency boundary checkpoints use.
        self.exec_functional = False
        self.sample_controller = None
        if config.sample.enabled:
            from repro.sample.controller import SampleController
            sample_channel = (
                self.telemetry.channel(EventCategory.SAMPLE)
                if self.telemetry is not None else None)
            self.sample_controller = SampleController(
                self, config.sample, sample_channel)
            self.scheduler.add_periodic_hook(self.sample_controller, 1)
            if config.sample.ff_until > 0:
                self.set_execution_mode("functional")

        # Checkpointing (``--ckpt-dir``): a store when enabled, and a
        # periodic scheduler hook when a cadence is configured.  The
        # hook runs between quanta, when no thread is mid-op.
        self._ckpt_store = None
        if config.ckpt.enabled:
            from repro.ckpt.store import CheckpointStore
            self._ckpt_store = CheckpointStore(config.ckpt.dir,
                                               keep=config.ckpt.keep)
            if config.ckpt.every > 0:
                self.scheduler.add_periodic_hook(self._ckpt_hook,
                                                 config.ckpt.every)

        # Host profiling (``--profile``): the same observer trick as
        # telemetry and the sanitizers — ``None`` when disabled, so no
        # call site is wrapped and the hot paths keep their original
        # methods.  Purely observational: reads host clocks only, never
        # RNG streams or simulated time, so a profiled run produces
        # byte-identical simulation metrics.
        self.host_profile: Optional[Dict[str, Any]] = None
        self._worker_host_scopes: Optional[Dict[int, Any]] = None
        self.profiler = create_profiler(config.profile)
        if self.profiler is not None:
            from repro.profile.instrument import instrument_simulator
            instrument_simulator(self)

    def _make_transport(self) -> Transport:
        """Build the message fabric; overridden by the mp backend."""
        return Transport(self.layout, self.stats.child("transport"))

    def _configure_trace_sinks(self) -> None:
        """Give file sinks the layout facts only the simulator knows."""
        if self.telemetry is None:
            return
        tile_process = {
            t: int(self.layout.process_of_tile(TileId(t)))
            for t in range(self.config.num_tiles)}
        for sink in self.telemetry.sinks:
            if isinstance(sink, ChromeTraceSink):
                sink.clock_hz = self.config.core.clock_hz
                sink.tile_process = tile_process

    def _sample_metrics(self, scheduler: Scheduler) -> None:
        """Periodic-hook shim: snapshot the stats tree at "now".

        "Now" for a whole-simulation snapshot is the frontier of
        simulated progress — the maximum live thread clock.
        """
        assert self.metrics is not None
        clocks = scheduler.thread_clocks()
        self.metrics.sample(int(max(clocks)) if clocks else 0)

    # -- kernel interface (called by the interpreters) ---------------------------

    def charge(self, seconds: float) -> None:
        self.scheduler.charge(seconds)

    def code_base(self, program: Callable[..., Any]) -> int:
        """Stable synthetic code address for a program function."""
        return self._code_base_for(id(program))

    def _code_base_for(self, key: Any) -> int:
        """Allocate (once) a 64 KB code region for a program identity.

        Regions are handed out in first-request order, which equals
        thread spawn order — the property the distributed backend relies
        on to reproduce identical code addresses from program *keys*
        (pickled identities) instead of local object ids.
        """
        base = self._code_bases.get(key)
        if base is None:
            base = (self.space.CODE_BASE
                    + len(self._code_bases) * _CODE_REGION_BYTES)
            self._code_bases[key] = base
        return base

    def spawn_thread(self, program: Callable[..., Any], args: tuple,
                     parent_tile: Optional[TileId],
                     parent_clock: int) -> ThreadId:
        """The spawn protocol: caller -> MCP -> owning LCP -> new thread."""
        ref = program if hasattr(program, "resolve") else None
        if ref is not None:
            program = ref.resolve()
        tile = self.mcp.threads.allocate_tile()
        self.mcp.threads.register_spawn(tile)
        process = self.layout.process_of_tile(tile)
        lcp = self.lcps[ProcessId(int(process))]
        if not lcp.initialized:
            lcp.initialize_process()
        lcp.handle_spawn(tile)
        # MCP -> LCP control hop plus host thread creation.
        self.fabric.transfer(MCP_TILE, tile, MessageKind.SYSTEM, 64,
                             parent_clock)
        self.charge(self.config.host.thread_spawn_cost)
        interpreter = ThreadInterpreter(self, tile, program, args,
                                        start_clock=parent_clock)
        if ref is not None:
            interpreter.program_ref = ref
        self.interpreters[tile] = interpreter
        self.scheduler.add_thread(
            interpreter,
            start_host_time=self.scheduler.current_host_time())
        return ThreadId(int(tile))

    def thread_finished(self, tile: TileId, final_clock: int) -> None:
        self.mcp.threads.on_thread_exit(tile, final_clock)

    def wake_scheduler(self, tile: TileId) -> None:
        """Poke a possibly-blocked thread to re-check its condition."""
        if tile in self.interpreters:
            self.scheduler.wake(tile)

    # -- internal hooks -------------------------------------------------------------

    def _wake_thread(self, tile: TileId, timestamp: int) -> None:
        """System-layer wake: deliver the timestamp, then unblock."""
        interpreter = self.interpreters.get(tile)
        if interpreter is None:
            return
        # The wake notification travels MCP -> tile on the system net.
        self.fabric.transfer(MCP_TILE, tile, MessageKind.SYSTEM, 32,
                             timestamp)
        interpreter.notify_wake(timestamp)
        self.scheduler.wake(tile)

    # -- execution mode (repro.sample) ---------------------------------------

    def set_execution_mode(self, mode: str) -> None:
        """Switch between ``detailed`` and ``functional`` execution.

        Functional mode keeps every architectural state transition —
        caches, directory, backing store, message delivery — on the
        single shared code path while bypassing the timing layers: the
        cores retire at unit cost, network and DRAM latencies are zero
        and host-time charges are skipped.  Callers must only flip the
        mode between scheduler quanta (the sample controller runs as a
        periodic hook, which guarantees exactly that).
        """
        functional = mode == "functional"
        if functional == self.exec_functional:
            return
        self.exec_functional = functional
        self.engine.functional = functional
        self.fabric.functional = functional
        self.scheduler.functional = functional

    def _charge_message(self, message, locality) -> None:
        if self.sanitizers is not None:
            self.sanitizers.on_message(message)
        if self.exec_functional:
            return
        self.scheduler.charge(
            self.cost_model.message(locality, message.size_bytes))
        # Application-visible traffic blocks the waiting host thread for
        # the wire latency.  The simulator's own control plane (SYSTEM:
        # spawn, futex, syscall forwarding) is pipelined in Graphite and
        # charged CPU cost only — otherwise a 1024-thread spawn loop
        # would serialize a thousand TCP round trips through one core.
        if message.kind is MessageKind.SYSTEM:
            return
        latency = self.cost_model.message_latency(locality,
                                                  message.size_bytes)
        if latency > 0.0:
            self.scheduler.charge_blocking(latency)

    def _before_results(self) -> None:
        """Hook run after the engine finishes, before the stats snapshot.

        The distributed backend overrides this to fold worker-local
        statistics back into the coordinator's tree.
        """

    # -- running --------------------------------------------------------------------------

    def run(self, main_program: Any,
            args: tuple = ()) -> SimulationResult:
        """Execute ``main_program(ctx, *args)`` to completion.

        ``main_program`` is either a program callable or a *program
        reference* (an object with a ``resolve()`` method, e.g.
        :class:`repro.distrib.wire.WorkloadRef`) that builds one.
        """
        if self.profiler is not None:
            self.profiler.start_run()
        self._begin_run_span(resumed=False)
        self.spawn_thread(main_program, args, None, 0)
        return self._run_to_completion()

    def _begin_run_span(self, resumed: bool) -> None:
        if self._span_emitter is None:
            return
        self._run_span = self._span_emitter.begin(
            "sim.run", resumed=resumed,
            backend=self.config.distrib.backend,
            tiles=self.config.num_tiles)

    def resume_run(self) -> SimulationResult:
        """Continue a checkpoint-restored simulation to completion.

        The scheduler's state (core clocks, run queues, turn counter)
        and every thread's position were reinstated from the snapshot,
        so re-entering the scheduler loop picks up exactly where the
        checkpointed run left off; the result is byte-identical to the
        uninterrupted run's.
        """
        self._begin_run_span(resumed=True)
        return self._run_to_completion()

    def _run_to_completion(self) -> SimulationResult:
        report = self.scheduler.run()
        self._before_results()
        if self.profiler is not None:
            self.profiler.stop_run()
        if self._span_emitter is not None and self._run_span:
            final = max((i.core.cycles
                         for i in self.interpreters.values()),
                        default=0)
            self._span_emitter.end(self._run_span, "sim.run", t=final,
                                   outcome="done",
                                   turns=self.scheduler.turns)
            self._run_span = ""
        if self.telemetry is not None:
            # Chrome sinks render host-profiler tracks alongside the
            # target timeline; hand them the scope data before close.
            self._hand_profile_to_sinks()
            # Flush/render the sinks; the in-memory ordered stream stays
            # readable for tests and post-run analysis.
            self.telemetry.close()

        thread_cycles = {int(t): i.core.cycles
                         for t, i in self.interpreters.items()}
        thread_starts = {int(t): i.start_clock
                         for t, i in self.interpreters.items()}
        thread_instructions = {int(t): i.core.instruction_count
                               for t, i in self.interpreters.items()}
        startup = self.cost_model.process_startup(
            self.layout.num_processes)
        main_interp = self.interpreters.get(TileId(0))
        result = SimulationResult(
            simulated_cycles=max(thread_cycles.values()),
            wall_clock_seconds=report.wall_clock_seconds + startup,
            native_seconds=self._native_seconds(thread_instructions),
            thread_cycles=thread_cycles,
            thread_start_cycles=thread_starts,
            thread_instructions=thread_instructions,
            counters=self.stats.to_dict(),
            core_busy_seconds=report.core_busy_seconds,
            skew_trace=list(self.skew_trace),
            miss_breakdown=(
                {t.value: n for t, n in self.classifier.counts().items()}
                if self.classifier is not None else {}),
            main_result=main_interp.result if main_interp else None,
            recoveries=list(self.recoveries),
        )
        if self.sample_controller is not None:
            result.sample = self.sample_controller.summary(result)
        if self.profiler is not None:
            from repro.profile.report import build_profile
            self.host_profile = build_profile(
                self.profiler, result, self.config.distrib.backend,
                worker_scopes=self._worker_host_scopes,
                top_n=self.config.profile.top_n)
        return result

    # -- checkpointing ---------------------------------------------------------------------

    def _ckpt_hook(self, scheduler: Scheduler) -> None:
        """Periodic-hook shim: write one snapshot between quanta."""
        self.save_checkpoint()

    def save_checkpoint(self) -> str:
        """Write one consistent snapshot; returns its directory.

        Snapshotting is purely observational — it pickles the object
        graph without mutating it — so a checkpointing run stays
        byte-identical to a non-checkpointing one.
        """
        if self._ckpt_store is None:
            from repro.common.errors import CheckpointError
            raise CheckpointError(
                "checkpointing is not enabled (set config.ckpt.dir)")
        path = self._ckpt_store.write(
            turn=self.scheduler.turns,
            backend=self.config.distrib.backend,
            config=self.config,
            blobs=self._checkpoint_blobs())
        if self._span_emitter is not None and self._run_span:
            self._span_emitter.note(self._run_span, "checkpoint",
                                    turn=self.scheduler.turns)
        return path

    def _checkpoint_blobs(self) -> Dict[str, bytes]:
        """Blobs of one snapshot; the mp backend adds worker shards."""
        from repro.ckpt.snapshot import snapshot_bytes
        return {"coordinator": snapshot_bytes(self)}

    def _after_restore(self) -> None:
        """Fix up excised members after a snapshot is unpickled.

        The snapshot pickler excises host-side observers (telemetry
        bus/channels, profiler, sanitizers) to ``None`` — exactly the
        value every instrumented component already treats as
        "disabled" — and drops thread generators.  This hook unwraps
        the telemetry syscall tracer (its channel is gone) and replays
        every live thread's generator back to its position.
        """
        syscalls = self.mcp.syscalls
        inner = getattr(syscalls, "_inner", None)
        if inner is not None:
            self.mcp.syscalls = inner
        for interpreter in self.interpreters.values():
            rebuild = getattr(interpreter, "rebuild_generator", None)
            if rebuild is not None:
                rebuild()

    def _hand_profile_to_sinks(self) -> None:
        """Give Chrome sinks the host-profiler data (pre-close)."""
        if self.profiler is None or self.telemetry is None:
            return
        payload = {"run_ns": self.profiler.run_ns,
                   "scopes": self.profiler.scope_dict(),
                   "workers": self._worker_host_scopes or {}}
        for sink in self.telemetry.sinks:
            if isinstance(sink, ChromeTraceSink):
                sink.host_profile = payload

    def _native_seconds(self,
                        thread_instructions: Dict[int, int]) -> float:
        """Model the native run: uninstrumented, one 8-core machine.

        Threads are striped over the native machine's cores; the native
        run-time is the busiest core's instruction time (no simulation
        overheads, no instrumentation multiplier).
        """
        cores = self.config.host.cores_per_machine
        busy = [0.0] * cores
        for tile, instructions in sorted(thread_instructions.items()):
            busy[tile % cores] += self.cost_model.native_instructions(
                instructions)
        return max(busy) if busy else 0.0
