"""The snapshot library: one fast-forward shared across a config sweep.

A configuration sweep (core-model studies, network studies) typically
varies only sections that functional fast-forward ignores — the timing
models.  Every variant therefore computes *exactly the same*
architectural state while fast-forwarding to the region of interest,
and the work can be done once: the library fast-forwards a *primer*
run to ``sample.ff_until``, checkpoints at the switch point (the same
consistency boundary :mod:`repro.ckpt` always snapshots at) and files
the checkpoint under a key derived from

* the workload's structural descriptor (which workload, how many
  threads, its scale and parameters),
* the configuration's *prefix hash*
  (:meth:`~repro.common.config.SimulationConfig.prefix_hash` — the
  semantic sections minus the timing-only ones), and
* the fast-forward target itself.

Each sweep variant then *forks* from the stored snapshot: the restored
simulator is re-dressed with the variant's timing models (core and
network — precisely the sections the prefix hash dropped) and resumed
in detailed mode.  Because the fast-forward path never touches the
timing models, a forked run is byte-identical to an unshared run of
the same variant; :func:`SnapshotLibrary.verify` checks exactly that,
loudly, and :class:`~repro.common.errors.SampleError` means the
prefix-irrelevance contract was broken.

The entry layout on disk::

    <library root>/
        <key>/                  one entry per (workload, prefix, target)
            LIBRARY.json        descriptor, hashes, primer telemetry
            ckpt-NNNNNNNN/      the switch-point checkpoint
            LATEST

Entries are created atomically (staging directory + ``os.replace``) so
concurrent sweep processes racing to prime the same prefix cannot
observe a half-written entry — the losing primer's work is discarded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import SampleConfig, SimulationConfig
from repro.common.errors import SampleError
from repro.sample.controller import FastForwardDone

#: Metadata file marking a complete library entry.
LIBRARY_META = "LIBRARY.json"

#: On-disk entry format version.  It is part of every key, so entries
#: filed under an older format (whose checkpoints pickle an older
#: simulator layout) are never forked; the next ``ensure`` re-primes.
LIBRARY_FORMAT = "repro.sample/2"


def workload_descriptor(program: Any, args: tuple = ()) -> Dict[str, Any]:
    """Structural identity of a workload, stable across processes.

    Named workloads (anything :func:`repro.distrib.wire.
    make_program_ref` can resolve to a :class:`~repro.distrib.wire.
    WorkloadRef`) are described by their registry name, thread count,
    scale and parameters; ad-hoc callables fall back to the sha256 of
    their pickled program reference — correct, but shared only between
    runs shipping the very same code object.
    """
    from repro.distrib.wire import make_program_ref, program_key
    ref = make_program_ref(program)
    if hasattr(ref, "workload"):
        descriptor: Dict[str, Any] = {
            "workload": ref.workload,
            "nthreads": ref.nthreads,
            "scale": ref.scale,
            "params": {k: ref.params[k] for k in sorted(ref.params)},
        }
    else:
        descriptor = {
            "program_sha": hashlib.sha256(program_key(ref)).hexdigest(),
        }
    if args:
        descriptor["args"] = repr(tuple(args))
    return descriptor


def roi_metrics(result: Any) -> Dict[str, Any]:
    """The result fields the determinism check compares byte-for-byte.

    Everything semantic: cycles, per-thread clocks and instruction
    counts, the full counter tree, and the sampling summary minus its
    ``library`` annotation (which legitimately differs between a forked
    and an unshared run).  Host wall-clock estimates are modelled — and
    identical too — but float formatting is not what the check is
    about, so they are left out.
    """
    sample = {k: v for k, v in result.sample.items() if k != "library"}
    return {
        "simulated_cycles": result.simulated_cycles,
        "parallel_cycles": result.parallel_cycles,
        "thread_cycles": dict(result.thread_cycles),
        "thread_instructions": dict(result.thread_instructions),
        "thread_start_cycles": dict(result.thread_start_cycles),
        "total_instructions": result.total_instructions,
        "counters": dict(result.counters),
        "sample": sample,
    }


class SnapshotLibrary:
    """Keyed store of fast-forward switch-point checkpoints."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Sweep-level accounting: how many variants primed a new entry
        #: versus forked an existing one.  ``primes`` counts actual
        #: fast-forwards performed — a shared-prefix sweep asserts it
        #: stays at 1.
        self.stats = {"primes": 0, "hits": 0}

    # -- keying ---------------------------------------------------------------

    def key(self, config: SimulationConfig, program: Any,
            args: tuple = ()) -> str:
        """The library key of ``config``'s functional prefix.

        sha256 over canonical JSON of the entry format, the workload
        descriptor, the config's prefix hash and the fast-forward
        target — no repr of live objects, no addresses, so the key is
        stable across processes and ``PYTHONHASHSEED`` values.
        """
        payload = {
            "format": LIBRARY_FORMAT,
            "descriptor": workload_descriptor(program, args),
            "prefix": config.prefix_hash(),
            "ff_until": config.sample.ff_until,
        }
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def entry_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def has(self, key: str) -> bool:
        return os.path.isfile(os.path.join(self.entry_dir(key),
                                           LIBRARY_META))

    def meta(self, key: str) -> Dict[str, Any]:
        path = os.path.join(self.entry_dir(key), LIBRARY_META)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise SampleError(
                f"library entry {key!r} is unreadable: {exc}") from exc

    def entries(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Every complete entry as ``(key, metadata)``, key-sorted."""
        found = []
        for name in sorted(os.listdir(self.root)):
            if self.has(name):
                found.append((name, self.meta(name)))
        return found

    def drop(self, key: str) -> bool:
        """Delete one entry; returns whether anything was removed."""
        entry = self.entry_dir(key)
        if not os.path.isdir(entry):
            return False
        shutil.rmtree(entry)
        return True

    # -- priming --------------------------------------------------------------

    def prime(self, config: SimulationConfig, program: Any,
              args: tuple = ()) -> str:
        """Fast-forward once and file the switch-point checkpoint.

        Runs a primer simulation — the variant's config with the
        timing-irrelevant sections untouched, checkpointing redirected
        into a staging directory — on the config's own backend, with
        the sample controller's ``stop_after_ff`` set so the run
        checkpoints at the fast-forward switch and unwinds.  The
        staging directory is moved into place atomically; if another
        process primed the same key meanwhile, its entry wins and this
        one is discarded.  Returns the entry directory.
        """
        if config.sample.ff_until <= 0:
            raise SampleError("priming needs sample.ff_until > 0")
        key = self.key(config, program, args)
        final = self.entry_dir(key)
        staging = os.path.join(self.root, f".priming-{key}")
        if os.path.isdir(staging):
            shutil.rmtree(staging)
        primer_config = self._primer_config(config, staging)
        from repro.sim.runner import create_simulator
        simulator = create_simulator(primer_config)
        controller = simulator.sample_controller
        assert controller is not None  # sample.enabled via ff_until
        controller.stop_after_ff = True
        try:
            simulator.run(program, args)
        except FastForwardDone:
            pass
        else:
            shutil.rmtree(staging, ignore_errors=True)
            raise SampleError(
                f"workload finished before the fast-forward target "
                f"(ff_until={config.sample.ff_until}); there is no "
                f"detailed region to share")
        meta = {
            "format": LIBRARY_FORMAT,
            "key": key,
            "descriptor": workload_descriptor(program, args),
            "prefix_hash": config.prefix_hash(),
            "ff_until": config.sample.ff_until,
            "backend": primer_config.distrib.backend,
            "num_tiles": config.num_tiles,
            "events": self._sample_events(simulator),
        }
        with open(os.path.join(staging, LIBRARY_META), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        self.stats["primes"] += 1
        if os.path.isdir(final):
            # Lost a priming race; both entries hold byte-identical
            # state (that is the whole point), keep the incumbent.
            shutil.rmtree(staging)
        else:
            os.replace(staging, final)
        return final

    @staticmethod
    def _primer_config(config: SimulationConfig,
                       staging: str) -> SimulationConfig:
        """The primer's config: the variant minus everything post-FF."""
        primer = config.copy()
        # Fast-forward only — the primer never runs the variant's
        # interval schedule, and must not try to fork a library itself.
        primer.sample = SampleConfig(ff_until=config.sample.ff_until)
        # Checkpoints go to the staging entry; no periodic cadence, the
        # controller writes the single switch-point snapshot itself.
        primer.ckpt.dir = staging
        primer.ckpt.every = 0
        primer.ckpt.keep = 1
        # In-memory SAMPLE telemetry so the primer's mode switches land
        # in the entry metadata; no file sinks (the variant's paths are
        # not ours to write).
        primer.telemetry.enabled = True
        primer.telemetry.events = ["sample"]
        primer.telemetry.trace_path = None
        primer.telemetry.metrics_interval = 0
        primer.telemetry.trace_id = ""
        primer.telemetry.span_parent = ""
        primer.telemetry.flight_dir = ""
        primer.validate()
        return primer

    @staticmethod
    def _sample_events(simulator: Any) -> List[Dict[str, Any]]:
        """The primer's SAMPLE telemetry, for the entry metadata."""
        bus = getattr(simulator, "telemetry", None)
        if bus is None:
            return []
        from repro.telemetry.events import EventCategory
        return [event.to_dict() for event in bus.ordered_events()
                if event.category == EventCategory.SAMPLE]

    # -- forking --------------------------------------------------------------

    def ensure(self, config: SimulationConfig, program: Any,
               args: tuple = ()) -> Tuple[str, bool]:
        """Prime the entry for ``config`` unless present.

        Returns ``(key, primed)`` where ``primed`` says whether this
        call performed the fast-forward.
        """
        key = self.key(config, program, args)
        if self.has(key):
            self.stats["hits"] += 1
            return key, False
        self.prime(config, program, args)
        return key, True

    def fork(self, key: str, config: SimulationConfig) -> Any:
        """A runnable simulator: the stored snapshot, re-dressed.

        Restores the entry's checkpoint, swaps in ``config``'s timing
        models (core and network — the prefix-irrelevant sections) and
        re-arms telemetry per ``config``.  Drive the result with
        ``resume_run()``.
        """
        if not self.has(key):
            raise SampleError(f"no library entry {key!r} in {self.root}")
        from repro.ckpt.recovery import _recovery_bus, load_checkpoint
        simulator, _manifest = load_checkpoint(self.entry_dir(key))
        _reconfigure_fork(simulator, config)
        _recovery_bus(simulator)
        self._rearm_controller_channel(simulator)
        return simulator

    @staticmethod
    def _rearm_controller_channel(simulator: Any) -> None:
        """Re-attach the SAMPLE channel the snapshot excised."""
        controller = simulator.sample_controller
        if controller is None or simulator.telemetry is None:
            return
        from repro.telemetry.events import EventCategory
        controller.channel = simulator.telemetry.channel(
            EventCategory.SAMPLE)

    # -- the determinism check ------------------------------------------------

    def verify(self, config: SimulationConfig, program: Any,
               args: tuple = ()) -> Dict[str, Any]:
        """Loud check: a forked run must equal an unshared run, exactly.

        Runs ``config`` twice — once forked from the library (priming
        if needed) and once from cycle zero without the library — and
        compares :func:`roi_metrics` byte-for-byte via canonical JSON.
        Raises :class:`~repro.common.errors.SampleError` naming every
        differing field on mismatch; returns the comparison summary on
        success.
        """
        key, primed = self.ensure(config, program, args)
        forked = self.fork(key, config).resume_run()
        unshared_config = config.copy()
        unshared_config.sample.library = None
        from repro.sim.runner import create_simulator
        unshared = create_simulator(unshared_config).run(program, args)
        ours, theirs = roi_metrics(forked), roi_metrics(unshared)
        blob_f = json.dumps(ours, sort_keys=True, default=str)
        blob_u = json.dumps(theirs, sort_keys=True, default=str)
        if blob_f != blob_u:
            differing = sorted(
                field for field in {**ours, **theirs}
                if json.dumps(ours.get(field), sort_keys=True,
                              default=str)
                != json.dumps(theirs.get(field), sort_keys=True,
                              default=str))
            raise SampleError(
                "snapshot-library determinism violation: forked run "
                f"diverged from the unshared run in {differing} "
                f"(key {key!r}); the prefix-irrelevance contract of "
                "functional fast-forward is broken")
        return {"key": key, "primed": primed,
                "simulated_cycles": forked.simulated_cycles,
                "identical": True}


def run_with_library(config: SimulationConfig, program: Any,
                     args: tuple = (),
                     library: Optional[SnapshotLibrary] = None) -> Any:
    """Run one configuration, sharing its fast-forward via the library.

    The library path engages when the config names a library directory
    and requests a fast-forward; otherwise this is a plain
    :func:`repro.sim.runner.run_simulation`.  The returned result's
    ``sample["library"]`` records the entry key and whether this call
    primed it.
    """
    use_library = (config.sample.ff_until > 0
                   and bool(config.sample.library))
    if not use_library:
        from repro.sim.runner import run_simulation
        return run_simulation(config, program, args)
    lib = library or SnapshotLibrary(config.sample.library)
    key, primed = lib.ensure(config, program, args)
    simulator = lib.fork(key, config)
    result = simulator.resume_run()
    result.sample["library"] = {"key": key, "primed": primed,
                                "root": lib.root}
    return result


# -- fork-time re-dressing ----------------------------------------------------


def _reconfigure_fork(simulator: Any, config: SimulationConfig) -> None:
    """Swap a restored snapshot's timing models for ``config``'s.

    Only the prefix-irrelevant sections may differ between the primer
    and the variant, so this touches exactly the core models, the
    network models and the sampling/checkpoint policy; everything else
    (memory system, sync, host layout) is identical by construction of
    the library key.  Model rebuilds are gated on actual config
    inequality so a same-config fork keeps the snapshot's objects
    untouched.
    """
    simulator.config = config
    for tile, interpreter in simulator.interpreters.items():
        core = getattr(interpreter, "core", None)
        if core is None or not hasattr(core, "config"):
            continue  # mp coordinator stubs; workers re-dress on RESTORE
        target = config.core_config_for(int(tile))
        if core.config != target:
            _rebuild_core(simulator, interpreter, target)
    fabric = getattr(simulator, "fabric", None)
    if fabric is not None and fabric.config != config.network:
        _rebuild_fabric(fabric, config.network)
    controller = simulator.sample_controller
    if controller is not None:
        controller.config = config.sample
        controller.stop_after_ff = False
        # The primer ran fast-forward-only, so its switch-point hook
        # opened a measurement window (everything past ``ff_until`` is
        # DETAIL without intervals).  Re-evaluate under the variant's
        # geometry: an unshared run of the variant opens a window at
        # that same hook only if its phase there is measured (warmup
        # is not), and warmup-first period ordering guarantees the two
        # runs agree on every field when it is.
        if controller._open_window is not None:
            from repro.sample.intervals import phase_at
            phase = phase_at(config.sample, controller._horizon)
            if not phase.measured:
                controller._open_window = None
    # The variant's own checkpoint policy replaces the primer's
    # (which pointed into the library staging area).
    simulator._ckpt_store = None
    if config.ckpt.enabled:
        from repro.ckpt.store import CheckpointStore
        simulator._ckpt_store = CheckpointStore(config.ckpt.dir,
                                                keep=config.ckpt.keep)
        if config.ckpt.every > 0:
            simulator.scheduler.add_periodic_hook(simulator._ckpt_hook,
                                                  config.ckpt.every)


def _rebuild_core(simulator: Any, interpreter: Any, target: Any) -> None:
    """Replace one thread's core model, preserving functional progress.

    Fast-forward advances only the clock and the retired-instruction
    counter; predictors, store buffers and issue windows are untouched
    — i.e. exactly the pristine state a freshly built model has.  The
    thread's ``core`` stat subtree is rebuilt from scratch so the new
    model's counter set matches an unshared run of the variant (no
    stale zero-valued counters from the primer's model type), then the
    clock and instruction total carry over.
    """
    from repro.core.factory import create_core_model
    old = interpreter.core
    clock_now = old.clock.now
    retired = old.instruction_count
    thread_stats = simulator.stats.child(f"thread{int(interpreter.tile)}")
    thread_stats.children.pop("core", None)
    core = create_core_model(target, thread_stats.child("core"),
                             telemetry=None,
                             tile=int(interpreter.tile))
    core.clock.forward_to(clock_now)
    if retired:
        core._instructions.add(retired)
    interpreter.core = core


def _rebuild_fabric(fabric: Any, network_config: Any) -> None:
    """Replace the network models with ``network_config``'s.

    Nothing routed during fast-forward (functional sends bypass the
    models entirely), so the primer's model state and counters are all
    pristine; dropping the per-class stat subtrees and rebuilding
    matches an unshared variant run exactly.
    """
    from repro.network.model import create_network_model
    from repro.transport.message import MessageKind
    fabric.config = network_config
    model_names = {
        MessageKind.USER: network_config.user_model,
        MessageKind.MEMORY: network_config.memory_model,
        MessageKind.SYSTEM: network_config.system_model,
    }
    for kind in model_names:
        fabric.stats.children.pop(f"{kind.value}_net", None)
    fabric.models = {
        kind: create_network_model(name, fabric.num_tiles,
                                   network_config,
                                   fabric.stats.child(f"{kind.value}_net"))
        for kind, name in model_names.items()
    }
    for model in fabric.models.values():
        model.telemetry = fabric._tele
