"""The benchmark's four workloads: how each is set up, run and checked.

Every workload is a fixed configuration of the simulator plus one seed,
which goes into ``SimulationConfig.seed`` and nowhere else.  Set-up
(:func:`prepare`) builds everything a run needs; the run itself is one
call (``Prepared.run``) whose host wall time is the benchmark's
``run_s``.  :func:`facts` reduces the results to the numbers the
benchmark reports and checks, and :func:`shape_problems` fails loudly
when a configuration drift stops a workload stressing its layer.

Modelled caches start cold on every run: each run builds a fresh
simulator (or, on ``sweep_lu``, a fresh snapshot library), so no
modelled state carries over from an earlier run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Seed the workloads were tuned on, and the held-out seed for
#: confirming a claimed gain (see README.md).
DEV_SEED = 42
HELD_OUT_SEED = 1009

NAMES = ("ocean_hits", "bs64_dir4", "mp_fft", "sweep_lu")

#: ``sweep_lu``: the fast-forward target and interval geometry
#: (period:detail:warmup cycles), and the swept timing models.
SWEEP_FF_UNTIL = 400_000
SWEEP_INTERVALS = (60_000, 12_000, 10_000)
SWEEP_VARIANTS = (("in_order", "mesh"), ("in_order", "mesh_contention"),
                  ("out_of_order", "mesh"),
                  ("out_of_order", "mesh_contention"))
SWEEP_WORKERS = 2

#: Workloads whose processes all run pinned to one CPU.  The mp
#: protocol is synchronous, so only one of ``mp_fft``'s three processes
#: runs at a time; unpinned, wakeups that cross CPUs made its runs on a
#: 2-vCPU VM vary from 3.7 s to 12 s, pinned from 3.0 s to 4.6 s.
ONE_CPU = ("mp_fft",)


def single_config(name: str, seed: int) -> tuple:
    """``(config, program reference)`` of a one-simulation workload."""
    from repro.common.config import SimulationConfig
    from repro.distrib.wire import WorkloadRef

    if name == "ocean_hits":
        config = SimulationConfig(num_tiles=8, seed=seed)
        ref = WorkloadRef("ocean_cont", 8, 2.0)
    elif name == "bs64_dir4":
        # The Figure 9 Dir4NB point.
        config = SimulationConfig(num_tiles=64, seed=seed)
        config.memory.directory_type = "limited"
        config.memory.directory_max_sharers = 4
        config.host.quantum_instructions = 100
        ref = WorkloadRef("blackscholes", 64, 1.0, {"options": 2048})
    elif name == "mp_fft":
        config = SimulationConfig(num_tiles=8, seed=seed)
        config.distrib.backend = "mp"
        config.distrib.transport = "pipe"
        config.host.num_processes = 2
        ref = WorkloadRef("fft", 8, 1.0)
    else:
        raise KeyError(f"{name!r} is not a one-simulation workload")
    config.validate()
    return config, ref


def sweep_configs(seed: int, library_root: Optional[str],
                  sampled: bool = True) -> List[Any]:
    """The ``sweep_lu`` variants; ``sampled=False`` gives full detail."""
    from repro.common.config import SimulationConfig

    configs = []
    for core_model, network_model in SWEEP_VARIANTS:
        config = SimulationConfig(num_tiles=8, seed=seed)
        config.core.model = core_model
        config.network.user_model = network_model
        config.network.memory_model = network_model
        if sampled:
            config.sample.ff_until = SWEEP_FF_UNTIL
            (config.sample.period, config.sample.detail,
             config.sample.warmup) = SWEEP_INTERVALS
            config.sample.library = library_root
        config.validate()
        configs.append(config)
    return configs


def sweep_ref() -> Any:
    from repro.distrib.wire import WorkloadRef
    return WorkloadRef("lu_cont", 8, 2.0)


@dataclass
class Prepared:
    """A runnable workload: ``run()`` is the timed call."""

    run: Callable[[], List[Any]]
    simulator: Any = None
    library: Any = None
    cleanup: Callable[[], None] = field(default=lambda: None)


def prepare(name: str, seed: int, workdir: str) -> Prepared:
    """Set-up: everything from configuration to a runnable simulation.

    For a one-simulation workload this is ``create_simulator`` plus the
    program resolve; the mp backend resolves the program in its
    workers, so there it is ``create_simulator`` alone (worker start-up
    happens inside ``run()``).  For ``sweep_lu`` it is config staging
    and a fresh, empty snapshot library.
    """
    if name == "sweep_lu":
        import tempfile
        from repro.sample.library import SnapshotLibrary
        from repro.sim.experiment import sweep

        root = tempfile.mkdtemp(prefix="library-", dir=workdir)
        configs = sweep_configs(seed, root)
        library = SnapshotLibrary(root)
        ref = sweep_ref()
        return Prepared(
            run=lambda: sweep(configs, ref, workers=SWEEP_WORKERS,
                              share_prefix=True, library=library),
            library=library,
            cleanup=lambda: shutil.rmtree(root, ignore_errors=True))
    from repro.sim.runner import create_simulator

    config, ref = single_config(name, seed)
    simulator = create_simulator(config)
    program = ref if config.distrib.backend == "mp" else ref.resolve()
    return Prepared(run=lambda: [simulator.run(program)],
                    simulator=simulator)


def inproc_reference(seed: int) -> Any:
    """``mp_fft``'s configuration on the in-process backend."""
    from repro.sim.runner import create_simulator

    config, ref = single_config("mp_fft", seed)
    config.distrib.backend = "inproc"
    return create_simulator(config), ref.resolve()


def full_detail_cycles(seed: int) -> List[int]:
    """Simulated cycles of each ``sweep_lu`` variant run in full detail."""
    from repro.sim.experiment import sweep

    results = sweep(sweep_configs(seed, None, sampled=False), sweep_ref(),
                    workers=SWEEP_WORKERS)
    return [r.simulated_cycles for r in results]


# -- reducing results ---------------------------------------------------------


def digest(results: List[Any]) -> str:
    """sha256 over each result's cycles, thread cycles and counters."""
    payload = [{"simulated_cycles": r.simulated_cycles,
                "thread_cycles": r.thread_cycles,
                "counters": r.counters} for r in results]
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _counter_sum(results: List[Any], predicate: Callable[[str], bool]
                 ) -> int:
    return sum(value for r in results for key, value in r.counters.items()
               if predicate(key))


def functional_share(result: Any) -> float:
    """Share of a sampled run's cycles spent in functional mode."""
    sample = result.sample or {}
    if not sample.get("ff"):
        return 0.0
    functional, mode, since = 0, "functional", 0
    for switch in sample.get("mode_switches", ()):
        if mode == "functional":
            functional += switch["cycle"] - since
        mode, since = switch["mode"], switch["cycle"]
    if mode == "functional":
        functional += max(0, result.simulated_cycles - since)
    return functional / result.simulated_cycles


def facts(name: str, prepared: Prepared, results: List[Any]
          ) -> Dict[str, Any]:
    """The model facts of one run: what is reported and checked."""
    out: Dict[str, Any] = {
        "digest": digest(results),
        "cycles": sum(r.simulated_cycles for r in results),
        "instructions": sum(r.total_instructions for r in results),
        "l1d_hits": _counter_sum(results, lambda k: k.endswith(".l1d.hits")),
        "l1d_lookups": _counter_sum(
            results, lambda k: k.endswith(".l1d.lookups")),
        "l1i_hits": _counter_sum(results, lambda k: k.endswith(".l1i.hits")),
        "l1i_lookups": _counter_sum(
            results, lambda k: k.endswith(".l1i.lookups")),
        "read_misses": _counter_sum(
            results, lambda k: k == "sim.memory.read_misses"),
        "packets": _counter_sum(
            results, lambda k: k.startswith("sim.network.")
            and k.endswith(".packets")),
    }
    if prepared.simulator is not None:
        sim = prepared.simulator
        out["backend"] = sim.config.distrib.backend
        out["processes"] = sim.layout.num_processes
    if prepared.library is not None:
        forks = [r.sample.get("library", {}) for r in results]
        out["primes"] = prepared.library.stats["primes"]
        out["forks"] = sum(1 for f in forks if f and not f["primed"])
        out["estimated_cycles"] = [r.sample["extrapolation"]["cycles"]
                                   for r in results]
        out["ff_cycle_share"] = (sum(functional_share(r) for r in results)
                                 / len(results))
        out["snapshot_bytes"] = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(prepared.library.root)
            for f in files)
    return out


def shape_problems(name: str, fact: Dict[str, Any]) -> List[str]:
    """Configuration drift that would stop a workload stressing its layer."""
    problems = []
    if name == "ocean_hits":
        ratio = fact["l1d_hits"] / max(1, fact["l1d_lookups"])
        if ratio < 0.95:
            problems.append(f"ocean_hits: L1D hit ratio {ratio:.3f} < 0.95")
    elif name == "bs64_dir4":
        if fact["read_misses"] <= fact["l1d_hits"]:
            problems.append(
                f"bs64_dir4: {fact['read_misses']} read misses do not "
                f"exceed {fact['l1d_hits']} L1D hits")
    elif name == "mp_fft":
        if fact.get("backend") != "mp" or fact.get("processes") != 2:
            problems.append(
                f"mp_fft: ran on backend {fact.get('backend')!r} with "
                f"{fact.get('processes')} processes, not mp with 2")
    elif name == "sweep_lu":
        if fact["primes"] != 1 or fact["forks"] != len(SWEEP_VARIANTS):
            problems.append(
                f"sweep_lu: {fact['primes']} primes and {fact['forks']} "
                f"forks, not 1 and {len(SWEEP_VARIANTS)}")
    return problems
