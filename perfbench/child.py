"""One measured run in a fresh process (started by ``run.py``).

Usage: ``python3 perfbench/child.py '<json spec>'``.  The spec names a
``workload``, a ``seed``, a ``workdir`` and a ``mode``:

``timed``
    Set up ``SETUP_REPS`` times (each timed; all but the last are
    discarded), then time one un-instrumented run.
``traced``
    Set up once, instrument the simulator (``spans.py``), run, write
    the spans out and report the merged per-layer numbers.
``reference``
    The untimed reference a workload is checked against: ``mp_fft``'s
    configuration in-process, or ``sweep_lu``'s variants in full detail.

An optional ``inject_network_s`` busy-waits that many seconds in every
``NetworkFabric.transfer`` call (the benchmark's self-test uses it).

Every module the run needs is imported before any clock starts, so
interpreter start-up and imports stay out of the timings.  The child
prints one JSON object on stdout.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402
# Imported here so that lazy imports inside the simulator stay out of
# the timed regions.
import repro.distrib.coordinator  # noqa: E402,F401
import repro.distrib.pool  # noqa: E402,F401
import repro.distrib.worker  # noqa: E402,F401
import repro.sample.controller  # noqa: E402,F401
import repro.sample.library  # noqa: E402,F401
import repro.sim.experiment  # noqa: E402,F401
import repro.sim.runner  # noqa: E402,F401
import repro.workloads  # noqa: E402,F401

#: Timed set-ups per ``timed`` run (``run.py`` reports their median).
SETUP_REPS = 5


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _inject(prepared, seconds: float) -> None:
    """Busy-wait ``seconds`` in every ``NetworkFabric.transfer`` call."""
    fabric = prepared.simulator.fabric
    transfer = fabric.transfer

    def slow_transfer(*args, **kwargs):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return transfer(*args, **kwargs)

    fabric.transfer = slow_transfer


def timed(spec: dict) -> dict:
    name, seed, workdir = spec["workload"], spec["seed"], spec["workdir"]
    setup_s = []
    prepared = None
    for _ in range(SETUP_REPS):
        if prepared is not None:
            prepared.cleanup()
            prepared = None
            gc.collect()
        start = time.perf_counter()
        prepared = workloads.prepare(name, seed, workdir)
        setup_s.append(time.perf_counter() - start)
    if spec.get("inject_network_s"):
        _inject(prepared, spec["inject_network_s"])
    try:
        start = time.perf_counter()
        results = prepared.run()
        run_s = time.perf_counter() - start
        fact = workloads.facts(name, prepared, results)
    finally:
        prepared.cleanup()
    return {"run_s": run_s, "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(), "facts": fact}


def traced(spec: dict) -> dict:
    name, seed, workdir = spec["workload"], spec["seed"], spec["workdir"]
    trace_id = spec["trace_id"]
    out_dir = os.path.join(workdir, "traces")
    tracer = spans.Tracer(trace_id, out_dir)
    prepared = workloads.prepare(name, seed, workdir)
    if spec.get("inject_network_s"):
        _inject(prepared, spec["inject_network_s"])
    hooks = spans.ForkHooks(tracer)
    try:
        if prepared.simulator is not None:
            spans.instrument_simulator(tracer, prepared.simulator)
        if prepared.library is not None:
            spans.instrument_library(tracer, prepared.library)
        run = tracer.wrap("sample.sweep" if prepared.library is not None
                          else "run", prepared.run)
        start = time.perf_counter()
        results = run()
        run_s = time.perf_counter() - start
        fact = workloads.facts(name, prepared, results)
    finally:
        hooks.remove()
        prepared.cleanup()
    merged = spans.collect(tracer)
    return {"run_s": run_s, "facts": fact, "trace": merged}


def reference(spec: dict) -> dict:
    name, seed = spec["workload"], spec["seed"]
    if name == "mp_fft":
        simulator, program = workloads.inproc_reference(seed)
        start = time.perf_counter()
        result = simulator.run(program)
        return {"run_s": time.perf_counter() - start,
                "digest": workloads.digest([result])}
    if name == "sweep_lu":
        return {"full_cycles": workloads.full_detail_cycles(seed)}
    raise ValueError(f"{name} has no reference run")


MODES = {"timed": timed, "traced": traced, "reference": reference}


def main(argv) -> int:
    spec = json.loads(argv[1])
    if spec["workload"] in workloads.ONE_CPU:
        # Inherited by every process the run forks.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(MODES[spec["mode"]](spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
