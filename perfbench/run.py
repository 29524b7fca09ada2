"""The repository benchmark: un-instrumented simulation speed per workload.

Usage::

    python3 perfbench/run.py --workload ocean_hits --seed 42 \\
        --seconds 27 --trace 0

With ``--trace 0`` the command times un-instrumented runs of the
workload, each in a fresh child process, for about ``--seconds``
seconds, checks every result, and reports the end-to-end metrics as
medians over the runs.  With ``--trace 1`` it alternates an
un-instrumented run with a traced one (``spans.py``) and reports the
per-layer metrics and the tracing overhead.  Either way the last line
of standard output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

and the command exits nonzero when any run failed or any check did
not hold.  Run metadata (host, Python, load average, commit, seed) is
printed above it and saved, with every per-run sample, under
``.perfbench_work/results/``.  See README.md for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

#: Every invocation finishes within this many seconds.
HARD_LIMIT_S = 170.0
#: Timed runs per invocation, at least, whatever ``--seconds`` says;
#: a traced invocation makes at least two untraced/traced pairs, so
#: that its exact counts are compared across two traced runs.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

#: Units of the end-to-end metrics.  ``sample_err_pct`` exists on
#: ``sweep_lu`` only and ``error_rate`` is 0 on a healthy run, so both
#: are printed but not declared in BENCHMARK.json (whose ``failed`` and
#: ``attempted`` fields carry the error rate).
E2E_UNITS = {"run_s": "s", "cycles_per_s": "cycles/s",
             "instr_per_s": "instr/s", "setup_s": "s", "peak_rss_mb": "MB",
             "sample_err_pct": "%", "error_rate": "ratio"}
#: Per-layer ratios of two run times rather than of one trace.
TRACE_RATIOS = ("trace_overhead", "distrib.mp_over_inproc")


class ChildFailed(Exception):
    """A child process raised, timed out or printed no result."""


def run_child(spec: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run ``child.py`` on ``spec`` in a fresh interpreter; its JSON out."""
    spec = dict(spec, workdir=WORKDIR)
    timeout = max(1.0, deadline - time.monotonic())
    # A session of its own, so that a timeout also stops the child's
    # mp workers or pool processes.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{spec['mode']} run timed out after "
                          f"{timeout:.0f}s") from exc
    if proc.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"{spec['mode']} run exited "
                          f"{proc.returncode}: {tail}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{spec['mode']} run printed no result")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(seed: int, seconds: float) -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_before": list(os.getloadavg()), "loadavg_after": None,
            "commit": git_commit(), "seed": seed, "seconds": seconds}


class Run:
    """Attempted and failed counts plus the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, *problems: str) -> None:
        """Count one failed run, found to have ``problems``."""
        self.failed += 1
        self.problems.extend(problems)

    def child(self, spec: Dict[str, Any], deadline: float
              ) -> Optional[Dict[str, Any]]:
        """One counted run; ``None`` (and a failure) if it broke."""
        self.attempted += 1
        try:
            return run_child(spec, deadline)
        except ChildFailed as exc:
            self.fail(str(exc))
            return None

    def check(self, name: str, fact: Dict[str, Any],
              first: Dict[str, Any], ref: Dict[str, Any],
              problems: Optional[List[str]] = None) -> None:
        """The per-run correctness gate and shape checks; ``problems``
        already found in the same run count towards the same failure."""
        problems = list(problems or ()) + workloads.shape_problems(name,
                                                                   fact)
        if fact["digest"] != first["digest"]:
            problems.append(f"{name}: result digest differs from the "
                            "first run's")
        if "digest" in ref and fact["digest"] != ref["digest"]:
            problems.append(f"{name}: result digest differs from the "
                            "in-process reference")
        if problems:
            self.fail(*problems)


def _reference(name: str, seed: int, run: Run, deadline: float
               ) -> Dict[str, Any]:
    """The workload's untimed reference run, if it has one."""
    if name not in ("mp_fft", "sweep_lu"):
        return {}
    return run.child({"mode": "reference", "workload": name, "seed": seed},
                     deadline) or {}


def _loop(seconds: float, deadline: float, body, min_runs: int) -> None:
    """Call ``body()`` at least ``min_runs`` times, then while the next
    call is expected to end within ``seconds``.  Stops early only at
    ``deadline``."""
    start = time.monotonic()
    count, last = 0, 0.0
    while True:
        began = time.monotonic()
        if count >= min_runs and began - start + last > seconds:
            return
        if count and began + last > deadline:
            return
        body()
        count += 1
        last = time.monotonic() - began


def measure(name: str, seed: int, seconds: float,
            inject_network_s: float = 0.0) -> Dict[str, Any]:
    """``--trace 0``: end-to-end metrics over un-instrumented runs."""
    deadline = time.monotonic() + HARD_LIMIT_S
    run = Run()
    ref = _reference(name, seed, run, deadline)
    samples: List[Dict[str, Any]] = []

    def body() -> None:
        out = run.child({"mode": "timed", "workload": name, "seed": seed,
                         "inject_network_s": inject_network_s}, deadline)
        if out is None:
            return
        first = samples[0]["facts"] if samples else out["facts"]
        run.check(name, out["facts"], first, ref)
        samples.append(out)

    _loop(seconds, deadline, body, MIN_RUNS)
    metrics: Dict[str, Any] = {}
    if samples:
        run_s = [s["run_s"] for s in samples]
        fact = samples[0]["facts"]
        values = {
            "run_s": statistics.median(run_s),
            "cycles_per_s": statistics.median(
                s["facts"]["cycles"] / s["run_s"] for s in samples),
            "instr_per_s": statistics.median(
                s["facts"]["instructions"] / s["run_s"] for s in samples),
            "setup_s": statistics.median(
                t for s in samples for t in s["setup_s"]),
            "peak_rss_mb": statistics.median(
                s["peak_rss_mb"] for s in samples),
        }
        if "full_cycles" in ref:
            errors = [abs(est - full) / full * 100.0 for est, full
                      in zip(fact["estimated_cycles"], ref["full_cycles"])]
            values["sample_err_pct"] = sum(errors) / len(errors)
        metrics = {key: (value, E2E_UNITS[key])
                   for key, value in values.items()}
    metrics["error_rate"] = (run.failed / max(1, run.attempted), "ratio")
    return {"run": run, "metrics": metrics, "samples": samples,
            "reference": ref}


def layer_metrics(trace: Dict[str, Any], fact: Dict[str, Any]
                  ) -> Dict[str, tuple]:
    """The per-layer metrics of one traced run, as ``(value, unit)``."""
    calls, self_ns, counts = trace["calls"], trace["self_ns"], trace["counts"]

    def n(layer: str) -> tuple:
        return sum(calls.get(s, 0) for s in spans.LAYERS[layer]), "count"

    def self_s(layer: str) -> tuple:
        return (sum(self_ns.get(s, 0) for s in spans.LAYERS[layer]) / 1e9,
                "s")

    kinstr = fact["instructions"] / 1000.0

    def per_kinstr(value: float, unit: str) -> tuple:
        return value / kinstr, unit

    def ratio(num: float, den: float) -> tuple:
        return num / max(1, den), "ratio"

    return {
        "frontend.quanta": n("frontend"),
        "frontend.self_s": self_s("frontend"),
        "core.calls": n("core"),
        "core.self_s": self_s("core"),
        "memory.controller.calls": n("memory.controller"),
        "memory.controller.self_s": self_s("memory.controller"),
        "memory.l1d_hit_ratio": ratio(fact["l1d_hits"], fact["l1d_lookups"]),
        "memory.l1i_hit_ratio": ratio(fact["l1i_hits"], fact["l1i_lookups"]),
        "memory.coherence.per_access": ratio(n("memory.coherence")[0],
                                             n("memory.controller")[0]),
        "memory.coherence.calls": n("memory.coherence"),
        "memory.coherence.self_s": self_s("memory.coherence"),
        "memory.dram.calls": n("memory.dram"),
        "memory.dram.self_s": self_s("memory.dram"),
        "network.calls": n("network"),
        "network.self_s": self_s("network"),
        "network.packets_per_kinstr": per_kinstr(fact["packets"],
                                                 "1/kinstr"),
        "sync.calls": n("sync"),
        "sync.self_s": self_s("sync"),
        "host.scheduler.quanta": (calls.get("host.scheduler.quantum", 0),
                                  "count"),
        "host.scheduler.self_s": self_s("host.scheduler"),
        "host.cost.calls_per_kinstr": per_kinstr(n("host.cost")[0],
                                                 "1/kinstr"),
        "host.cost.self_s": self_s("host.cost"),
        "distrib.kernel_calls_per_kinstr": per_kinstr(
            counts.get("distrib.kernel_calls", 0), "1/kinstr"),
        "distrib.kernel_casts_per_kinstr": per_kinstr(
            counts.get("distrib.kernel_casts", 0), "1/kinstr"),
        "distrib.wire_bytes_per_kinstr": per_kinstr(
            counts.get("distrib.wire_bytes", 0), "B/kinstr"),
        "distrib.recv_wait_s": self_s("distrib.recv"),
        "distrib.service_self_s": self_s("distrib.service"),
        "distrib.worker_rpc_s": self_s("distrib.worker_rpc"),
        "sample.primes": (calls.get("sample.prime", 0), "count"),
        "sample.forks": n("sample.fork"),
        "sample.prime_s": self_s("sample.prime"),
        "sample.fork_s": self_s("sample.fork"),
        "sample.ff_cycle_share": (fact.get("ff_cycle_share", 0.0), "ratio"),
        "ckpt.snapshot_bytes": (fact.get("snapshot_bytes", 0), "B"),
    }


#: The exact counts of a traced run; two traced runs must agree on them.
EXACT = ("frontend.quanta", "core.calls", "memory.controller.calls",
         "memory.coherence.calls", "memory.dram.calls", "network.calls",
         "sync.calls", "host.scheduler.quanta", "host.cost.calls_per_kinstr",
         "distrib.kernel_calls_per_kinstr", "distrib.kernel_casts_per_kinstr",
         "distrib.wire_bytes_per_kinstr", "sample.primes", "sample.forks")


def _clear_traces(name: str) -> None:
    """Delete earlier span files of ``name``: only the last run's stay."""
    traces = os.path.join(WORKDIR, "traces")
    if os.path.isdir(traces):
        for entry in os.listdir(traces):
            if entry.startswith(name + "-"):
                os.remove(os.path.join(traces, entry))


def measure_traced(name: str, seed: int, seconds: float,
                   inject_network_s: float = 0.0) -> Dict[str, Any]:
    """``--trace 1``: per-layer metrics from traced runs."""
    deadline = time.monotonic() + HARD_LIMIT_S
    run = Run()
    ref = {}
    if name == "mp_fft":
        ref = _reference(name, seed, run, deadline)
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    layers: List[Dict[str, float]] = []
    extra = {"inject_network_s": inject_network_s}

    def body() -> None:
        out = run.child(dict(extra, mode="timed", workload=name, seed=seed),
                        deadline)
        if out is not None:
            run.check(name, out["facts"],
                      plain[0]["facts"] if plain else out["facts"], ref)
            plain.append(out)
        _clear_traces(name)
        out = run.child(dict(extra, mode="traced", workload=name, seed=seed,
                             trace_id=f"{name}-{uuid.uuid4().hex[:12]}"),
                        deadline)
        if out is None:
            return
        first = (traced[0] if traced else plain[0] if plain else out)
        traced.append(out)
        layers.append(layer_metrics(out["trace"], out["facts"]))
        problems = []
        if name == "mp_fft" and out["trace"]["counts"].get(
                "distrib.workers") != 2:
            problems.append("mp_fft: the traced run did not start 2 workers")
        for key in EXACT:
            if layers[-1][key][0] != layers[0][key][0]:
                problems.append(f"{name}: traced {key} {layers[-1][key][0]} "
                                f"differs from the first traced run's "
                                f"{layers[0][key][0]}")
        run.check(name, out["facts"], first["facts"], ref, problems)

    _loop(seconds, deadline, body, MIN_TRACED_RUNS)
    if len(layers) < MIN_TRACED_RUNS:
        run.problems.append(f"{name}: {len(layers)} traced run(s) finished; "
                            f"the exact counts need {MIN_TRACED_RUNS}")
    metrics: Dict[str, Any] = {}
    if layers and plain:
        for key, (_, unit) in layers[0].items():
            metrics[key] = (statistics.median(m[key][0] for m in layers),
                            unit)
        plain_s = statistics.median(p["run_s"] for p in plain)
        traced_s = statistics.median(t["run_s"] for t in traced)
        metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
        metrics["distrib.mp_over_inproc"] = (
            plain_s / ref["run_s"] if "run_s" in ref else 0.0, "ratio")
    metrics["error_rate"] = (run.failed / max(1, run.attempted), "ratio")
    return {"run": run, "metrics": metrics,
            "samples": {"plain": plain, "traced": traced},
            "reference": ref}


def compare(base: Dict[str, tuple], new: Dict[str, tuple],
            declared: Dict[str, Dict[str, Any]]) -> List[str]:
    """End-to-end metrics of ``new`` worse than ``base`` by more than
    their BENCHMARK.json bound."""
    worse = []
    for name, spec in declared.items():
        if name not in base or name not in new:
            continue
        old, value = base[name][0], new[name][0]
        limit = spec["bound"] * old
        if (value > old + limit if spec["better"] == "lower"
                else value < old - limit):
            worse.append(name)
    return worse


def _declared(trace: bool) -> Dict[str, str]:
    """Metric name -> unit of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _report(name: str, trace: bool, result: Dict[str, Any],
            meta: Dict[str, Any]) -> None:
    run = result["run"]
    print(f"perfbench {name} seed={meta['seed']} trace={int(trace)} "
          f"attempted={run.attempted} failed={run.failed}")
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:34s} {value:>16.6g} {unit}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))
    os.makedirs(WORKDIR, exist_ok=True)
    meta = metadata(args.seed, args.seconds)
    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(args.workload, args.seed, args.seconds)
    meta["loadavg_after"] = list(os.getloadavg())
    run, metrics = result["run"], result["metrics"]
    missing = sorted(set(declared) - set(metrics))
    if missing:
        run.problems.append(f"no value for {', '.join(missing)}")
    _report(args.workload, bool(args.trace), result, meta)
    results_dir = os.path.join(WORKDIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-"
                                     f"trace{args.trace}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "meta": meta,
                   "metrics": metrics, "problems": run.problems,
                   "attempted": run.attempted, "failed": run.failed,
                   "samples": result["samples"],
                   "reference": result["reference"]}, handle, indent=1)
    correct = run.failed == 0 and not run.problems
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": metrics[key][0], "unit": unit}
                    for key, unit in declared.items() if key in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
