"""Outside-in span tracing of the simulator's layers.

The traced run wraps calls into each layer's public functions from
here, in the benchmark's own files: after a simulator is built, its
instance attributes are rebound to timed wrappers (the trick
``repro.profile.instrument`` uses, without ``config.profile``).
Processes the run forks — the mp backend's workers and the sweep
pool's children — are reached through two class-level hooks installed
only in the traced process, so that they inherit them.

Each call becomes one span: (id, name, parent, start, end), all spans
of one run sharing one trace id.  Spans stay in memory in compact
arrays and are written out when the run (or a forked process's share
of it) ends.  A span's self time is its duration minus the durations
of its direct children; the tracer keeps per-name call counts and
self times as the spans close.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List

#: Layer -> the span names it sums.  ``host.scheduler`` is the
#: scheduler loop minus everything it calls.
LAYERS = {
    "frontend": ("frontend",),
    "core": ("core",),
    "memory.controller": ("memory.controller",),
    "memory.coherence": ("memory.coherence",),
    "memory.dram": ("memory.dram",),
    "network": ("network.send", "network.transfer"),
    "sync": ("sync",),
    "host.scheduler": ("host.scheduler", "host.scheduler.quantum"),
    "host.cost": ("host.cost",),
    "distrib.service": ("distrib.service",),
    "distrib.recv": ("distrib.recv",),
    "distrib.worker_rpc": ("distrib.worker_rpc",),
    "sample.prime": ("sample.ensure", "sample.prime"),
    "sample.fork": ("sample.fork",),
}

_CORE_METHODS = ("execute", "execute_branch", "execute_memory",
                 "execute_pseudo", "drain")
_SYNC_METHODS = ("on_thread_added", "on_thread_done", "on_thread_blocked",
                 "on_thread_woken", "on_quantum_end", "cycle_limit",
                 "release_if_stalled")
_COST_METHODS = ("instructions", "model_trap", "memory_access", "message",
                 "message_latency")


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, trace_id: str, out_dir: str) -> None:
        self.trace_id = trace_id
        self.out_dir = out_dir
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._next_id = 0
        #: Open spans, innermost last: [span id, child ns].  The root
        #: entry (id -1) collects the time of top-level spans.
        self._stack: List[list] = [[-1, 0]]
        self._clear()
        self._pid = os.getpid()
        self._flushes = 0

    def _clear(self) -> None:
        self.ids = array("q")
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.calls: List[int] = [0] * len(self.names)
        self.self_ns: List[int] = [0] * len(self.names)
        #: Plain counters recorded at layer boundaries (frames, bytes).
        self.counts: Dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                tracer.self_ns[nid] += duration - frame[1]
                tracer.calls[nid] += 1
                tracer.ids.append(sid)
                tracer.name_ids.append(nid)
                tracer.parents.append(parent[0])
                tracer.starts.append(start)
                tracer.ends.append(end)

        return traced

    def wrap_attrs(self, obj: Any, name: str, attrs) -> None:
        for attr in attrs:
            if hasattr(obj, attr):
                setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    # -- forked processes ---------------------------------------------------

    def adopt_process(self) -> None:
        """In a freshly forked process, drop the parent's recorded spans.

        Open spans inherited from the parent stay on the stack, so the
        child's first spans name the parent's open span as their parent.
        The child numbers its spans from ``pid << 32`` on, so that span
        ids stay unique across the files of one trace.
        """
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._next_id = self._pid << 32
            self._flushes = 0
            self._clear()

    # -- output -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        live = [i for i, calls in enumerate(self.calls) if calls]
        return {"calls": {self.names[i]: self.calls[i] for i in live},
                "self_ns": {self.names[i]: self.self_ns[i] for i in live},
                "counts": dict(self.counts)}

    def flush(self) -> str:
        """Write the spans recorded so far, then forget them.

        One file per flush: a JSON header line (trace id, pid, span
        names, per-name calls/self time, counters) followed by the raw
        span arrays.  Returns the path.
        """
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"{self.trace_id}-{os.getpid()}-"
                                          f"{self._flushes}.spans")
        self._flushes += 1
        header = {"trace_id": self.trace_id, "pid": os.getpid(),
                  "names": self.names, "spans": len(self.ids),
                  **self.summary()}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.ids, self.name_ids, self.parents,
                           self.starts, self.ends):
                column.tofile(handle)
        self._clear()
        return path


def read_header(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


def read_spans(path: str) -> List[tuple]:
    """All spans of one file as ``(id, name, parent, start, end)``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for code in ("q", "H", "q", "q", "q"):
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    names = header["names"]
    return [(sid, names[nid], parent, start, end)
            for sid, nid, parent, start, end in zip(*columns)]


def self_times(spans: List[tuple]) -> Dict[str, int]:
    """Per-name self time recomputed from stored spans."""
    child_ns: Dict[int, int] = {}
    for _, _, parent, start, end in spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
    out: Dict[str, int] = {}
    for sid, name, _, start, end in spans:
        out[name] = out.get(name, 0) + end - start - child_ns.get(sid, 0)
    return out


def merge(headers: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the per-name calls, self times and counters of many flushes."""
    total: Dict[str, Dict[str, int]] = {"calls": {}, "self_ns": {},
                                        "counts": {}}
    for header in headers:
        for key in total:
            for name, value in header[key].items():
                total[key][name] = total[key].get(name, 0) + value
    return total


# -- instrumenting the simulator ----------------------------------------------


def instrument_simulator(tracer: Tracer, sim: Any) -> None:
    """Wrap a built simulator's layer entry points (instance attributes)."""
    wrap = tracer.wrap
    for controller in sim.controllers:
        tracer.wrap_attrs(controller, "memory.controller",
                          ("load", "store", "fetch"))
    tracer.wrap_attrs(sim.engine, "memory.coherence",
                      ("read_access", "write_access"))
    for dram in sim.engine.drams:
        tracer.wrap_attrs(dram, "memory.dram", ("read", "post_write"))
    sim.fabric.send = wrap("network.send", sim.fabric.send)
    sim.fabric.transfer = wrap("network.transfer", sim.fabric.transfer)
    tracer.wrap_attrs(sim.sync_model, "sync", _SYNC_METHODS)
    tracer.wrap_attrs(sim.cost_model, "host.cost", _COST_METHODS)
    sim.scheduler.run = wrap("host.scheduler", sim.scheduler.run)
    sim.scheduler._run_quantum = wrap("host.scheduler.quantum",
                                      sim.scheduler._run_quantum)
    for task in sim.interpreters.values():
        instrument_task(tracer, task)
    if hasattr(sim, "service_quantum"):
        sim.service_quantum = wrap("distrib.service", sim.service_quantum)

    original_spawn = sim.spawn_thread

    def spawn_thread(program, args, parent_tile, parent_clock):
        thread_id = original_spawn(program, args, parent_tile, parent_clock)
        cluster = getattr(sim, "_cluster", None)
        if cluster is not None and not getattr(cluster, "_traced", False):
            instrument_cluster(tracer, cluster)
        task = sim.interpreters.get(thread_id)
        if task is not None:
            instrument_task(tracer, task)
        return thread_id

    sim.spawn_thread = spawn_thread


def instrument_task(tracer: Tracer, task: Any) -> None:
    """Time one in-process interpreter: its quantum body and core model."""
    from repro.frontend.interpreter import ThreadInterpreter
    if getattr(task, "_traced", False) or \
            not isinstance(task, ThreadInterpreter):
        return
    task._traced = True
    task.run = tracer.wrap("frontend", task.run)
    tracer.wrap_attrs(task.core, "core", _CORE_METHODS)


def instrument_cluster(tracer: Tracer, cluster: Any) -> None:
    """Coordinator-side frames and wire bytes of the mp worker cluster."""
    from repro.distrib.wire import FrameKind
    cluster._traced = True
    tracer.count("distrib.workers", cluster.num_workers)
    send = tracer.wrap("distrib.send", cluster.send)
    recv = tracer.wrap("distrib.recv", cluster.recv)

    def counted_recv(worker):
        kind, payload = recv(worker)
        if kind is FrameKind.KERNEL_CALL:
            tracer.count("distrib.kernel_calls")
        elif kind is FrameKind.KERNEL_CAST:
            tracer.count("distrib.kernel_casts")
        return kind, payload

    cluster.send = send
    cluster.recv = counted_recv
    for channel in cluster._channels:
        _count_channel_bytes(tracer, channel)


def _count_channel_bytes(tracer: Tracer, channel: Any) -> None:
    send_bytes, recv_bytes = channel.send_bytes, channel.recv_bytes

    def counted_send(blob):
        tracer.count("distrib.wire_bytes", len(blob))
        return send_bytes(blob)

    def counted_recv():
        blob = recv_bytes()
        tracer.count("distrib.wire_bytes", len(blob))
        return blob

    channel.send_bytes = counted_send
    channel.recv_bytes = counted_recv


def instrument_library(tracer: Tracer, library: Any) -> None:
    """Time priming on the sweep's own snapshot library instance."""
    library.ensure = tracer.wrap("sample.ensure", library.ensure)
    library.prime = tracer.wrap("sample.prime", library.prime)


# -- hooks inherited by forked processes ----------------------------------------


class ForkHooks:
    """Class-level hooks that forked processes inherit.

    Installed only in the traced process and removed by :meth:`remove`.
    The sweep pool's children build their own snapshot library and
    simulators, so ``SnapshotLibrary.fork`` is wrapped at class level:
    it times the fork, instruments the forked simulator and flushes the
    child's spans when the simulator finishes.  mp workers run their
    interpreters inside ``Worker.loop``, which is wrapped to time the
    interpreters and the worker's kernel RPCs and to flush on exit.
    """

    def __init__(self, tracer: Tracer) -> None:
        from repro.distrib.worker import Worker
        from repro.sample.library import SnapshotLibrary
        self._saved = [(SnapshotLibrary, "fork", SnapshotLibrary.fork),
                       (Worker, "loop", Worker.loop)]
        fork, loop = SnapshotLibrary.fork, Worker.loop

        def traced_fork(library, key, config):
            tracer.adopt_process()
            simulator = tracer.wrap("sample.fork", fork)(library, key,
                                                         config)
            instrument_simulator(tracer, simulator)
            resume = simulator.resume_run

            def resume_run():
                try:
                    return resume()
                finally:
                    tracer.flush()

            simulator.resume_run = resume_run
            return simulator

        def traced_loop(worker):
            tracer.adopt_process()
            worker.rpc = tracer.wrap("distrib.worker_rpc", worker.rpc)
            spawn = worker._handle_spawn

            def handle_spawn(payload):
                spawn(payload)
                instrument_task(tracer, worker.interpreters[payload[0]])

            worker._handle_spawn = handle_spawn
            try:
                return loop(worker)
            finally:
                tracer.flush()

        SnapshotLibrary.fork = traced_fork
        Worker.loop = traced_loop

    def remove(self) -> None:
        for owner, attr, value in self._saved:
            setattr(owner, attr, value)


def collect(tracer: Tracer) -> Dict[str, Any]:
    """Flush this process and merge every flush of the tracer's trace id."""
    tracer.flush()
    paths = sorted(os.path.join(tracer.out_dir, f)
                   for f in os.listdir(tracer.out_dir)
                   if f.startswith(tracer.trace_id + "-"))
    headers = [read_header(p) for p in paths]
    merged = merge(headers)
    merged["pids"] = sorted({h["pid"] for h in headers})
    merged["spans"] = sum(h["spans"] for h in headers)
    merged["files"] = paths
    return merged
