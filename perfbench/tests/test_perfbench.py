"""Self-tests of the benchmark: tracing arithmetic, gates, and that a
slowdown injected into one layer shows end to end and in that layer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q -p no:cacheprovider

The slowdown-injection test runs ``bs64_dir4`` several times and takes
about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)[section]}


def test_self_time_is_span_time_minus_child_spans(tmp_path):
    tracer = spans.Tracer("t-0", str(tmp_path))

    def leaf():
        time.sleep(0.002)

    leaf_traced = tracer.wrap("leaf", leaf)

    def middle():
        time.sleep(0.001)
        leaf_traced()
        leaf_traced()

    top = tracer.wrap("top", tracer.wrap("middle", middle))
    top()
    top()
    online = tracer.summary()
    path = tracer.flush()
    stored = spans.read_spans(path)
    assert spans.read_header(path)["trace_id"] == "t-0"
    assert online["calls"] == {"leaf": 4, "middle": 2, "top": 2}
    assert spans.self_times(stored) == online["self_ns"]
    ids = {sid: name for sid, name, _, _, _ in stored}
    for _, name, parent, start, end in stored:
        assert end >= start
        expected = {"leaf": "middle", "middle": "top", "top": None}[name]
        assert ids.get(parent) == expected
    # ``top`` only wraps ``middle``: its self time is the wrapper's own.
    assert online["self_ns"]["top"] < online["self_ns"]["middle"]
    assert online["self_ns"]["leaf"] >= 4 * 2_000_000


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_span_ids_are_unique_across_the_files_of_one_trace(tmp_path):
    tracer = spans.Tracer("t-fork", str(tmp_path))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        pid = os.fork()
        if pid == 0:  # the forked process records and flushes its share
            tracer.adopt_process()
            leaf()
            leaf()
            tracer.flush()
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        leaf()

    tracer.wrap("outer", body)()
    tracer.flush()
    files = [os.path.join(tmp_path, f) for f in os.listdir(tmp_path)
             if f.startswith("t-fork-")]
    assert len(files) == 2
    stored = [span for path in files for span in spans.read_spans(path)]
    ids = [sid for sid, _, _, _, _ in stored]
    assert len(ids) == len(set(ids)) == 5
    outer = [sid for sid, name, _, _, _ in stored if name == "outer"]
    # Every leaf, the forked process's too, hangs under the one outer span.
    assert {parent for _, name, parent, _, _ in stored
            if name == "leaf"} == set(outer)


def test_span_records_exceptions_and_restores_the_stack(tmp_path):
    tracer = spans.Tracer("t-1", str(tmp_path))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["calls"] == {"boom": 1}
    assert tracer._stack == [[-1, tracer._stack[0][1]]]


def test_correctness_gate_counts_digest_mismatches():
    gate = run.Run()
    fact = {"digest": "a", "l1d_hits": 99, "l1d_lookups": 100}
    gate.check("ocean_hits", fact, fact, {})
    assert gate.failed == 0
    gate.check("ocean_hits", dict(fact, digest="b"), fact, {})
    gate.check("mp_fft", dict(fact, backend="mp", processes=2), fact,
               {"digest": "c"})
    gate.check("ocean_hits", dict(fact, l1d_hits=50), fact, {})
    assert gate.failed == 3
    assert len(gate.problems) == 3
    # Problems found elsewhere in the same run add to one failure.
    gate.check("ocean_hits", dict(fact, digest="b"), fact, {},
               ["traced x differs", "traced y differs"])
    assert gate.failed == 4
    assert len(gate.problems) == 6


def _fake_child(calls_per_run):
    """A stand-in for ``run.run_child``: the traced runs' ``core.calls``
    come from ``calls_per_run`` in turn."""
    fact = {"digest": "a", "l1d_hits": 99, "l1d_lookups": 100,
            "l1i_hits": 1, "l1i_lookups": 1, "instructions": 1000,
            "packets": 1}
    counts = iter(calls_per_run)

    def fake(spec, deadline):
        if spec["mode"] == "timed":
            return {"run_s": 1.0, "setup_s": [0.1], "peak_rss_mb": 1.0,
                    "facts": fact}
        trace = {"calls": {"core": next(counts)}, "self_ns": {},
                 "counts": {}}
        return {"run_s": 1.5, "facts": fact, "trace": trace}

    return fake


def test_traced_counts_are_compared_across_two_runs(monkeypatch):
    monkeypatch.setattr(run, "run_child", _fake_child([7, 7]))
    result = run.measure_traced("ocean_hits", 42, seconds=0)
    assert len(result["samples"]["traced"]) == run.MIN_TRACED_RUNS == 2
    assert result["run"].failed == 0 and not result["run"].problems

    # A traced run differing in its counts is one failed run.
    monkeypatch.setattr(run, "run_child", _fake_child([7, 8]))
    result = run.measure_traced("ocean_hits", 42, seconds=0)
    assert result["run"].failed == 1
    assert result["run"].attempted == 4


def test_a_single_traced_run_is_not_enough(monkeypatch):
    monkeypatch.setattr(run, "run_child", _fake_child([7, 7]))
    monkeypatch.setattr(run, "HARD_LIMIT_S", 0.0)
    result = run.measure_traced("ocean_hits", 42, seconds=0)
    assert len(result["samples"]["traced"]) == 1
    assert result["run"].problems


def test_declared_metrics_match_the_code():
    per_layer = _declared("per_layer")
    trace = {"calls": {}, "self_ns": {}, "counts": {}}
    fact = {"instructions": 1000, "l1d_hits": 1, "l1d_lookups": 1,
            "l1i_hits": 1, "l1i_lookups": 1, "packets": 1}
    produced = run.layer_metrics(trace, fact)
    produced.update({name: (0.0, "ratio") for name in run.TRACE_RATIOS})
    for name, metric in per_layer.items():
        assert produced[name][1] == metric["unit"], name
    for name, metric in _declared("end_to_end").items():
        assert run.E2E_UNITS[name] == metric["unit"], name
    assert tuple(_declared("workloads")) == workloads.NAMES


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocean_hits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_only_metrics_worse_than_their_bound():
    bounds = _declared("end_to_end")
    base = {"run_s": (1.0, "s"), "cycles_per_s": (100.0, "cycles/s")}
    assert run.compare(base, base, bounds) == []
    slower = {"run_s": (1.3, "s"), "cycles_per_s": (70.0, "cycles/s")}
    assert set(run.compare(base, slower, bounds)) == {"run_s",
                                                      "cycles_per_s"}
    faster = {"run_s": (0.7, "s"), "cycles_per_s": (140.0, "cycles/s")}
    assert run.compare(base, faster, bounds) == []


@pytest.mark.slow
def test_injected_network_slowdown_is_caught_and_attributed():
    """A ~1.5x slowdown in ``NetworkFabric.transfer`` on ``bs64_dir4``:
    twice the ``run_s`` bound, so host noise cannot hide it.  (The
    coherence traffic goes through ``transfer``; ``send`` carries user
    messages, which this workload does not make.)"""
    name, seed = "bs64_dir4", 42
    base = run.measure(name, seed, seconds=0)
    base_traced = run.measure_traced(name, seed, seconds=0)
    assert base["run"].failed == 0 and base_traced["run"].failed == 0
    transfers = base_traced["samples"]["traced"][0]["trace"]["calls"][
        "network.transfer"]
    delay = 0.5 * base["metrics"]["run_s"][0] / transfers

    slow = run.measure(name, seed, seconds=0, inject_network_s=delay)
    slow_traced = run.measure_traced(name, seed, seconds=0,
                                     inject_network_s=delay)
    assert slow["run"].failed == 0 and slow_traced["run"].failed == 0

    worse = run.compare(base["metrics"], slow["metrics"],
                        _declared("end_to_end"))
    assert "run_s" in worse
    growth = {key: slow_traced["metrics"][key][0] - value
              for key, (value, unit) in base_traced["metrics"].items()
              if key.endswith(".self_s")}
    assert max(growth, key=growth.get) == "network.self_s", growth
