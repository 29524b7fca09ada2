"""Pinned results: small runs whose full outcome must not move.

Each pin is the sha256 of one run's ``simulated_cycles``,
``thread_cycles``, ``counters`` and the exact ``repr`` of
``wall_clock_seconds`` and ``slowdown``.  The last two carry the
modelled host time (every jittered host-cost charge), which the
perfbench digest leaves out, so a refactor of the cost or memory
hot paths that shifts a single jitter draw, a single counter or a
single cycle fails here.  The pins hold on CPython 3.9, 3.11 and 3.12.

Update a pin only in a change that says it changes results.
"""

import hashlib
import json

import pytest

from repro.common.config import SimulationConfig
from repro.distrib.wire import WorkloadRef
from repro.sim.runner import create_simulator


def _ocean_in_order():
    return SimulationConfig(num_tiles=8), WorkloadRef("ocean_cont", 8, 1.0)


def _fft_ooo():
    config = SimulationConfig(num_tiles=4)
    config.core.model = "out_of_order"
    return config, WorkloadRef("fft", 4, 1.0)


def _blackscholes_limited():
    config = SimulationConfig(num_tiles=16)
    config.memory.directory_type = "limited"
    return config, WorkloadRef("blackscholes", 16, 1.0, {"options": 512})


def _fft_mp():
    config = SimulationConfig(num_tiles=4)
    config.distrib.backend = "mp"
    config.host.num_processes = 2
    return config, WorkloadRef("fft", 4, 0.5)


def _lu_sampled():
    config = SimulationConfig(num_tiles=4)
    config.sample.ff_until = 40_000
    return config, WorkloadRef("lu_cont", 4, 1.0)


PINS = {
    "ocean_cont-8-in_order": (_ocean_in_order,
        "e0e0935ad025fa9f2af0b52c14f5a4996297fcfcd306e293504c2baef4d2c335"),
    "fft-4-out_of_order": (_fft_ooo,
        "aaca1038d82943ba4bcbf7ed2307b3af4dc1bf9ffc5510f6edf7f6c1068b58fb"),
    "blackscholes-16-limited": (_blackscholes_limited,
        "21b6dfc9229874544612c6dbef17f17116ea8c36266087c503097210a3f37b47"),
    "fft-4-mp2": (_fft_mp,
        "3df88dc972fa7d64e267534c91745471c6b022015ef4fbd549ff0420642013a8"),
    "lu_cont-4-ff_until": (_lu_sampled,
        "e9dc1b236774211faabccdf5c90c19bc0096278742072d768d4cc2be8ee9a705"),
}


def result_digest(result) -> str:
    payload = {
        "simulated_cycles": result.simulated_cycles,
        "thread_cycles": result.thread_cycles,
        "counters": result.counters,
        "wall_clock_seconds": repr(result.wall_clock_seconds),
        "slowdown": repr(result.slowdown),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_pinned(name: str) -> str:
    build, _ = PINS[name]
    config, ref = build()
    config.validate()
    simulator = create_simulator(config)
    program = ref if config.distrib.backend == "mp" else ref.resolve()
    return result_digest(simulator.run(program))


@pytest.mark.parametrize("name", sorted(PINS))
def test_result_pinned(name):
    assert run_pinned(name) == PINS[name][1]
