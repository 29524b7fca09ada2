"""Host cost model."""

import pickle
import random

import pytest

from repro.common.config import HostConfig
from repro.host.cluster import Locality
from repro.host.costmodel import HostCostModel


def model(jitter=0.0, rng=None, **kwargs):
    return HostCostModel(HostConfig(jitter=jitter, **kwargs), rng=rng)


class Sink:
    """Picklable charge target recording each charged amount."""

    def __init__(self):
        self.seconds = []

    def charge(self, seconds):
        self.seconds.append(seconds)


def charged(m, charge, *args):
    """Host seconds one ``charge_*`` call of ``m`` hands to its sink."""
    sink = Sink()
    m.bind(sink.charge)
    charge(*args)
    return sink.seconds.pop()


def instructions(m, count):
    return charged(m, m.charge_instructions, count)


class TestInstructionCosts:
    def test_instrumentation_overhead_applied(self):
        m = model()
        native = m.native_instructions(1000)
        instrumented = instructions(m, 1000)
        assert instrumented == pytest.approx(
            native * HostConfig().instrumentation_overhead)

    def test_costs_scale_linearly(self):
        m = model()
        assert instructions(m, 200) == pytest.approx(
            2 * instructions(m, 100))

    def test_native_cost_matches_host_clock(self):
        m = model()
        assert m.native_instructions(int(3.16e9)) == pytest.approx(1.0)


class TestMessageCosts:
    def test_locality_ordering(self):
        """intra-process < inter-process < inter-machine (GbE)."""
        m = model()
        intra = m.message(Locality.SAME_PROCESS, 64)
        inter = m.message(Locality.SAME_MACHINE, 64)
        cross = m.message(Locality.CROSS_MACHINE, 64)
        assert intra < inter < cross

    def test_cross_machine_latency_pays_per_byte(self):
        m = model()
        small = m.message_latency(Locality.CROSS_MACHINE, 8)
        large = m.message_latency(Locality.CROSS_MACHINE, 8192)
        assert large > small

    def test_cpu_cost_size_independent(self):
        m = model()
        assert m.message(Locality.CROSS_MACHINE, 8) == \
            pytest.approx(m.message(Locality.CROSS_MACHINE, 8192))

    def test_latency_ordering(self):
        """Local queues have no wire latency; TCP does."""
        m = model()
        assert m.message_latency(Locality.SAME_PROCESS, 64) == 0.0
        assert m.message_latency(Locality.SAME_MACHINE, 64) < \
            m.message_latency(Locality.CROSS_MACHINE, 64)


class TestJitter:
    def test_zero_jitter_deterministic(self):
        m = model(jitter=0.0, rng=random.Random(1))
        assert instructions(m, 100) == instructions(m, 100)

    def test_jitter_varies_costs(self):
        m = model(jitter=0.05, rng=random.Random(1))
        samples = {instructions(m, 100) for _ in range(20)}
        assert len(samples) > 1

    def test_jitter_centred_on_nominal(self):
        m = model(jitter=0.02, rng=random.Random(7))
        nominal = instructions(model(jitter=0.0), 100)
        mean = sum(instructions(m, 100) for _ in range(500)) / 500
        assert mean == pytest.approx(nominal, rel=0.01)

    def test_no_rng_means_no_jitter(self):
        m = HostCostModel(HostConfig(jitter=0.5), rng=None)
        assert instructions(m, 100) == instructions(m, 100)


class TestStartup:
    def test_startup_sequential_in_processes(self):
        m = model()
        assert m.process_startup(10) == pytest.approx(
            10 * HostConfig().process_startup_cost)


def mixed_events(m, n=1500):
    """A mixed interleaving of every jittered cost, as
    ``(call returning host seconds, nominal cost)`` pairs."""
    config = m.config
    instr = config.native_instruction_cost * config.instrumentation_overhead
    kinds = [
        (lambda: instructions(m, 3), 3 * instr),
        (lambda: charged(m, m.charge_memory_access),
         config.memory_model_cost),
        (lambda: m.message(Locality.SAME_MACHINE, 64),
         config.inter_process_message_cost),
        (lambda: charged(m, m.charge_trap), config.model_trap_cost),
        (lambda: m.message_latency(Locality.CROSS_MACHINE, 64),
         config.inter_machine_message_latency
         + 64 * config.inter_machine_byte_cost),
    ]
    return [kinds[i % len(kinds)] for i in range(n)]


def expected(nominal, ref, sigma):
    """The cost one per-event ``gauss`` call would give."""
    return nominal * max(0.0, 1.0 + ref.gauss(0.0, sigma))


class TestDrawPoint:
    """Every jittered cost consumes exactly one ``gauss`` draw, in order."""

    SEED = 2024

    @pytest.mark.parametrize("sigma", [0.02, 0.3, 0.9])
    def test_matches_per_call_gauss(self, sigma):
        m = model(jitter=sigma, rng=random.Random(self.SEED))
        ref = random.Random(self.SEED)
        for event, nominal in mixed_events(m):
            assert event() == expected(nominal, ref, sigma)

    def test_pickle_round_trip_mid_block(self):
        sigma = 0.02
        m = model(jitter=sigma, rng=random.Random(self.SEED))
        ref = random.Random(self.SEED)
        events = mixed_events(m)
        split = 777  # past the first block, partway into the second
        for event, nominal in events[:split]:
            assert event() == expected(nominal, ref, sigma)
        restored = pickle.loads(pickle.dumps(m))
        ref_copy = pickle.loads(pickle.dumps(ref))
        twins = mixed_events(restored)
        for (event, nominal), (twin, _) in zip(events[split:],
                                               twins[split:]):
            assert event() == expected(nominal, ref, sigma)
            assert twin() == expected(nominal, ref_copy, sigma)

    def test_zero_jitter_draws_nothing(self):
        rng = random.Random(self.SEED)
        state = rng.getstate()
        m = model(jitter=0.0, rng=rng)
        for event, nominal in mixed_events(m):
            assert event() == nominal
        assert rng.getstate() == state

    def test_no_rng_draws_nothing(self):
        m = HostCostModel(HostConfig(jitter=0.5), rng=None)
        for event, nominal in mixed_events(m):
            assert event() == nominal

    def test_factor_clamped_at_zero(self):
        m = model(jitter=0.9, rng=random.Random(self.SEED))
        costs = [charged(m, m.charge_trap) for _ in range(2000)]
        assert min(costs) == 0.0


class TestLargeJitter:
    """Jitter near the top of its [0, 1) range must not crash a run."""

    @pytest.mark.parametrize("jitter", [0.3, 0.5])
    def test_fft_completes(self, jitter):
        from repro.common.config import SimulationConfig
        from repro.distrib.wire import WorkloadRef
        from repro.sim.runner import create_simulator
        config = SimulationConfig(num_tiles=4)
        config.host.jitter = jitter
        result = create_simulator(config).run(
            WorkloadRef("fft", 4, 0.5).resolve())
        assert result.simulated_cycles > 0
        assert result.wall_clock_seconds > 0.0
