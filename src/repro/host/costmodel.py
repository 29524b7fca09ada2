"""Per-event host-time cost model.

This is the substitute for the paper's physical testbed (§4.1: dual
quad-core Xeon X5460 machines on Gigabit ethernet).  Every simulation
event is charged a host cost; the scheduler accumulates these per host
core and reports wall-clock time as the parallel makespan.  Costs carry
multiplicative seeded jitter modelling OS noise — the source of
run-to-run variation that the paper's Table 3 quantifies as CoV.

The constants live in :class:`repro.common.config.HostConfig`; this
module only combines them.

Jitter: the model is the only reader of its RNG (the ``host_jitter``
stream).  :meth:`_factor`, the single draw point, draws normals a
block at a time, and each jittered cost takes the next one in order.
The n-th jittered event is therefore scaled by ``1 + g``, where ``g``
is what the n-th ``rng.gauss(0.0, jitter)`` call would return — the
same values as one draw per event.  The factor is clamped at zero, so
host time is never negative.  The block and its position pickle with
the model, so a snapshot resumes mid-block.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional

from repro.common.config import HostConfig
from repro.host.cluster import Locality

#: Normals drawn per refill of the jitter buffer.
JITTER_BLOCK = 512


class HostCostModel:
    """Computes host seconds consumed by each class of simulation event.

    The ``charge_*`` methods are the interpreters' and memory
    controllers' one call per event: they draw, scale and hand the
    seconds to the sink given to :meth:`bind` (the scheduler's
    ``charge``).
    """

    def __init__(self, config: HostConfig,
                 rng: Optional[random.Random] = None) -> None:
        config.validate()
        self.config = config
        self._rng = rng
        #: Jitter factors not yet served (an iterator over one block).
        self._factors = iter(())
        self._charge: Optional[Callable[[float], None]] = None
        self._instr_cost = (config.native_instruction_cost
                            * config.instrumentation_overhead)
        self._message_cost = {
            Locality.SAME_PROCESS: config.intra_process_message_cost,
            Locality.SAME_MACHINE: config.inter_process_message_cost,
            Locality.CROSS_MACHINE: config.inter_machine_message_cost,
        }
        self._message_latency = {
            Locality.SAME_PROCESS: config.intra_process_message_latency,
            Locality.SAME_MACHINE: config.inter_process_message_latency,
            Locality.CROSS_MACHINE: config.inter_machine_message_latency,
        }

    def bind(self, charge: Callable[[float], None]) -> None:
        """Send the host seconds of the ``charge_*`` methods to ``charge``."""
        self._charge = charge

    # -- jitter ---------------------------------------------------------

    def _factor(self) -> float:
        """The next jitter factor: the single draw point."""
        factor = next(self._factors, None)
        if factor is None:
            self._factors = iter(self._draw_block())
            factor = next(self._factors)
        return factor

    def _draw_block(self) -> List[float]:
        """:data:`JITTER_BLOCK` factors ``1 + rng.gauss(0.0, jitter)``,
        each clamped at zero.

        The normals are the Box-Muller pairs of CPython's
        ``random.gauss``, computed here with the same operations in the
        same order: one ``gauss`` call per normal costs about three
        times as much host time.  The model is the RNG's only reader and
        never calls ``gauss`` itself, so no half pair is ever pending.
        ``tests/host/test_costmodel.py`` checks the values against
        ``gauss`` on every supported Python.  Without an RNG or with
        zero jitter the factors are exactly 1.0 and no draw is made.
        """
        sigma = self.config.jitter
        rng = self._rng
        if rng is None or sigma == 0.0:
            return [1.0] * JITTER_BLOCK
        block: List[float] = []
        append = block.append
        uniform = rng.random
        cos, sin, log, sqrt = math.cos, math.sin, math.log, math.sqrt
        for _ in range(JITTER_BLOCK // 2):
            x2pi = uniform() * math.tau
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            first = 1.0 + cos(x2pi) * g2rad * sigma
            second = 1.0 + sin(x2pi) * g2rad * sigma
            append(first if first > 0.0 else 0.0)
            append(second if second > 0.0 else 0.0)
        return block

    # -- charging (one call per event) ------------------------------------

    def charge_instructions(self, count: int) -> None:
        """Charge ``count`` instrumented instructions."""
        self._charge(count * self._instr_cost * self._factor())

    def charge_trap(self) -> None:
        """Charge one trap into a back-end model."""
        self._charge(self.config.model_trap_cost * self._factor())

    def charge_memory_access(self) -> None:
        """Charge one memory-hierarchy model access."""
        self._charge(self.config.memory_model_cost * self._factor())

    # -- event costs ------------------------------------------------------

    def native_instructions(self, count: int) -> float:
        """Host cost of ``count`` instructions run natively (no DBT)."""
        return count * self.config.native_instruction_cost

    def message(self, locality: Locality, size_bytes: int) -> float:
        """Host *CPU* cost of one one-way message (consumes the core)."""
        del size_bytes  # copies are cheap; the wire time is latency
        return self._message_cost[locality] * self._factor()

    def message_latency(self, locality: Locality,
                        size_bytes: int) -> float:
        """Wire/stack latency: the sender-side thread is blocked, but
        its host core is free to run other tile threads meanwhile."""
        latency = self._message_latency[locality]
        if locality is Locality.CROSS_MACHINE:
            latency += size_bytes * self.config.inter_machine_byte_cost
        return latency * self._factor()

    def process_startup(self, num_processes: int) -> float:
        """Sequential start-up cost for all host processes.

        Initialization "must be done sequentially for each process"
        (paper §4.2), which bounds scaling at high machine counts.
        """
        return num_processes * self.config.process_startup_cost

    def sleep_quantum(self) -> float:
        """Granularity of a LaxP2P host sleep (timer resolution)."""
        return 100e-6
