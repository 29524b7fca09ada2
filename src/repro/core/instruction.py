"""Dynamic records consumed by the core performance model.

The majority of instructions are produced by the front-end as the
application thread executes; other parts of the system produce
*pseudo-instructions* to update the local clock on unusual events — a
"message receive pseudo-instruction" when the messaging API delivers,
a "spawn pseudo-instruction" when a thread lands on a core (paper §3.1).

Dynamic information not present in the instruction trace — memory
latencies, branch paths — travels alongside the instruction, produced
by the back-end and consumed asynchronously.  Plain and memory
instructions hand the core model their fields directly
(``execute(klass, count)``, ``execute_memory(klass, address,
latency)``); branches and pseudo-instructions travel as the records
below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass
class BranchInstruction:
    """A conditional branch plus its dynamic outcome."""

    pc: int
    taken: bool


class PseudoKind(enum.Enum):
    """Kinds of pseudo-instruction injected by the rest of the system."""

    #: Delivered message: forward clock to its arrival time + recv cost.
    MESSAGE_RECEIVE = "message_receive"
    #: Thread spawned on this core: initialise/forward the clock.
    SPAWN = "spawn"
    #: Synchronization event (lock/barrier/join): forward the clock.
    SYNC = "sync"
    #: Explicit cost, e.g. syscall handling overhead.
    COST = "cost"


@dataclass
class PseudoInstruction:
    """Clock-updating event that is not an application instruction."""

    kind: PseudoKind
    #: Simulated time the event occurred (clock forwards to this; no
    #: update if it is in the local past — paper §3.6.1).
    time: int = 0
    #: Additional cycles charged after forwarding.
    cost: int = 0
