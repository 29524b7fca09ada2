"""Core performance model (paper §3.1).

A purely *modeled* component managing the simulated clock local to each
tile.  It follows a producer-consumer design: the front-end (our DBT
substitute) produces instructions and dynamic information (memory
latencies, branch outcomes); the model consumes them and advances the
tile's local clock.  The model is isolated from functional execution, so
alternative core models (e.g. out-of-order) can be swapped in without
touching the functional simulator.
"""

from repro.core.branch import BranchPredictor
from repro.core.factory import CoreModel, create_core_model
from repro.core.clock import TileClock
from repro.core.instruction import BranchInstruction, PseudoInstruction
from repro.core.isa import InstructionClass
from repro.core.lsu import LoadQueue, StoreBuffer
from repro.core.ooo_model import OutOfOrderCoreModel
from repro.core.perf_model import CorePerfModel

__all__ = [
    "BranchInstruction",
    "BranchPredictor",
    "CoreModel",
    "CorePerfModel",
    "OutOfOrderCoreModel",
    "create_core_model",
    "InstructionClass",
    "LoadQueue",
    "PseudoInstruction",
    "StoreBuffer",
    "TileClock",
]
