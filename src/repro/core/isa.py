"""Instruction classification for the core performance model.

The front-end does not carry real opcodes; it classifies instructions
into cost classes.  Classes not present in the configured cost table
default to one cycle (paper: "instruction costs are all modeled and
configurable").
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping


class InstructionClass(enum.Enum):
    """Cost class of a dynamic instruction."""

    GENERIC = "generic"
    IALU = "ialu"
    IMUL = "imul"
    IDIV = "idiv"
    FPU_ADD = "fpu_add"
    FPU_MUL = "fpu_mul"
    FPU_DIV = "fpu_div"
    BRANCH = "branch"
    JMP = "jmp"
    LOAD = "load"
    STORE = "store"


#: Cost charged when a class is missing from the config table.
DEFAULT_COST = 1


def class_costs(table: Mapping[str, int]) -> Dict[InstructionClass, int]:
    """The configured cycle cost of every instruction class.

    ``table`` is keyed by class value; a class missing from it costs
    :data:`DEFAULT_COST`.
    """
    return {klass: table.get(klass.value, DEFAULT_COST)
            for klass in InstructionClass}
