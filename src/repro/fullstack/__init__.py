"""Full-stack integration: QISA, control electronics, end-to-end pipeline."""

from .isa import Bundle, Instruction, IsaProgram, compile_to_isa
from .control import ControlConstraintViolation, ControlModel
from .stack import ExecutionReport, FullStack

__all__ = [
    "Bundle",
    "Instruction",
    "IsaProgram",
    "compile_to_isa",
    "ControlConstraintViolation",
    "ControlModel",
    "ExecutionReport",
    "FullStack",
]
