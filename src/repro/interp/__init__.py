"""Execution engine for SafeTSA modules.

This is the consumer-side executor, standing in for the paper's
"dynamic class loader ... on-the-fly code generation" (Section 7): the
interpreter runs decoded SafeTSA directly, resolving dominator-scoped
values through the function's register state, and tiers hot functions
onto Python generated from the same SSA (:mod:`repro.interp.jit`).  It
is used for differential testing against the JVM-bytecode baseline
interpreter and for dynamic check-count profiling; both tiers count
steps and checks identically.
"""

from repro.interp.heap import ArrayRef, JStr, JavaError, ObjectRef
from repro.interp.interpreter import ExecutionResult, Interpreter
from repro.interp.jit import JitCompiler

__all__ = [
    "ArrayRef",
    "JStr",
    "JavaError",
    "ObjectRef",
    "ExecutionResult",
    "Interpreter",
    "JitCompiler",
]
