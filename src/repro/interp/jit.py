"""Consumer-side code generation: SafeTSA -> Python ("the JIT").

The paper's consumer is "a dynamic class loader that takes SafeTSA code
distribution units and executes them using on-the-fly code generation"
(Section 7), and its premise is that SafeTSA arrives *ready* for code
generation -- no stack simulation, no type inference, no dataflow
verification.  This module demonstrates exactly that: each decoded
function is translated, block by block, into a Python function.  The
translation consumes the SSA directly:

* every instruction becomes one assignment to its register (``v<n>``);
* phi instructions become parallel copies on the incoming edges (a
  single tuple assignment, so phi-swaps are handled for free);
* ``downcast`` disappears (a register alias), exactly as the paper
  promises ("will not result in any actual code on the eventual target
  machine");
* exception edges become ``try/except`` around the subblock's trapping
  tail, jumping to the dispatch block.

This is the compiled tier of :class:`~repro.interp.interpreter.
Interpreter`, and it is metered exactly like interpretation: one step
at function entry and one per taken edge, ``check_counts`` per executed
``nullcheck``/``idxcheck``/``upcast``, the interpreter's step-limit
point and message, and its ``max_array_length`` cap.  Steps and check
counts accumulate in frame locals and are flushed to the shared
:class:`~repro.interp.interpreter.Meter` before every call (callees
must see the caller's steps) and, in a ``finally``, on every exit.
A generated function also has an on-stack-replacement entry: given the
interpreter's register frame and the current block id it resumes
mid-function.  :class:`JitCompiler` is the always-compile setting of
the same engine.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Optional

from repro.interp.heap import (
    ArrayRef,
    JavaError,
    JStr,
    ObjectRef,
    value_instanceof,
)
from repro.interp.interpreter import (
    AllocationLimitExceeded,
    Interpreter,
    InterpreterError,
    StepLimitExceeded,
    resolve_virtual,
)
from repro.ssa import ir
from repro.ssa.ir import Block, Function
from repro.typesys.ops import OPS_BY_TYPE
from repro.typesys.world import MethodInfo


class JitError(Exception):
    """Translation failure (invalid module or unsupported shape)."""


class _Emitter:
    """Accumulates generated source with indentation."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines)


class Linker:
    """Translation and call-site binding for one engine.

    Generated code reaches the engine only through this object, which
    holds the interpreter weakly: the runtime, meter and tier table are
    shared, so interpreted and compiled frames see one run, and no
    reference cycle leads from generated globals back to the
    :class:`Interpreter`.
    """

    def __init__(self, interp: Interpreter):
        self.world = interp.world
        self.runtime = interp.runtime
        self.meter = interp.meter
        self.functions = interp.module.functions
        self.tiers = interp._tiers
        self._interp = weakref.ref(interp)
        self._names = itertools.count(1)

    def translate(self, function: Function) -> Callable:
        env: dict = {"_JavaError": JavaError, "_IE": InterpreterError,
                     "_m": self.meter, "_C": self.meter.counts}
        emitter = _Emitter()
        name = f"_jit_{next(self._names)}"
        try:
            _MethodTranslator(self, function, env, emitter).translate(name)
            exec(compile(emitter.source(), f"<jit:{function.name}>",
                         "exec"), env)
        except RecursionError:
            # translating deep in a recursion: the function stays
            # interpreted, which meters identically
            raise JitError(f"no stack left to translate {function.name}")
        except SyntaxError as error:  # pragma: no cover - translator bug
            raise JitError(f"generated bad code for {function.name}: "
                           f"{error}\n{emitter.source()}") from None
        return env[name]

    # -- call sites ------------------------------------------------------

    def site(self, call: ir.Call, slot: dict, key: str) -> Callable:
        """The initial binding of call site ``slot[key]``.  Targets are
        resolved on first execution, never at translation: on a lazy or
        streaming module, resolving a callee decodes its body."""
        method = call.method
        if call.dispatch:
            return self._virtual_site(method)
        link = self._link

        def first_call(*args):
            return link(method, slot, key)(*args)
        return first_call

    def _virtual_site(self, method: MethodInfo) -> Callable:
        """Dispatch memoized per runtime class."""
        table: dict = {}
        world = self.world
        link = self._link

        def invoke_virtual(*args):
            receiver = args[0]
            key = receiver.class_info if receiver.__class__ is ObjectRef \
                else receiver.__class__
            target = table.get(key)
            if target is None:
                target = link(resolve_virtual(world, receiver, method),
                              table, key)
            return target(*args)
        return invoke_virtual

    def _link(self, method: MethodInfo, slot: dict, key) -> Callable:
        """Bind ``slot[key]`` to the cheapest way to call ``method``:
        its generated code if it has any, else a trampoline into the
        interpreter that rebinds the slot once the callee tiers up."""
        if method.is_native:
            runtime = self.runtime

            def target(*args):
                return runtime.invoke_native(method, list(args))
        else:
            function = self.functions.get(method)
            if function is None:
                raise InterpreterError(
                    f"no body for method {method.qualified_name}")
            tier = self.tiers[function]
            target = tier.code or _trampoline(self._interp, function,
                                              tier, slot, key)
        slot[key] = target
        return target


def _trampoline(interp_ref, function: Function, tier, slot: dict,
                key) -> Callable:
    def interpreted(*args):
        code = tier.code
        if code is None:
            return interp_ref().call(function, list(args))
        slot[key] = code
        return code(*args)
    return interpreted


class JitCompiler(Interpreter):
    """The always-compile setting of the tiered engine: every function
    is translated on its first call."""

    _TIER_CALLS = 0
    _TIER_LOOPS = 0

    def get(self, function: Function) -> Callable:
        """``function``'s generated code, translating it now if needed."""
        code = self._tier_up(function, self._tiers[function])
        if code is None:
            raise JitError(f"cannot translate {function.name}")
        return code


def _prim_expressions() -> dict:
    """(base type, operation) -> a Python expression template that
    computes exactly what the operation's ``fold`` computes, for the
    non-trapping operations cheap enough to spell out inline; the rest
    stay calls to their fold."""
    def wrap(expr: str, bits: int) -> str:  # jmath.i32 / jmath.i64
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        return f"((({expr}) + {half:#x}) & {mask:#x}) - {half:#x}"

    table = {}
    compare = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==",
               "ne": "!="}
    for base in ("int", "long", "float", "double", "char", "boolean"):
        for name, symbol in compare.items():
            table[(base, name)] = f"{{0}} {symbol} {{1}}"
    for base, bits in (("int", 32), ("long", 64)):
        shift = f"({{1}} & {bits - 1})"
        table.update({
            (base, "add"): wrap("{0} + {1}", bits),
            (base, "sub"): wrap("{0} - {1}", bits),
            (base, "mul"): wrap("{0} * {1}", bits),
            (base, "neg"): wrap("-{0}", bits),
            (base, "compl"): wrap("~{0}", bits),
            (base, "and"): "{0} & {1}",
            (base, "or"): "{0} | {1}",
            (base, "xor"): "{0} ^ {1}",
            (base, "shl"): wrap(f"{{0}} << {shift}", bits),
            (base, "shr"): f"{{0}} >> {shift}",
            (base, "ushr"): wrap(f"({{0}} & {(1 << bits) - 1:#x}) >> {shift}",
                                 bits),
            (base, "to_double"): "float({0})",
        })
    table.update({
        ("int", "to_long"): "{0}",
        ("char", "to_int"): "{0}",
        ("double", "add"): "{0} + {1}",
        ("double", "sub"): "{0} - {1}",
        ("double", "mul"): "{0} * {1}",
        ("double", "neg"): "-{0}",
        ("boolean", "and"): "{0} and {1}",
        ("boolean", "or"): "{0} or {1}",
        ("boolean", "xor"): "{0} != {1}",
        ("boolean", "not"): "not {0}",
    })
    return {(str(base), op.name): table[(str(base), op.name)]
            for base, ops in OPS_BY_TYPE.items() for op in ops
            if (str(base), op.name) in table}


#: see :func:`_prim_expressions`
PRIM_EXPRESSIONS = _prim_expressions()

#: check kind -> the frame-local counter the metered translator keeps
_CHECK_LOCALS = {"nullcheck": "_c0", "idxcheck": "_c1", "upcast": "_c2"}


class _FunctionTranslator:
    """Instruction emission, shared by the method JIT and the trace
    tier.  ``jit`` provides ``world``, ``runtime``, ``meter`` and, for
    the unmetered call emission here, ``_invoker(call)``."""

    def __init__(self, jit, function: Function, env: dict,
                 emitter: _Emitter):
        self.jit = jit
        self.function = function
        self.env = env
        self.out = emitter
        self._binding_counter = itertools.count(1)

    def bind(self, value) -> str:
        name = f"_g{next(self._binding_counter)}"
        self.env[name] = value
        return name

    def _count(self, kind: str) -> None:
        """Hook: a check of ``kind`` is about to execute (unmetered)."""

    # -- instructions -------------------------------------------------------

    def _translate_instr(self, instr: ir.Instr) -> None:
        handler = getattr(self, "_i_" + type(instr).__name__.lower(), None)
        if handler is None:
            raise JitError(f"jit cannot translate {type(instr).__name__}")
        handler(instr)

    def _i_const(self, instr: ir.Const) -> None:
        value = instr.value
        if isinstance(value, str):
            name = self.bind(JStr.intern(value))
            self.out.emit(f"v{instr.id} = {name}")
        elif value is None or isinstance(value, bool) \
                or isinstance(value, int):
            self.out.emit(f"v{instr.id} = {value!r}")
        else:
            name = self.bind(value)  # floats: avoid repr round-trip issues
            self.out.emit(f"v{instr.id} = {name}")

    def _i_param(self, instr: ir.Param) -> None:
        pass  # bound in the prologue

    def _i_prim(self, instr: ir.Prim) -> None:
        operation = instr.operation
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        template = PRIM_EXPRESSIONS.get(
            (str(operation.base), operation.name))
        if template is not None:
            self.out.emit(f"v{instr.id} = " + template.format(
                *(f"v{op.id}" for op in instr.operands)))
        elif operation.traps:
            wrapper = self.bind(_trapping(operation.fold, self.jit.runtime))
            self.out.emit(f"v{instr.id} = {wrapper}({args})")
        else:
            fold = self.bind(operation.fold)
            self.out.emit(f"v{instr.id} = {fold}({args})")

    def _i_refcmp(self, instr: ir.RefCmp) -> None:
        op = "is" if instr.is_eq else "is not"
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id} {op} "
                      f"v{instr.operands[1].id}")

    def _i_nullcheck(self, instr: ir.NullCheck) -> None:
        self._count("nullcheck")
        helper = self.bind(self.jit.runtime)
        value = f"v{instr.operands[0].id}"
        self.out.emit(f"if {value} is None: "
                      f"{helper}.throw('java.lang.NullPointerException')")
        self.out.emit(f"v{instr.id} = {value}")

    def _i_idxcheck(self, instr: ir.IdxCheck) -> None:
        self._count("idxcheck")
        helper = self.bind(_idxcheck_helper(self.jit.runtime))
        array, index = f"v{instr.array.id}", f"v{instr.index.id}"
        # in bounds inline; the helper only runs to throw
        self.out.emit(f"if not 0 <= {index} < len({array}.elements): "
                      f"{helper}({array}, {index})")
        self.out.emit(f"v{instr.id} = {index}")

    def _i_upcast(self, instr: ir.Upcast) -> None:
        self._count("upcast")
        helper = self.bind(_upcast_helper(self.jit, instr.target_type))
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_downcast(self, instr: ir.Downcast) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}")

    def _i_getfield(self, instr: ir.GetField) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".fields[{instr.field.slot}]")

    def _i_setfield(self, instr: ir.SetField) -> None:
        self.out.emit(f"v{instr.operands[0].id}.fields[{instr.field.slot}]"
                      f" = v{instr.operands[1].id}")

    def _i_getstatic(self, instr: ir.GetStatic) -> None:
        runtime = self.bind(self.jit.runtime)
        field = self.bind(instr.field)
        self.out.emit(f"v{instr.id} = {runtime}.get_static({field})")

    def _i_setstatic(self, instr: ir.SetStatic) -> None:
        runtime = self.bind(self.jit.runtime)
        field = self.bind(instr.field)
        self.out.emit(f"{runtime}.set_static({field}, "
                      f"v{instr.operands[0].id})")

    def _i_getelt(self, instr: ir.GetElt) -> None:
        self.out.emit(f"v{instr.id} = v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}]")

    def _i_setelt(self, instr: ir.SetElt) -> None:
        if instr.array_type.element.is_reference():
            helper = self.bind(_storecheck_helper(self.jit))
            self.out.emit(f"{helper}(v{instr.operands[0].id}, "
                          f"v{instr.operands[2].id})")
        self.out.emit(f"v{instr.operands[0].id}"
                      f".elements[v{instr.operands[1].id}] = "
                      f"v{instr.operands[2].id}")

    def _i_arraylen(self, instr: ir.ArrayLen) -> None:
        self.out.emit(f"v{instr.id} = "
                      f"len(v{instr.operands[0].id}.elements)")

    def _i_new(self, instr: ir.New) -> None:
        cls = self.bind(instr.class_info)
        ctor = self.bind(ObjectRef)
        self.out.emit(f"v{instr.id} = {ctor}({cls})")

    def _i_newarray(self, instr: ir.NewArray) -> None:
        helper = self.bind(_newarray_helper(self.jit.runtime,
                                            self.jit.meter,
                                            instr.array_type))
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_instanceof(self, instr: ir.InstanceOf) -> None:
        helper = self.bind(_instanceof_helper(self.jit,
                                              instr.target_type))
        self.out.emit(f"v{instr.id} = {helper}(v{instr.operands[0].id})")

    def _i_call(self, instr: ir.Call) -> None:
        invoker = self.bind(self.jit._invoker(instr))
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        target = f"v{instr.id} = " if instr.plane is not None else ""
        self.out.emit(f"{target}{invoker}({args})")

    def _i_caughtexc(self, instr: ir.CaughtExc) -> None:
        self.out.emit(f"v{instr.id} = _exc")


class _MethodTranslator(_FunctionTranslator):
    """Whole-function translation with exact metering and an OSR entry.

    Generated shape::

        def _jit_1(a0, a1, _osr=None):
            _n = 0                  # steps not yet flushed to _m
            _c1 = 0                 # idxchecks not yet flushed to _C
            try:
                _lim = _m.max_steps - _m.steps
                if _osr is None:
                    v3 = a0; v4 = a1; _exc = None; _b = 5
                else:               # resume an interpreted frame whose
                    _n = -1         # step for block _b is already taken
                    _fr, _b, _exc = _osr
                    v3, v7, = map(_fr.get, (3, 7,))
                while True:
                    if _b == 5:
                        _n += 1     # the block's step
                        if _n > _lim: _sle()
                        ...
                        if v9:
                            v7, v8 = v8, v7     # phi copies of the edge
                            _b = 6
                            continue
                        else:       # sole successor: emitted in place
                            _n += 1
                            if _n > _lim: _sle()
                            ...
                    if _b == 6: ...
            finally:
                _m.steps += _n
                _C['idxcheck'] += _c1

    Like the interpreter it charges one step at the top of every
    executed block, which is one at function entry plus one per taken
    edge.  A block whose only predecessor reaches it by a normal edge,
    and which has no phis, is emitted in place of that edge instead of
    getting a dispatch arm: less code to compile and no dispatch to
    run.  Phi blocks, the only on-stack-replacement targets, always
    keep their arm.
    """

    #: deepest indentation at which a block is still emitted in place
    _MAX_INLINE_INDENT = 40

    def _count(self, kind: str) -> None:
        self.out.emit(f"{_CHECK_LOCALS[kind]} += 1")
        self.counted.add(kind)

    def translate(self, name: str) -> None:
        function = self.function
        method = function.method
        arity = len(method.param_types) + (0 if method.is_static else 1)
        params = "".join(f"a{i}, " for i in range(arity))
        self.counted: set[str] = set()
        self.step_limit = self.bind(_step_limit_helper(self.jit.meter,
                                                       function.name))
        blocks = function.reachable_blocks()
        if not blocks:
            raise JitError(f"{function.name} has no reachable blocks")
        entry = function.entry
        self.inline = {block for block in blocks
                       if block is not entry and not block.phis
                       and len(block.preds) == 1
                       and block.preds[0][1] == "norm"}
        self.arms = [block for block in blocks if block not in self.inline]
        out = self.out
        out.emit(f"def {name}({params}_osr=None):")
        prologue = len(out.lines)
        out.indent = 2
        out.emit("_lim = _m.max_steps - _m.steps")
        out.emit("if _osr is None:")
        out.indent += 1
        for param in function.params:
            out.emit(f"v{param.id} = a{param.index}")
        out.emit("_exc = None")
        out.emit(f"_b = {entry.id}")
        out.indent -= 1
        out.emit("else:")
        out.indent += 1
        out.emit("_n = -1")
        out.emit("_fr, _b, _exc = _osr")
        regs = _osr_registers(function, blocks)
        if regs:
            out.emit("".join(f"v{reg}, " for reg in regs) + "= map(_fr.get, ("
                     + "".join(f"{reg}, " for reg in regs) + "))")
        out.indent -= 1
        out.emit("while True:")
        out.indent += 1
        # every arm ends in continue/return/raise, so the arms are flat
        # ifs, not an elif chain: an elif chain nests one level per arm
        # and Python's compiler overflows its recursion limit on big
        # functions.  _jump appends blocks it could not emit in place.
        for block in self.arms:
            out.emit(f"if _b == {block.id}:")
            out.indent += 1
            self._translate_block(block)
            out.indent -= 1
        out.emit("raise _IE('jit: bad block id')")
        out.indent = 1
        out.emit("finally:")
        out.emit("    _m.steps += _n")
        kinds = sorted(self.counted, key=list(_CHECK_LOCALS).index)
        for kind in kinds:
            out.emit(f"    _C[{kind!r}] += {_CHECK_LOCALS[kind]}")
        locals_ = ["    _n = 0"] + [f"    {_CHECK_LOCALS[kind]} = 0"
                                   for kind in kinds] + ["    try:"]
        out.lines[prologue:prologue] = locals_

    def _phi_copies(self, source: Block, target: Block, kind: str) -> str:
        """The parallel copy for edge source->target (may be '')."""
        if not target.phis:
            return ""
        index = None
        for position, (pred, pred_kind) in enumerate(target.preds):
            if pred is source and pred_kind == kind:
                index = position
                break
        if index is None:
            raise JitError("edge missing from predecessor list")
        targets = ", ".join(f"v{phi.id}" for phi in target.phis)
        values = ", ".join(f"v{phi.operands[index].id}"
                           for phi in target.phis)
        return f"{targets} = {values}"

    def _jump(self, source: Block, target: Block, kind: str = "norm") -> None:
        """Take an edge: its phi copies, then the target block, in place
        or through its dispatch arm."""
        if target in self.inline:
            if self.out.indent <= self._MAX_INLINE_INDENT:
                self._translate_block(target)
                return
            self.inline.discard(target)
            self.arms.append(target)
        copies = self._phi_copies(source, target, kind)
        if copies:
            self.out.emit(copies)
        self.out.emit(f"_b = {target.id}")
        self.out.emit("continue")

    def _translate_block(self, block: Block) -> None:
        self.out.emit("_n += 1")
        self.out.emit(f"if _n > _lim: {self.step_limit}()")
        exc_target = block.exc_succ()
        body = list(block.instrs)
        tail_trap = (exc_target is not None and body and body[-1].traps
                     and block.term is not None
                     and block.term.kind == "fall")
        plain = body[:-1] if tail_trap else body
        for instr in plain:
            self._translate_instr(instr)
        if tail_trap:
            last = body[-1]
            call = isinstance(last, ir.Call)
            if call:
                self._flush()
            self.out.emit("try:")
            self.out.indent += 1
            if call:
                self._emit_call(last)
            else:
                self._translate_instr(last)
            self.out.indent -= 1
            self.out.emit("except _JavaError as _e:")
            self.out.indent += 1
            self.out.emit("_exc = _e.value")
            if call:
                self._relimit()
            self._jump(block, exc_target, "exc")
            self.out.indent -= 1
            if call:
                self._relimit()
        self._translate_term(block, exc_target)

    def _translate_term(self, block: Block, exc_target) -> None:
        term = block.term
        if term is None:
            raise JitError(f"B{block.id} lacks a terminator")
        if term.kind == "return":
            value = f"v{term.value.id}" if term.value is not None else "None"
            self.out.emit(f"return {value}")
            return
        if term.kind == "throw":
            if exc_target is not None:
                self.out.emit(f"_exc = v{term.value.id}")
                self._jump(block, exc_target, "exc")
            else:
                self.out.emit(f"raise _JavaError(v{term.value.id})")
            return
        if term.kind == "unreachable":
            message = f"reached unreachable terminator in " \
                f"{self.function.name}"
            self.out.emit(f"raise _IE({message!r})")
            return
        normal = block.normal_succs()
        if term.kind == "branch":
            if len(normal) != 2:
                raise JitError("branch without two successors")
            self.out.emit(f"if v{term.value.id}:")
            self.out.indent += 1
            self._jump(block, normal[0])
            self.out.indent -= 1
            self.out.emit("else:")
            self.out.indent += 1
            self._jump(block, normal[1])
            self.out.indent -= 1
            return
        if len(normal) != 1:
            raise JitError(f"{term.kind} with {len(normal)} successors")
        self._jump(block, normal[0])

    # -- calls: a callee, natives included (they may re-enter user code
    # through Runtime.invoke_virtual), meters into the same budget, so
    # the frame's pending steps are flushed before it and the limit is
    # re-read after

    def _flush(self) -> None:
        self.out.emit("_m.steps += _n")
        self.out.emit("_n = 0")

    def _relimit(self) -> None:
        self.out.emit("_lim = _m.max_steps - _m.steps")

    def _emit_call(self, instr: ir.Call) -> None:
        name = self.bind(None)
        self.env[name] = self.jit.site(instr, self.env, name)
        args = ", ".join(f"v{op.id}" for op in instr.operands)
        target = f"v{instr.id} = " if instr.plane is not None else ""
        self.out.emit(f"{target}{name}({args})")

    def _i_call(self, instr: ir.Call) -> None:
        self._flush()
        self._emit_call(instr)
        self._relimit()


def _osr_registers(function: Function, blocks: list[Block]) -> list[int]:
    """Registers an OSR entry must reload from the interpreter's frame:
    parameters, phis, and every value used outside its defining block
    (a value used only where it is defined is recomputed before use)."""
    regs = {param.id for param in function.params}
    for block in blocks:
        for phi in block.phis:
            regs.add(phi.id)
            regs.update(op.id for op in phi.operands)
        for instr in block.instrs:
            for op in instr.operands:
                if op.block is not block:
                    regs.add(op.id)
        term = block.term
        if term is not None and term.value is not None \
                and term.value.block is not block:
            regs.add(term.value.id)
    return sorted(regs)


# ----------------------------------------------------------------------
# bound helpers

def _step_limit_helper(meter, name: str):
    def step_limit():
        raise StepLimitExceeded(
            f"exceeded {meter.max_steps} steps in {name}")
    return step_limit


def _trapping(fold, runtime):
    def apply(*args):
        try:
            return fold(*args)
        except ZeroDivisionError:
            runtime.throw("java.lang.ArithmeticException", "/ by zero")
    return apply


def _idxcheck_helper(runtime):
    def idxcheck(array, index):
        if 0 <= index < len(array.elements):
            return index
        runtime.throw(
            "java.lang.ArrayIndexOutOfBoundsException",
            f"Index {index} out of bounds for length "
            f"{len(array.elements)}")
    return idxcheck


def _upcast_helper(jit, target_type):
    world = jit.world
    runtime = jit.runtime

    def upcast(value):
        if value is None:
            return None
        if not value_instanceof(world, value, target_type):
            runtime.throw("java.lang.ClassCastException", str(target_type))
        return value
    return upcast


def _instanceof_helper(jit, target_type):
    world = jit.world

    def check(value):
        return value_instanceof(world, value, target_type)
    return check


def _newarray_helper(runtime, meter, array_type):
    def newarray(length):
        if length < 0:
            runtime.throw("java.lang.NegativeArraySizeException",
                          str(length))
        cap = meter.max_array_length
        if cap is not None and length > cap:
            raise AllocationLimitExceeded(
                f"new array of {length} > cap {cap}")
        return ArrayRef(array_type, length)
    return newarray


def _storecheck_helper(jit):
    world = jit.world
    runtime = jit.runtime

    def storecheck(array, value):
        element = array.array_type.element
        if value is not None \
                and not value_instanceof(world, value, element):
            runtime.throw("java.lang.ArrayStoreException", str(element))
    return storecheck
