"""Builds normalised UAST method bodies from the typed front-end AST.

The builder performs every lowering listed in :mod:`repro.uast`: the output
contains only the structured constructs the SSA generator understands, all
expressions are free of assignments and control flow, and every
``break``/``continue``/``return`` that crosses a ``finally`` has been routed
through its mode-variable dispatch.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend import ast
from repro.frontend.errors import CompileError
from repro.frontend.semantics import conversion_ops
from repro.typesys.ops import Operation, lookup_op
from repro.typesys.types import (
    ArrayType,
    BOOLEAN,
    CHAR,
    ClassType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    NullType,
    PrimitiveType,
    Type,
    VOID,
)
from repro.typesys.world import ClassInfo, FieldInfo, MethodInfo, World
from repro.uast import nodes as u

_OBJECT = ClassType("java.lang.Object")
_STRING = ClassType("java.lang.String")
_THROWABLE = ClassType("java.lang.Throwable")


class _LoopEntry:
    """A break/continue target on the builder's control stack."""

    __slots__ = ("kind", "label", "break_id", "continue_id",
                 "continue_is_break", "finally_depth")

    def __init__(self, kind: str, label: Optional[str], break_id: int,
                 continue_id: Optional[int], finally_depth: int,
                 continue_is_break: bool = False):
        self.kind = kind  # 'loop' | 'switch' | 'labeled'
        self.label = label
        self.break_id = break_id
        self.continue_id = continue_id
        #: True when continue must exit a labeled region (for-loop update
        #: code, effectful do-while condition) rather than jump to a header
        self.continue_is_break = continue_is_break
        self.finally_depth = finally_depth


class _FinallyFrame:
    """State for one enclosing ``finally`` during lowering."""

    __slots__ = ("mode_local", "exc_local", "exit_label_id", "transfers")

    def __init__(self, mode_local, exc_local, exit_label_id: int):
        self.mode_local = mode_local
        self.exc_local = exc_local
        self.exit_label_id = exit_label_id
        #: spec -> mode code; specs are ('throw',), ('return',),
        #: ('break', id(entry)...) -- see _transfer_spec
        self.transfers: dict[tuple, int] = {}

    def code_for(self, spec: tuple) -> int:
        if spec == ("throw",):
            return 1
        if spec not in self.transfers:
            self.transfers[spec] = 2 + len(self.transfers)
        return self.transfers[spec]


class UastBuilder:
    """Lowers one class's method bodies to UAST."""

    def __init__(self, world: World):
        self.world = world
        self._temp_count = 0
        self._label_count = 0
        # per-method state
        self._locals: list[ast.LocalVar] = []
        self._this_local: Optional[ast.LocalVar] = None
        self._loop_stack: list[_LoopEntry] = []
        self._finally_stack: list[_FinallyFrame] = []
        self._ret_local: Optional[ast.LocalVar] = None
        self._return_type: Type = VOID
        self._used_targets: set[int] = set()

    # ==================================================================
    # entry points

    def build_class(self, decl: ast.ClassDecl) -> list[u.UMethod]:
        info: ClassInfo = decl.info
        instance_inits = [m for m in decl.members
                          if isinstance(m, ast.FieldDecl)
                          and not m.is_static and m.init is not None]
        static_inits = [m for m in decl.members
                        if isinstance(m, ast.FieldDecl)
                        and m.is_static and m.init is not None]
        built: list[u.UMethod] = []
        for member in decl.members:
            if isinstance(member, ast.MethodDecl) and member.body is not None:
                built.append(self.build_method(info, member, instance_inits))
        # synthesized default constructor
        default_ctor = next((m for m in info.methods
                             if m.is_constructor and m.ast_body is None
                             and not m.is_native), None)
        if default_ctor is not None:
            built.append(self._build_default_ctor(info, default_ctor,
                                                  instance_inits))
        if static_inits:
            built.append(self._build_clinit(info, static_inits))
        return built

    def _reset(self, method: MethodInfo, info: ClassInfo) -> None:
        self._locals = []
        self._loop_stack = []
        self._finally_stack = []
        self._ret_local = None
        self._return_type = method.return_type
        self._used_targets = set()
        if method.is_static:
            self._this_local = None
        else:
            self._this_local = ast.LocalVar("this", info.type, 0,
                                            is_param=True, is_this=True)
            self._locals.append(self._this_local)

    def build_method(self, info: ClassInfo, decl: ast.MethodDecl,
                     instance_inits: list[ast.FieldDecl]) -> u.UMethod:
        method: MethodInfo = decl.method
        self._reset(method, info)
        for param in decl.params:
            self._locals.append(param.local)
        stmts: list[u.UStmt] = []
        body_stmts = list(decl.body.stmts)
        if method.is_constructor:
            stmts.extend(self._ctor_prologue(info, body_stmts,
                                             instance_inits))
        for stmt in body_stmts:
            stmts.extend(self.stmt(stmt))
        body = u.SBlock(stmts)
        result = u.UMethod(method, list(self._locals), body)
        method.uast_body = result
        return result

    def _ctor_prologue(self, info: ClassInfo, body_stmts: list[ast.Stmt],
                       instance_inits: list[ast.FieldDecl]) -> list[u.UStmt]:
        """Explicit/implicit super() or this() call plus field initializers."""
        out: list[u.UStmt] = []
        delegated = False
        if body_stmts and isinstance(body_stmts[0], ast.ExprStmt) \
                and isinstance(body_stmts[0].expr, ast.CtorCall):
            call: ast.CtorCall = body_stmts.pop(0).expr
            prelude, args = self._lower_args(call.args, call.method)
            out.extend(prelude)
            out.append(u.SEval(u.ECall(
                call.method, u.ELocal(self._this_local), args,
                dispatch=False,
                base=(info.superclass if call.is_super else info))))
            delegated = not call.is_super
        else:
            out.extend(self._implicit_super_call(info))
        if not delegated:
            for field_decl in instance_inits:
                prelude, value = self.expr(field_decl.init)
                out.extend(prelude)
                out.append(u.SFieldWrite(u.ELocal(self._this_local),
                                         field_decl.field,
                                         self._as_type(value,
                                                       field_decl.field.type)))
        return out

    def _implicit_super_call(self, info: ClassInfo) -> list[u.UStmt]:
        parent = info.superclass
        ctor = next((m for m in parent.methods
                     if m.is_constructor and not m.param_types), None)
        if ctor is None:
            raise CompileError(
                f"superclass {parent.name} has no no-arg constructor "
                f"for implicit super() in {info.name}")
        return [u.SEval(u.ECall(ctor, u.ELocal(self._this_local), [],
                                dispatch=False, base=parent))]

    def _build_default_ctor(self, info: ClassInfo, ctor: MethodInfo,
                            instance_inits: list[ast.FieldDecl]) -> u.UMethod:
        self._reset(ctor, info)
        stmts = self._ctor_prologue(info, [], instance_inits)
        result = u.UMethod(ctor, list(self._locals), u.SBlock(stmts))
        ctor.uast_body = result
        return result

    def _build_clinit(self, info: ClassInfo,
                      static_inits: list[ast.FieldDecl]) -> u.UMethod:
        # the ClassInfo outlives one lowering (a session lowers the same
        # front-end result for the module and the bytecode baseline), so
        # reuse the initializer an earlier lowering declared
        clinit = next((m for m in info.methods if m.name == "<clinit>"),
                      None)
        if clinit is None:
            clinit = info.add_method(
                MethodInfo("<clinit>", [], VOID, is_static=True))
        self._reset(clinit, info)
        stmts: list[u.UStmt] = []
        for field_decl in static_inits:
            prelude, value = self.expr(field_decl.init)
            stmts.extend(prelude)
            stmts.append(u.SStaticWrite(
                field_decl.field,
                self._as_type(value, field_decl.field.type)))
        result = u.UMethod(clinit, list(self._locals), u.SBlock(stmts))
        clinit.uast_body = result
        return result

    # ==================================================================
    # small helpers

    def _temp(self, type: Type) -> ast.LocalVar:
        self._temp_count += 1
        local = ast.LocalVar(f"$t{self._temp_count}", type,
                             len(self._locals), is_synthetic=True)
        self._locals.append(local)
        return local

    def _new_target(self) -> int:
        self._label_count += 1
        return self._label_count

    def _as_type(self, expr: u.UExpr, target: Type) -> u.UExpr:
        """Adjust a value to live on the plane of ``target``."""
        if isinstance(expr.type, NullType) and target.is_reference():
            return u.EConst(target, None)
        if expr.type == target:
            return expr
        if expr.type.is_reference() and target.is_reference():
            return u.EWidenRef(target, expr)
        if isinstance(expr.type, PrimitiveType) \
                and isinstance(target, PrimitiveType):
            for op in conversion_ops(expr.type, target):
                expr = u.EPrim(op, [expr])
            return expr
        raise CompileError(f"cannot adapt {expr.type} to {target}")

    def _hoist(self, prelude: list[u.UStmt],
               expr: u.UExpr) -> u.UExpr:
        """Force ``expr`` into a temp; extends ``prelude`` in place."""
        if isinstance(expr, u.EConst):
            return expr
        temp = self._temp(expr.type)
        prelude.append(u.SLocalWrite(temp, expr))
        return u.ELocal(temp)

    def _lower_ordered(self, exprs: list[ast.Expr]) \
            -> tuple[list[u.UStmt], list[u.UExpr]]:
        """Lower several expressions preserving left-to-right evaluation.

        When a later expression needs prelude statements, all earlier
        non-constant results are hoisted into temps so their values are
        captured before the prelude's side effects run.
        """
        prelude: list[u.UStmt] = []
        results: list[u.UExpr] = []
        for expr in exprs:
            inner_prelude, value = self.expr(expr)
            if inner_prelude:
                results = [r if isinstance(r, u.EConst)
                           else self._hoist(prelude, r) for r in results]
                prelude.extend(inner_prelude)
            results.append(value)
        return prelude, results

    def _lower_args(self, args: list[ast.Expr], method: MethodInfo) \
            -> tuple[list[u.UStmt], list[u.UExpr]]:
        prelude, values = self._lower_ordered(args)
        adapted = [self._as_type(value, param)
                   for value, param in zip(values, method.param_types)]
        return prelude, adapted

    # ==================================================================
    # statements

    def stmt(self, stmt: ast.Stmt) -> list[u.UStmt]:
        handler = getattr(self, "_stmt_" + type(stmt).__name__.lower(), None)
        if handler is None:
            raise CompileError(
                f"UAST builder: unsupported statement {type(stmt).__name__}",
                stmt.pos)
        return handler(stmt)

    def _stmt_block(self, stmt: ast.Block) -> list[u.UStmt]:
        out: list[u.UStmt] = []
        for inner in stmt.stmts:
            out.extend(self.stmt(inner))
        return [u.SBlock(out)]

    def _stmt_emptystmt(self, stmt: ast.EmptyStmt) -> list[u.UStmt]:
        return []

    def _stmt_localvardecl(self, stmt: ast.LocalVarDecl) -> list[u.UStmt]:
        out: list[u.UStmt] = []
        for local, init in stmt.declarators:
            if init is None:
                continue
            prelude, value = self.expr(init)
            out.extend(prelude)
            out.append(u.SLocalWrite(local, self._as_type(value, local.type)))
        return out

    def _stmt_exprstmt(self, stmt: ast.ExprStmt) -> list[u.UStmt]:
        prelude, value = self.expr(stmt.expr)
        if not isinstance(value, (u.EConst, u.ELocal)):
            prelude = prelude + [u.SEval(value)]
        return prelude

    def _lower_cond(self, cond: ast.Expr) -> tuple[list[u.UStmt], u.UExpr]:
        return self.expr(cond)

    def _stmt_ifstmt(self, stmt: ast.IfStmt) -> list[u.UStmt]:
        prelude, cond = self._lower_cond(stmt.cond)
        then_body = u.SBlock(self.stmt(stmt.then_stmt))
        else_body = (u.SBlock(self.stmt(stmt.else_stmt))
                     if stmt.else_stmt is not None else None)
        return prelude + [u.SIf(cond, then_body, else_body)]

    def _stmt_whilestmt(self, stmt: ast.WhileStmt,
                        label: Optional[str] = None) -> list[u.UStmt]:
        prelude, cond = self._lower_cond(stmt.cond)
        break_id = self._new_target()
        continue_id = self._new_target()
        entry = _LoopEntry("loop", label, break_id, continue_id,
                           len(self._finally_stack))
        self._loop_stack.append(entry)
        body = u.SBlock(self.stmt(stmt.body))
        self._loop_stack.pop()
        if not prelude:
            return [u.SWhile(break_id, continue_id, cond, body)]
        # effectful condition: while(true) { prelude; if(!c) break; body }
        not_cond = u.EPrim(lookup_op(BOOLEAN, "not"), [cond])
        self._used_targets.add(break_id)
        inner = u.SBlock(prelude
                         + [u.SIf(not_cond, u.SBreak(break_id), None), body])
        return [u.SWhile(break_id, continue_id, u.EConst(BOOLEAN, True),
                         inner)]

    def _stmt_dowhilestmt(self, stmt: ast.DoWhileStmt,
                          label: Optional[str] = None) -> list[u.UStmt]:
        # Lower the condition first so we know whether it needs a prelude
        # (temp creation order does not affect semantics).
        prelude, cond = self._lower_cond(stmt.cond)
        break_id = self._new_target()
        continue_id = self._new_target()
        entry = _LoopEntry("loop", label, break_id, continue_id,
                           len(self._finally_stack),
                           continue_is_break=bool(prelude))
        self._loop_stack.append(entry)
        body = u.SBlock(self.stmt(stmt.body))
        self._loop_stack.pop()
        if not prelude:
            return [u.SDoWhile(break_id, continue_id, body, cond)]
        # do S while(c)  with effectful c:
        #   while(true) { L_continue: { S }  prelude; if(!c) break; }
        not_cond = u.EPrim(lookup_op(BOOLEAN, "not"), [cond])
        self._used_targets.add(break_id)
        if continue_id in self._used_targets:
            body = u.SLabeled(continue_id, body)
        inner = u.SBlock([body] + prelude
                         + [u.SIf(not_cond, u.SBreak(break_id), None)])
        header_id = self._new_target()
        return [u.SWhile(break_id, header_id, u.EConst(BOOLEAN, True),
                         inner)]

    def _stmt_forstmt(self, stmt: ast.ForStmt,
                      label: Optional[str] = None) -> list[u.UStmt]:
        out: list[u.UStmt] = []
        for init in stmt.init:
            out.extend(self.stmt(init))
        if stmt.cond is None:
            cond_prelude: list[u.UStmt] = []
            cond: u.UExpr = u.EConst(BOOLEAN, True)
        else:
            cond_prelude, cond = self._lower_cond(stmt.cond)
        break_id = self._new_target()
        continue_id = self._new_target()  # labels the inner (body) region
        entry = _LoopEntry("loop", label, break_id, continue_id,
                           len(self._finally_stack), continue_is_break=True)
        self._loop_stack.append(entry)
        body = u.SBlock(self.stmt(stmt.body))
        self._loop_stack.pop()
        update_prelude, update_values = self._lower_ordered(stmt.update)
        update_stmts = list(update_prelude)
        for value in update_values:
            if not isinstance(value, (u.EConst, u.ELocal)):
                update_stmts.append(u.SEval(value))
        if continue_id in self._used_targets:
            body = u.SLabeled(continue_id, body)
        loop_body = u.SBlock([body] + update_stmts)
        header_id = self._new_target()
        if not cond_prelude:
            loop: u.UStmt = u.SWhile(break_id, header_id, cond, loop_body)
        else:
            not_cond = u.EPrim(lookup_op(BOOLEAN, "not"), [cond])
            self._used_targets.add(break_id)
            inner = u.SBlock(cond_prelude
                             + [u.SIf(not_cond, u.SBreak(break_id), None),
                                loop_body])
            loop = u.SWhile(break_id, header_id, u.EConst(BOOLEAN, True),
                            inner)
        out.append(loop)
        return out

    def _stmt_labeledstmt(self, stmt: ast.LabeledStmt) -> list[u.UStmt]:
        inner = stmt.stmt
        if isinstance(inner, ast.WhileStmt):
            return self._stmt_whilestmt(inner, label=stmt.label)
        if isinstance(inner, ast.DoWhileStmt):
            return self._stmt_dowhilestmt(inner, label=stmt.label)
        if isinstance(inner, ast.ForStmt):
            return self._stmt_forstmt(inner, label=stmt.label)
        target_id = self._new_target()
        entry = _LoopEntry("labeled", stmt.label, target_id, None,
                           len(self._finally_stack))
        self._loop_stack.append(entry)
        body = u.SBlock(self.stmt(inner))
        self._loop_stack.pop()
        if target_id in self._used_targets:
            return [u.SLabeled(target_id, body)]
        return [body]

    def _find_entry(self, label: Optional[str],
                    for_continue: bool) -> _LoopEntry:
        for entry in reversed(self._loop_stack):
            if label is not None:
                if entry.label == label:
                    return entry
            elif entry.kind == "loop" \
                    or (entry.kind == "switch" and not for_continue):
                return entry
        raise CompileError("unresolved break/continue target")

    def _stmt_breakstmt(self, stmt: ast.BreakStmt) -> list[u.UStmt]:
        entry = self._find_entry(stmt.label, for_continue=False)
        return self._emit_transfer(("break", entry), entry)

    def _stmt_continuestmt(self, stmt: ast.ContinueStmt) -> list[u.UStmt]:
        entry = self._find_entry(stmt.label, for_continue=True)
        return self._emit_transfer(("continue", entry), entry)

    def _emit_transfer(self, spec: tuple, entry: _LoopEntry) -> list[u.UStmt]:
        """Emit a break/continue, routing through finally frames if needed."""
        crossed = self._finally_stack[entry.finally_depth:]
        if crossed:
            frame = self._finally_stack[-1]
            code = frame.code_for(spec)
            self._used_targets.add(frame.exit_label_id)
            return [u.SLocalWrite(frame.mode_local, u.EConst(INT, code)),
                    u.SBreak(frame.exit_label_id)]
        kind, target = spec
        if kind == "break":
            self._used_targets.add(target.break_id)
            return [u.SBreak(target.break_id)]
        self._used_targets.add(target.continue_id)
        if target.continue_is_break:
            # exits a labeled region (for-loop update code / do-while cond)
            return [u.SBreak(target.continue_id)]
        return [u.SContinue(target.continue_id)]

    def _stmt_returnstmt(self, stmt: ast.ReturnStmt) -> list[u.UStmt]:
        prelude: list[u.UStmt] = []
        value: Optional[u.UExpr] = None
        if stmt.expr is not None:
            prelude, value = self.expr(stmt.expr)
            value = self._as_type(value, self._return_type)
        return prelude + self._emit_return(value)

    def _stmt_throwstmt(self, stmt: ast.ThrowStmt) -> list[u.UStmt]:
        prelude, value = self.expr(stmt.expr)
        return prelude + [u.SThrow(self._as_type(value, _THROWABLE))]

    def _stmt_trystmt(self, stmt: ast.TryStmt) -> list[u.UStmt]:
        if stmt.finally_block is None:
            return [self._plain_try(stmt)]
        mode_local = self._temp(INT)
        exc_local = self._temp(_THROWABLE)
        exit_id = self._new_target()
        frame = _FinallyFrame(mode_local, exc_local, exit_id)
        init: list[u.UStmt] = [
            # pre-initialise so the dispatch reads are definitely assigned
            u.SLocalWrite(exc_local, u.EConst(_THROWABLE, None)),
        ]
        if self._return_type is not VOID and self._ret_local is None:
            self._ret_local = self._temp(self._return_type)
            init.append(u.SLocalWrite(self._ret_local,
                                      _zero_const(self._return_type)))
        self._finally_stack.append(frame)
        inner = self._plain_try(stmt)
        self._finally_stack.pop()

        throwable = self.world.require("java.lang.Throwable")
        catch_local = self._temp(_THROWABLE)
        catch_all = u.UCatch(throwable, catch_local, u.SBlock([
            u.SLocalWrite(exc_local, u.ELocal(catch_local)),
            u.SLocalWrite(mode_local, u.EConst(INT, 1)),
        ]))
        guarded = u.STry(inner, [catch_all])

        out: list[u.UStmt] = init
        out.append(u.SLocalWrite(mode_local, u.EConst(INT, 0)))
        out.append(u.SLabeled(exit_id, guarded))
        out.extend(self.stmt(stmt.finally_block))
        out.extend(self._finally_dispatch(frame))
        return out

    def _plain_try(self, stmt: ast.TryStmt) -> u.UStmt:
        body = u.SBlock(self.stmt(stmt.body))
        if not stmt.catches:
            return body  # try-finally only: the catch-all wrapper suffices
        catches: list[u.UCatch] = []
        for clause in stmt.catches:
            catch_class = self.world.class_of(clause.catch_type)
            catch_body = u.SBlock(self.stmt(clause.body))
            catches.append(u.UCatch(catch_class, clause.local, catch_body))
        return u.STry(body, catches)

    def _finally_dispatch(self, frame: _FinallyFrame) -> list[u.UStmt]:
        """Re-emit the transfers recorded while lowering the try body."""
        out: list[u.UStmt] = []
        eq = lookup_op(INT, "eq")
        rethrow = u.SIf(
            u.EPrim(eq, [u.ELocal(frame.mode_local), u.EConst(INT, 1)]),
            u.SThrow(u.ELocal(frame.exc_local)), None)
        out.append(rethrow)
        for spec, code in frame.transfers.items():
            if spec == ("return",):
                if self._return_type is VOID or self._ret_local is None:
                    body: list[u.UStmt] = self._emit_return(None)
                else:
                    body = self._emit_return(u.ELocal(self._ret_local))
            else:
                kind, entry = spec
                body = self._emit_transfer((kind, entry), entry)
            out.append(u.SIf(
                u.EPrim(eq, [u.ELocal(frame.mode_local),
                             u.EConst(INT, code)]),
                u.SBlock(body), None))
        return out

    def _emit_return(self, value: Optional[u.UExpr]) -> list[u.UStmt]:
        if not self._finally_stack:
            return [u.SReturn(value)]
        frame = self._finally_stack[-1]
        code = frame.code_for(("return",))
        out: list[u.UStmt] = []
        if value is not None:
            if self._ret_local is None:
                self._ret_local = self._temp(self._return_type)
            out.append(u.SLocalWrite(self._ret_local, value))
        out.append(u.SLocalWrite(frame.mode_local, u.EConst(INT, code)))
        self._used_targets.add(frame.exit_label_id)
        out.append(u.SBreak(frame.exit_label_id))
        return out

    def _stmt_switchstmt(self, stmt: ast.SwitchStmt) -> list[u.UStmt]:
        prelude, selector = self.expr(stmt.selector)
        selector = self._hoist(prelude, selector)
        exit_id = self._new_target()
        entry = _LoopEntry("switch", None, exit_id, None,
                           len(self._finally_stack))
        self._loop_stack.append(entry)
        bodies: list[list[u.UStmt]] = []
        case_ids: list[int] = []
        for case in stmt.cases:
            case_ids.append(self._new_target())
            body: list[u.UStmt] = []
            for inner in case.stmts:
                body.extend(self.stmt(inner))
            bodies.append(body)
        self._loop_stack.pop()
        # dispatch: compare the selector against every case label
        from repro.frontend.semantics import constant_value
        eq = lookup_op(INT, "eq")
        dispatch: list[u.UStmt] = []
        default_id = exit_id
        for case, case_id in zip(stmt.cases, case_ids):
            if case.is_default:
                default_id = case_id
            for label in case.labels:
                value = constant_value(label)
                self._used_targets.add(case_id)
                dispatch.append(u.SIf(
                    u.EPrim(eq, [selector, u.EConst(INT, value)]),
                    u.SBreak(case_id), None))
        self._used_targets.add(default_id)
        dispatch.append(u.SBreak(default_id))
        # nest: exiting label k lands at the start of body k
        structure: u.UStmt = u.SBlock(dispatch)
        for case_id, body in zip(case_ids, bodies):
            structure = u.SBlock([u.SLabeled(case_id, structure)] + body)
        return prelude + [u.SLabeled(exit_id, structure)]

    # ==================================================================
    # expressions: each handler returns (prelude-statements, value)

    def expr(self, expr: ast.Expr) -> tuple[list[u.UStmt], u.UExpr]:
        handler = getattr(self, "_expr_" + type(expr).__name__.lower(), None)
        if handler is None:
            raise CompileError(
                f"UAST builder: unsupported expression {type(expr).__name__}",
                expr.pos)
        return handler(expr)

    def _expr_literal(self, expr: ast.Literal):
        return [], u.EConst(expr.type, expr.value)

    def _expr_localread(self, expr: ast.LocalRead):
        return [], u.ELocal(expr.local)

    def _expr_this(self, expr: ast.This):
        return [], u.ELocal(self._this_local)

    def _expr_fieldaccess(self, expr: ast.FieldAccess):
        field: FieldInfo = expr.field
        if field.is_static:
            if field.const_value is not None:
                return [], u.EConst(field.type, field.const_value)
            return [], u.EGetStatic(field)
        prelude, obj = self.expr(expr.target)
        return prelude, u.EGetField(obj, field)

    def _expr_arraylength(self, expr: ast.ArrayLength):
        prelude, array = self.expr(expr.target)
        return prelude, u.EArrayLen(INT, array)

    def _expr_arrayaccess(self, expr: ast.ArrayAccess):
        prelude, values = self._lower_ordered([expr.array, expr.index])
        return prelude, u.EArrayGet(expr.type, values[0], values[1])

    def _expr_call(self, expr: ast.Call):
        method: MethodInfo = expr.method
        if method.is_static:
            prelude, args = self._lower_args(expr.args, method)
            return prelude, u.ECall(method, None, args, dispatch=False,
                                    base=method.declaring)
        if expr.is_super:
            prelude, args = self._lower_args(expr.args, method)
            receiver: u.UExpr = u.ELocal(self._this_local)
            return prelude, u.ECall(method, receiver, args, dispatch=False,
                                    base=method.declaring)
        prelude, values = self._lower_ordered([expr.target] + expr.args)
        receiver = values[0]
        base = self.world.class_of(receiver.type) \
            if isinstance(receiver.type, ClassType) else method.declaring
        args = [self._as_type(value, param)
                for value, param in zip(values[1:], method.param_types)]
        return prelude, u.ECall(method, receiver, args, dispatch=True,
                                base=base)

    def _expr_ctorcall(self, expr: ast.CtorCall):
        method: MethodInfo = expr.method
        prelude, args = self._lower_args(expr.args, method)
        return prelude, u.ECall(method, u.ELocal(self._this_local), args,
                                dispatch=False, base=method.declaring)

    def _expr_new(self, expr: ast.New):
        prelude, args = self._lower_args(expr.args, expr.method)
        return prelude, u.ENew(expr.class_info, expr.method, args)

    def _expr_newarray(self, expr: ast.NewArray):
        prelude, dims = self._lower_ordered(expr.dims)
        array_type = expr.type
        assert isinstance(array_type, ArrayType)
        if len(dims) == 1:
            return prelude, u.ENewArray(array_type, dims[0])
        return prelude, u.ENewMultiArray(array_type, dims)

    def _expr_unary(self, expr: ast.Unary):
        prelude, operand = self.expr(expr.operand)
        if expr.op == "+":
            return prelude, operand
        return prelude, u.EPrim(expr.operation, [operand])

    def _expr_convert(self, expr: ast.Convert):
        prelude, operand = self.expr(expr.operand)
        if expr.ops:
            for op in expr.ops:
                operand = u.EPrim(op, [operand])
            return prelude, operand
        return prelude, self._as_type(operand, expr.type)

    def _expr_cast(self, expr: ast.Cast):
        prelude, operand = self.expr(expr.operand)
        if expr.cast_kind == "identity":
            return prelude, operand
        if expr.cast_kind == "numeric":
            for op in expr.convert_ops:
                operand = u.EPrim(op, [operand])
            return prelude, operand
        if expr.cast_kind == "widen_ref":
            return prelude, self._as_type(operand, expr.target_type)
        if isinstance(operand.type, NullType):
            return prelude, u.EConst(expr.target_type, None)
        return prelude, u.ECheckedCast(expr.target_type, operand)

    def _expr_instanceof(self, expr: ast.InstanceOf):
        prelude, operand = self.expr(expr.operand)
        return prelude, u.EInstanceOf(BOOLEAN, expr.target_type, operand)

    def _expr_binary(self, expr: ast.Binary):
        if expr.is_string_concat:
            return self._string_concat(expr.left, expr.right)
        if expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        if expr.is_ref_compare:
            prelude, values = self._lower_ordered([expr.left, expr.right])
            left = self._as_type(values[0], expr.compare_type)
            right = self._as_type(values[1], expr.compare_type)
            return prelude, u.ERefCmp(BOOLEAN, expr.op == "==",
                                      expr.compare_type, left, right)
        prelude, values = self._lower_ordered([expr.left, expr.right])
        return prelude, u.EPrim(expr.operation, values)

    def _short_circuit(self, expr: ast.Binary):
        prelude, left = self.expr(expr.left)
        right_prelude, right = self.expr(expr.right)
        temp = self._temp(BOOLEAN)
        assign_right = u.SBlock(right_prelude
                                + [u.SLocalWrite(temp, right)])
        if expr.op == "&&":
            stmt = u.SIf(left, assign_right,
                         u.SLocalWrite(temp, u.EConst(BOOLEAN, False)))
        else:
            stmt = u.SIf(left, u.SLocalWrite(temp, u.EConst(BOOLEAN, True)),
                         assign_right)
        return prelude + [stmt], u.ELocal(temp)

    def _string_concat(self, left: ast.Expr, right: ast.Expr):
        prelude, values = self._lower_ordered([left, right])
        lstr = self._stringify(values[0])
        rstr = self._stringify(values[1])
        concat = self._string_method("concat")
        return prelude, u.ECall(concat, lstr, [rstr], dispatch=False,
                                base=self.world.require("java.lang.String"))

    def _stringify(self, value: u.UExpr) -> u.UExpr:
        """Wrap a value in the appropriate String.valueOf call."""
        string_cls = self.world.require("java.lang.String")
        if value.type is FLOAT:
            value = u.EPrim(lookup_op(FLOAT, "to_double"), [value])
        if value.type.is_reference() or isinstance(value.type, NullType):
            value = self._as_type(value, _OBJECT)
            param: Type = _OBJECT
        else:
            param = value.type
        for method in string_cls.methods:
            if method.name == "valueOf" and method.param_types == [param]:
                return u.ECall(method, None, [value], dispatch=False,
                               base=string_cls)
        raise CompileError(f"no String.valueOf({param})")

    def _string_method(self, name: str) -> MethodInfo:
        string_cls = self.world.require("java.lang.String")
        for method in string_cls.methods:
            if method.name == name:
                return method
        raise CompileError(f"no String.{name}")

    def _expr_ternary(self, expr: ast.Ternary):
        prelude, cond = self.expr(expr.cond)
        temp = self._temp(expr.type)
        then_prelude, then_value = self.expr(expr.then_expr)
        else_prelude, else_value = self.expr(expr.else_expr)
        then_block = u.SBlock(then_prelude + [
            u.SLocalWrite(temp, self._as_type(then_value, expr.type))])
        else_block = u.SBlock(else_prelude + [
            u.SLocalWrite(temp, self._as_type(else_value, expr.type))])
        return prelude + [u.SIf(cond, then_block, else_block)], \
            u.ELocal(temp)

    # -- assignment forms -------------------------------------------------

    def _expr_assign(self, expr: ast.Assign):
        target = expr.target
        if expr.op == "=":
            if isinstance(target, ast.LocalRead):
                prelude, value = self.expr(expr.value)
                value = self._as_type(value, target.local.type)
                prelude.append(u.SLocalWrite(target.local, value))
                return prelude, u.ELocal(target.local)
            if isinstance(target, ast.FieldAccess):
                field = target.field
                if field.is_static:
                    prelude, value = self.expr(expr.value)
                    value = self._as_type(value, field.type)
                    value = self._hoist(prelude, value)
                    prelude.append(u.SStaticWrite(field, value))
                    return prelude, value
                prelude, values = self._lower_ordered(
                    [target.target, expr.value])
                obj = self._hoist(prelude, values[0])
                value = self._hoist(prelude,
                                    self._as_type(values[1], field.type))
                prelude.append(u.SFieldWrite(obj, field, value))
                return prelude, value
            if isinstance(target, ast.ArrayAccess):
                prelude, values = self._lower_ordered(
                    [target.array, target.index, expr.value])
                array = self._hoist(prelude, values[0])
                index = self._hoist(prelude, values[1])
                elem_type = target.array.type.element
                value = self._hoist(prelude,
                                    self._as_type(values[2], elem_type))
                prelude.append(u.SArrayWrite(array, index, value))
                return prelude, value
            raise CompileError("bad assignment target", expr.pos)
        return self._compound_assign(expr)

    def _location(self, target: ast.Expr, prelude: list[u.UStmt]):
        """Evaluate an lvalue's subexpressions once.

        Returns ``(read, write)``: ``read`` is the current value (hoisted to
        a temp) and ``write(value)`` appends the store, returning the stored
        value as the expression result.
        """
        if isinstance(target, ast.LocalRead):
            local = target.local
            read = self._hoist(prelude, u.ELocal(local))

            def write(value: u.UExpr) -> u.UExpr:
                prelude.append(u.SLocalWrite(local, value))
                return u.ELocal(local)
            return read, write, local.type
        if isinstance(target, ast.FieldAccess) and target.field.is_static:
            field = target.field
            read = self._hoist(prelude, u.EGetStatic(field))

            def write(value: u.UExpr) -> u.UExpr:
                value = self._hoist(prelude, value)
                prelude.append(u.SStaticWrite(field, value))
                return value
            return read, write, field.type
        if isinstance(target, ast.FieldAccess):
            field = target.field
            obj_prelude, obj = self.expr(target.target)
            prelude.extend(obj_prelude)
            obj = self._hoist(prelude, obj)
            read = self._hoist(prelude, u.EGetField(obj, field))

            def write(value: u.UExpr) -> u.UExpr:
                value = self._hoist(prelude, value)
                prelude.append(u.SFieldWrite(obj, field, value))
                return value
            return read, write, field.type
        if isinstance(target, ast.ArrayAccess):
            elem_type = target.type
            inner_prelude, values = self._lower_ordered(
                [target.array, target.index])
            prelude.extend(inner_prelude)
            array = self._hoist(prelude, values[0])
            index = self._hoist(prelude, values[1])
            read = self._hoist(prelude,
                               u.EArrayGet(elem_type, array, index))

            def write(value: u.UExpr) -> u.UExpr:
                value = self._hoist(prelude, value)
                prelude.append(u.SArrayWrite(array, index, value))
                return value
            return read, write, elem_type
        raise CompileError("bad assignment target", target.pos)

    def _compound_assign(self, expr: ast.Assign):
        """``a op= b``: read the location once, combine, write back."""
        prelude: list[u.UStmt] = []
        read, write, location_type = self._location(expr.target, prelude)

        if expr.is_string_concat:
            rhs_prelude, rhs = self.expr(expr.value)
            prelude.extend(rhs_prelude)
            concat = self._string_method("concat")
            combined: u.UExpr = u.ECall(
                concat, self._stringify(read), [self._stringify(rhs)],
                dispatch=False, base=self.world.require("java.lang.String"))
        else:
            # expr.value is the checked Binary whose left operand is a
            # re-read of the location (possibly Convert-wrapped)
            binary: ast.Binary = expr.value
            converted = read
            node = binary.left
            ops: list[Operation] = []
            while isinstance(node, ast.Convert):
                ops = list(node.ops) + ops
                node = node.operand
            for op in ops:
                converted = u.EPrim(op, [converted])
            rhs_prelude, rhs = self.expr(binary.right)
            prelude.extend(rhs_prelude)
            combined = u.EPrim(binary.operation, [converted, rhs])
            for op in expr.narrowing_ops:
                combined = u.EPrim(op, [combined])
        result = write(self._as_type(combined, location_type))
        return prelude, result

    def _expr_incdec(self, expr: ast.IncDec):
        prelude: list[u.UStmt] = []
        read, write, location_type = self._location(expr.target, prelude)
        operation = expr.operation
        base = operation.params[0]
        converted = read
        for op in conversion_ops(location_type, base):
            converted = u.EPrim(op, [converted])
        one = u.EConst(base, 1.0 if base in (DOUBLE, FLOAT) else 1)
        combined: u.UExpr = u.EPrim(operation, [converted, one])
        for op in (conversion_ops(base, location_type)
                   if base != location_type else []):
            combined = u.EPrim(op, [combined])
        new_value = write(combined)
        return prelude, (new_value if expr.is_prefix else read)


def build_uast(decl: ast.ClassDecl, world: World) -> list[u.UMethod]:
    """Lower all method bodies of ``decl`` to UAST."""
    return UastBuilder(world).build_class(decl)


def _zero_const(type: Type) -> u.EConst:
    """The default value of a type (Java zero-initialisation)."""
    if type is DOUBLE or type is FLOAT:
        return u.EConst(type, 0.0)
    if type is BOOLEAN:
        return u.EConst(type, False)
    if isinstance(type, PrimitiveType):
        return u.EConst(type, 0)
    return u.EConst(type, None)
