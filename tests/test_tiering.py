"""The tiered engine: interpreted and compiled frames mixed in one run.

Every test compares against pure interpretation (tier-up off) on all
of the interpreter's observables -- stdout, trap identity, ``steps``
and ``check_counts`` -- because generated code is metered exactly like
interpretation, whatever mix of tiers ran.
"""

import gc
import sys
import types

import pytest

from repro.api import compile_source
from repro.encode.serializer import encode_module
from repro.fuzz.oracle import PureInterpreter
from repro.interp.interpreter import (
    AllocationLimitExceeded,
    Interpreter,
    StepLimitExceeded,
)
from repro.interp.jit import JitCompiler
from repro.interp.trace import TracingInterpreter
from repro.loader import StreamingLoader, load_module

NEVER = 10 ** 9


class CallsTierUp(Interpreter):
    """Compiles on the third call; loops never trigger OSR."""

    _TIER_CALLS = 2
    _TIER_LOOPS = NEVER


class LoopsTierUp(Interpreter):
    """Compiles by OSR on the second loop-header entry; call counts
    never trigger."""

    _TIER_CALLS = NEVER
    _TIER_LOOPS = 1


def observe(engine, module, main_class, max_steps=50_000_000):
    interp = engine(module, max_steps=max_steps)
    try:
        result = interp.run_main(main_class)
        outcome = (result.stdout, result.exception_name())
    except StepLimitExceeded as error:
        outcome = ("".join(interp.runtime.stdout), str(error))
    return outcome + (interp.steps, dict(interp.check_counts)), interp


def compiled(interp, name: str) -> bool:
    return any(tier.code is not None
               for function, tier in interp._tiers.items()
               if function.method.name == name)


def assert_parity(engine, source, main_class, **kwargs):
    module = compile_source(source)
    expected, _ = observe(PureInterpreter, module, main_class, **kwargs)
    actual, interp = observe(engine, module, main_class, **kwargs)
    assert actual == expected
    return actual, interp


CALLEE_SOURCE = """
class P {
    int v;
    P(int v) { this.v = v; }
    public String toString() { return "P" + v; }
}
class T {
    static int sq(int x) { return x * x; }
    static void main() {
        int total = 0;
        for (int i = 0; i < 20; i++) { total = total + sq(i); }
        System.out.println(total);
        System.out.println(String.valueOf(new P(total)));
    }
}
"""


class TestMixedFrames:
    def test_interpreted_caller_compiled_callee(self):
        (stdout, *_), interp = assert_parity(CallsTierUp, CALLEE_SOURCE,
                                             "T")
        assert stdout == "2470\nP2470\n"
        assert compiled(interp, "sq")
        assert not compiled(interp, "main")

    def test_runtime_reentry_reaches_interpreted_callee(self):
        # main runs compiled (OSR); String.valueOf re-enters through
        # Runtime.invoke_virtual into a toString that stays interpreted
        (stdout, *_), interp = assert_parity(LoopsTierUp, CALLEE_SOURCE,
                                             "T")
        assert stdout.endswith("P2470\n")
        assert compiled(interp, "main")
        assert not compiled(interp, "toString")
        assert not compiled(interp, "sq")

    def test_osr_with_phi_swap_and_live_caught_exception(self):
        source = """
        class T {
            static void main() {
                try {
                    int[] xs = new int[1];
                    xs[3] = 1;
                } catch (ArrayIndexOutOfBoundsException e) {
                    int a = 1;
                    int b = 2;
                    for (int i = 0; i < 51; i++) {
                        int t = a;
                        a = b;
                        b = t;
                    }
                    System.out.println(a + " " + b + " " + e.getMessage());
                }
            }
        }
        """
        (stdout, *_), interp = assert_parity(LoopsTierUp, source, "T")
        assert stdout == "2 1 Index 3 out of bounds for length 1\n"
        assert compiled(interp, "main")

    THROWS_SOURCE = """
    class T {
        static int poke(int[] xs, int i) { xs[i] = i; return i; }
        static void main() {
            int[] xs = new int[4];
            int caught = 0;
            int sum = 0;
            for (int i = 0; i < 8; i++) {
                try { sum = sum + poke(xs, i); }
                catch (ArrayIndexOutOfBoundsException e) { caught++; }
            }
            System.out.println(sum + " " + caught);
        }
    }
    """

    def test_trap_in_compiled_callee_caught_by_interpreted_frame(self):
        (stdout, *_), interp = assert_parity(CallsTierUp,
                                             self.THROWS_SOURCE, "T")
        assert stdout == "6 4\n"
        assert compiled(interp, "poke")
        assert not compiled(interp, "main")

    def test_trap_in_interpreted_callee_caught_by_compiled_frame(self):
        (stdout, *_), interp = assert_parity(LoopsTierUp,
                                             self.THROWS_SOURCE, "T")
        assert stdout == "6 4\n"
        assert compiled(interp, "main")
        assert not compiled(interp, "poke")


class TestLimitsInCompiledCode:
    LOOP_SOURCE = """
    class T {
        static int f(int[] xs, int i) { return xs[i % 3] + i; }
        static void main() {
            int[] xs = new int[3];
            int acc = 0;
            for (int i = 0; i < 40; i++) {
                acc = acc + f(xs, i);
                System.out.println(acc);
            }
        }
    }
    """

    @pytest.mark.parametrize("engine", [JitCompiler, LoopsTierUp,
                                        CallsTierUp])
    def test_step_limit_fires_at_the_interpreters_point(self, engine):
        module = compile_source(self.LOOP_SOURCE)
        full, _ = observe(PureInterpreter, module, "T")
        steps = full[2]
        for cut in range(1, steps, 7):
            expected, _ = observe(PureInterpreter, module, "T", cut)
            actual, interp = observe(engine, module, "T", cut)
            assert actual == expected, f"max_steps={cut}"
            assert actual[2] == cut + 1
            assert actual[1].startswith(f"exceeded {cut} steps in T.")

    def test_allocation_cap_in_compiled_code(self):
        module = compile_source("""
        class T {
            static void main() {
                for (int n = 1; n < 100; n = n * 2) {
                    int[] xs = new int[n];
                    System.out.println(xs.length);
                }
            }
        }""")
        messages = []
        for engine in (PureInterpreter, JitCompiler, LoopsTierUp):
            interp = engine(module)
            interp.max_array_length = 10
            with pytest.raises(AllocationLimitExceeded) as info:
                interp.run_main("T")
            messages.append((str(info.value), interp.steps,
                             "".join(interp.runtime.stdout)))
        assert messages[0] == messages[1] == messages[2]
        assert messages[0][0] == "new array of 16 > cap 10"


class TestDeepRecursion:
    SOURCE = ("class T { static int depth(int n) {"
              "if (n == 0) return 0; return 1 + depth(n - 1); } }")

    @pytest.mark.parametrize("engine", [JitCompiler, CallsTierUp])
    def test_recursion_to_moderate_depth(self, engine):
        module = compile_source(self.SOURCE)
        fn = module.function_named("T", "depth")
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(10000)
        try:
            result = engine(module).run_function(fn, [300])
            expected = PureInterpreter(module).run_function(fn, [300])
        finally:
            sys.setrecursionlimit(old)
        assert result.value == 300
        assert result.steps == expected.steps


class TestEngineSettings:
    def test_tracing_interpreter_never_tiers_up(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tier-up under --trace")
        monkeypatch.setattr(Interpreter, "_tier_up", refuse)
        module = compile_source(CALLEE_SOURCE)
        interp = TracingInterpreter(module, threshold=2)
        for _ in range(3):
            assert interp.run_main("T").stdout.startswith("2470\n")
        assert interp._tiers is None

    def test_jit_compiler_reports_real_steps(self):
        module = compile_source(CALLEE_SOURCE)
        expected, _ = observe(PureInterpreter, module, "T")
        actual, interp = observe(JitCompiler, module, "T")
        assert actual == expected and actual[2] > 0
        assert compiled(interp, "main") and compiled(interp, "toString")

    def test_generated_globals_do_not_reach_the_interpreter(self):
        interp = JitCompiler(compile_source(CALLEE_SOURCE))
        interp.run_main("T")
        roots = [tier.code.__globals__ for tier in interp._tiers.values()
                 if tier.code is not None]
        assert roots
        module_dicts = {id(m.__dict__) for m in list(sys.modules.values())}
        seen = set()
        stack = list(roots)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)) \
                    or id(obj) in module_dicts:
                continue
            seen.add(id(obj))
            assert obj is not interp, "generated code reaches its engine"
            stack.extend(gc.get_referents(obj))


class TestTranslationLimits:
    def test_function_with_thousands_of_blocks_compiles(self):
        # one dispatch arm per join block; an elif chain of that length
        # overflows Python's compiler recursion limit
        cases = "\n".join(f"if (x == {k}) {{ y = y + {k}; }}"
                          for k in range(3000))
        source = (f"class T {{ static int big(int x) {{ int y = 0; {cases}"
                  " return y; } static void main() {"
                  " System.out.println(big(7) + big(1400)); } }")
        (stdout, *_), interp = assert_parity(JitCompiler, source, "T")
        assert stdout == "1407\n"
        assert compiled(interp, "big")

    def test_untranslatable_function_stays_interpreted(self, monkeypatch):
        from repro.interp import jit

        def no_stack(self, name):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(jit._MethodTranslator, "translate", no_stack)
        (stdout, *_), interp = assert_parity(CallsTierUp, CALLEE_SOURCE,
                                             "T")
        assert stdout == "2470\nP2470\n"
        assert not compiled(interp, "sq")


LAZY_SOURCE = """
class T {
    static boolean debug;
    static void main() {
        if (debug) { never(); }
        System.out.println(used(20));
    }
    static int used(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) { s = s + i; }
        return s;
    }
    static void never() {
        System.out.println("unreachable at run time");
    }
}
"""


class TestCallTargetsResolveOnFirstExecution:
    def _wire(self):
        return encode_module(compile_source(LAZY_SOURCE))

    @pytest.mark.parametrize("engine", [PureInterpreter, JitCompiler])
    def test_lazy_module_materializes_only_what_runs(self, engine):
        module = load_module(self._wire(), lazy=True, cache=False)
        result = engine(module).run_main("T")
        assert result.stdout == "190\n"
        state = module.functions._state
        touched = sorted(method.name for method, index
                         in state.position.items()
                         if state.decoded[index] is not None)
        assert touched == ["main", "used"]

    def test_streaming_module_runs_before_dead_callee_arrives(self):
        wire = self._wire()
        loader = StreamingLoader(cache=False)
        ran = False
        for index in range(len(wire)):
            module = loader.feed(wire[index:index + 1])
            if module is None:
                continue
            functions = module.functions
            ready = {method.name for method in functions
                     if functions.ready(method)}
            if {"main", "used"} <= ready and "never" not in ready:
                result = JitCompiler(module).run_main("T")
                assert result.stdout == "190\n"
                ran = True
                break
        assert ran, "bodies never arrived in main, used, never order"
