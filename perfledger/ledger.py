"""Workloads, ops and measurement windows of the end-to-end ledger.

One :class:`Run` drives the real mobile-code path against a
``repro.serve`` server in its own process:

* the *producer* compiles MiniJava++ locally with a fresh
  :class:`~repro.driver.CompilationSession` per compile (frontend, SSA,
  default optimisation passes, encode) and publishes the wire bytes;
* the *consumer* fetches a unit by digest, loads it cold with the fused
  verifying loader and executes ``main`` on the interpreter, checking
  stdout against an oracle the interpreter under test did not produce.

Ops run in closed loops in whole *rounds*: each round is one seeded
permutation of the workload's program mix, and a window ends at the
first round boundary after its time is up.  Every window therefore
measures the same mix, which keeps throughput and percentiles steady
when op costs differ by 100x between programs.  A workload with one
consumer runs its ops on the calling thread; with more, each consumer
is a forked process with its own client connection, so concurrent ops
do not wait for each other's interpreter lock.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import queue
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Optional

from serverproc import ServerProcess, die_with_parent
from tracing import Tracer

#: the loop- and dispatch-heavy corpus programs; only ``hot-loops``
#: executes them
HOT = ("Linpack", "BitSieve", "MiniVM")
#: the publish log's signing key when ``repro-cc serve`` gets no --key
DEV_KEY = b"repro-serve-dev-key"
#: fresh (never-published) generated programs per publish round
FRESH_PER_ROUND = 30
#: steady-state re-executions run between rounds only while their time
#: stays under this share of the op time so far
STEADY_SHARE = 0.2
#: ops are scaled for host speed in segments: a round when the
#: consumers are processes, else runs of ops at least this long
SEGMENT_S = 0.25
#: host-speed kernel time after each segment, as a share of it
SPEED_SHARE = 0.02


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    main_class: Optional[str] = None
    #: sha256 of the expected stdout; None for programs never executed
    expected: Optional[str] = None


class OpFailed(Exception):
    """An op that completed with a wrong observable."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


@dataclass
class OpRecord:
    op: int
    program: str
    latency_ns: int
    code: Optional[str]  # None when the op succeeded
    counts: dict = field(default_factory=dict)
    #: host-speed factor of the op's segment (see ``hostspeed``)
    scale: float = 1.0


@dataclass
class Window:
    records: list
    #: wall seconds of the rounds, and the same at nominal host speed
    elapsed: float
    scaled_elapsed: float
    client_cpu: float
    server_cpu: float
    server_requests: int
    server_rss_mb: float
    #: largest ``ru_maxrss`` of the consumer processes (0 without any)
    consumer_rss_mb: float
    #: server verified-module-cache hits and lookups in the window
    cache_hits: int
    cache_lookups: int

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if record.code)

    @property
    def completed(self) -> int:
        return len(self.records) - self.failed

    def ops_per_s(self, scaled: bool = True) -> float:
        return self.completed / (self.scaled_elapsed if scaled
                                 else self.elapsed)

    def latency_ms(self, percent: int, scaled: bool = True) -> float:
        """The ``percent``-th percentile op latency."""
        latencies = [record.latency_ns * (record.scale if scaled else 1)
                     for record in self.records]
        if len(latencies) < 2:
            return latencies[0] / 1e6
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        return cuts[percent - 1] / 1e6


# ======================================================================
# inputs

class Inputs:
    """The corpus with its golden stdout, and the oracle-checked
    generated programs, read from the checkout."""

    def __init__(self, root: Path):
        corpus_dir = root / "src" / "repro" / "bench" / "corpus"
        golden_dir = root / "tests" / "golden"
        self.corpus = {}
        for path in sorted(corpus_dir.glob("*.java")):
            golden = (golden_dir / f"{path.stem}.out").read_bytes()
            self.corpus[path.stem] = Program(
                path.stem, path.read_text(), None, sha256(golden))
        oracle = json.loads(
            (Path(__file__).parent / "oracle.json").read_text())
        self.generated = [generated(entry["seed"], entry["stdout_sha256"])
                          for entry in oracle["generated"]]

    def short_corpus(self) -> list:
        return [p for name, p in self.corpus.items() if name not in HOT]


def generated(seed: int, expected: Optional[str] = None) -> Program:
    from repro.fuzz.gen import generate_seeded
    program = generate_seeded(seed)
    return Program(f"gen-{seed}", program.source, program.main_class,
                   expected)


# ======================================================================
# workloads

class Workload:
    """A program mix plus the op each program gets."""

    name = ""
    consumers = 1
    #: whether ops load and run modules on the client
    consumes = True

    def __init__(self, inputs: Inputs, seed: int):
        self.inputs = inputs
        self.rng = random.Random(seed)

    def units(self) -> list:
        """Programs compiled and published at set-up; their wire bytes
        are ``wire_bytes``, so the set does not depend on the seed."""
        raise NotImplementedError

    def steady_programs(self) -> list:
        """Programs whose loaded module is re-executed between rounds."""
        return self.inputs.short_corpus()

    def next_round(self) -> list:
        mix = self.units()
        self.rng.shuffle(mix)
        return mix

    def op(self, run: "Run", program: Program, counts: dict) -> None:
        run.install(program, counts)


class Publish(Workload):
    """Producer closed loop: compile cold, POST the wire."""

    name = "publish"
    consumes = False

    def __init__(self, inputs: Inputs, seed: int):
        super().__init__(inputs, seed)
        # fresh programs come from a seed range disjoint from the
        # oracle set (seeds 0..) and from every other run seed's range
        self._fresh = itertools.count(1_000_000 + seed * 100_000)

    def units(self) -> list:
        return list(self.inputs.corpus.values()) + self.inputs.generated

    def next_round(self) -> list:
        mix = list(self.inputs.corpus.values()) + \
            [generated(next(self._fresh)) for _ in range(FRESH_PER_ROUND)]
        self.rng.shuffle(mix)
        return mix

    def op(self, run: "Run", program: Program, counts: dict) -> None:
        run.publish(program, counts)


class Install(Workload):
    """Consumer closed loop: fetch, cold load, run once."""

    name = "install"
    consumers = 2

    def units(self) -> list:
        return self.inputs.short_corpus() + self.inputs.generated


class HotLoops(Workload):
    """Consumer closed loop over the loop- and dispatch-heavy corpus
    programs."""

    name = "hot-loops"

    def units(self) -> list:
        return [self.inputs.corpus[name] for name in HOT]

    def steady_programs(self) -> list:
        # a BitSieve op is over 99% execution, so its op latency is
        # already its steady run; re-executing it would cost 1.5 s a
        # sample
        return [self.inputs.corpus[name] for name in HOT
                if name != "BitSieve"]


WORKLOADS = {cls.name: cls for cls in (Publish, Install, HotLoops)}


# ======================================================================
# the run

def ir_counts(module) -> tuple[int, int]:
    """(instructions, static null/index checks) over every function."""
    from repro.ssa.ir import IdxCheck, NullCheck
    instrs = checks = 0
    for function in module.functions.values():
        for block in function.blocks:
            for instr in block.all_instrs():
                instrs += 1
                if isinstance(instr, (NullCheck, IdxCheck)):
                    checks += 1
    return instrs, checks


class Run:
    """Server, client and unit set for one workload under one seed."""

    def __init__(self, root: Path, workload: Workload, tracer: Tracer):
        self.root = root
        self.workload = workload
        self.tracer = tracer
        self.server: Optional[ServerProcess] = None
        self.client = None
        #: program name -> wire digest of every compile seen this run
        self.digests: dict[str, str] = {}
        #: program name -> wire bytes published at set-up
        self.wires: dict[str, bytes] = {}
        #: failed correctness checks outside ops (determinism, audit,
        #: steady-state output)
        self.problems: list[str] = []
        #: applied to every fetched wire; the self-test flips a byte
        self.tamper = None
        self._op_ids = itertools.count(1)
        self._published = 0
        self._reported: set = set()

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> float:
        """Start a fresh server, compile and publish the unit set;
        returns the seconds it took.  A server from an earlier set-up
        is stopped first, outside the timed part."""
        from repro.serve import ServeClient
        self.close()
        start = perf_counter()
        self.server = ServerProcess(str(self.root / "src"))
        self.server.start()
        self.client = ServeClient("127.0.0.1", self.server.port,
                                  tenant="ledger")
        self.wires = {}
        for program in self.workload.units():
            wire = self.compile(program, {})
            entry = self.client.publish(program.name, wire=wire)
            if entry["digest"] != sha256(wire):
                raise RuntimeError(f"server stored {program.name} under "
                                   f"a digest that is not its own")
            self.wires[program.name] = wire
        self._published = len(self.wires)
        return perf_counter() - start

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- producer -------------------------------------------------------

    def compile(self, program: Program, counts: dict) -> bytes:
        """Cold compile with a fresh session, one span per layer; the
        wire digest is checked against every earlier compile of the
        same program in this run."""
        from repro.driver import CompilationSession
        tracer = self.tracer
        session = CompilationSession(optimize=True, cache=False)
        with tracer.span("frontend"):
            session.frontend(program.source)
        with tracer.span("ssa"):
            module = session.build_module(program.source)
        if tracer.enabled:
            instrs, checks = ir_counts(module)
        with tracer.span("opt"):
            session.optimize(module)
        if tracer.enabled:
            instrs_after, checks_after = ir_counts(module)
        with tracer.span("encode"):
            wire = session.encode(module)
        if tracer.enabled:
            counts.update({
                "compiles": 1,
                "frontend.bytes": len(program.source.encode("utf-8")),
                "ssa.instrs": instrs,
                "opt.instrs_removed": instrs - instrs_after,
                "opt.checks_removed": checks - checks_after,
                "encode.bytes": len(wire)})
        digest = sha256(wire)
        seen = self.digests.setdefault(program.name, digest)
        if seen != digest:
            self.problems.append(f"nondeterministic compile of "
                                 f"{program.name}: {seen[:12]} then "
                                 f"{digest[:12]}")
            raise OpFailed("NONDETERMINISTIC")
        return wire

    def publish(self, program: Program, counts: dict) -> None:
        wire = self.compile(program, counts)
        with self.tracer.span("serve.publish"):
            entry = self.client.publish(program.name, wire=wire)
        if entry["digest"] != sha256(wire):
            raise OpFailed("DIGEST-MISMATCH")

    # -- consumer -------------------------------------------------------

    def fetch(self, digest: str) -> bytes:
        with self.tracer.span("serve.fetch"):
            wire = self.client.fetch(digest)  # re-hashed by the client
        if self.tamper is not None:
            wire = self.tamper(wire)
        return wire

    def install(self, program: Program, counts: dict) -> None:
        from repro.interp.interpreter import Interpreter
        from repro.loader import load_module
        wire = self.fetch(self.digests[program.name])
        with self.tracer.span("loader"):
            module = load_module(wire, cache=False)
        with self.tracer.span("interp"):
            interp = Interpreter(module)
            result = interp.run_main(program.main_class)
        counts.update({"loader.bytes": len(wire),
                       "interp.steps": interp.steps,
                       "interp.checks": sum(interp.check_counts.values())})
        check_output(program, result)

    # -- windows --------------------------------------------------------

    def _timed_op(self, program: Program,
                  op_id: Optional[int] = None) -> OpRecord:
        if op_id is None:
            op_id = next(self._op_ids)
        counts: dict = {}
        code = None
        start = perf_counter_ns()
        try:
            with self.tracer.span("op", op=op_id):
                self.workload.op(self, program, counts)
        except Exception as error:  # an op never aborts the run
            code = getattr(error, "code", None)
            if not isinstance(code, str):
                code = type(error).__name__
                self._report(code)
        latency = perf_counter_ns() - start
        return OpRecord(op_id, program.name, latency, code, counts)

    def _report(self, code: str) -> None:
        """Print the first traceback of each uncoded failure kind."""
        if code not in self._reported:
            self._reported.add(code)
            traceback.print_exc(file=sys.stderr)

    def window(self, seconds: float, speed=None, steady=None) -> Window:
        """Closed loop of whole rounds until ``seconds`` have passed.

        Ops are timed in segments: a whole round when the consumers are
        processes, else a run of ops lasting at least ``SEGMENT_S``.
        After each segment, ``speed`` (a :class:`~hostspeed.HostSpeed`)
        times its kernel for ``SPEED_SHARE`` of the segment and gives
        the segment's scale factor.  Between rounds, with the consumers
        idle, ``steady`` (a :class:`Steady`) re-executes its loaded
        modules once, as long as steady time stays under
        ``STEADY_SHARE`` of the op time so far.  Kernel and steady time
        and CPU are left out of the op window, so they sample the whole
        run without slowing ops."""
        stats = self.server_stats()
        server_cpu = self.server.cpu_seconds()
        rss = self.server.rss_mb()
        pool = None
        if self.workload.consumers > 1:
            pool = ConsumerProcesses(self, self.workload.consumers)
        records: list = []
        segment: list = []
        reports: list = []
        client_cpu = time.process_time()
        # CPU the benchmark process spends between ops, not on them
        aside_cpu = steady_wall = elapsed = scaled_elapsed = 0.0
        scale = 1.0

        def close_segment(start: float) -> float:
            nonlocal aside_cpu, elapsed, scaled_elapsed
            wall = perf_counter() - start
            factor = 1.0
            if speed is not None:
                kernel_cpu = time.process_time()
                factor = speed.scale(SPEED_SHARE * wall)
                aside_cpu += time.process_time() - kernel_cpu
            for record in segment:
                record.scale = factor
            records.extend(segment)
            segment.clear()
            elapsed += wall
            scaled_elapsed += wall * factor
            return factor

        deadline = perf_counter() + seconds
        try:
            while True:
                programs = self.workload.next_round()
                start = perf_counter()
                if pool is None:
                    for program in programs:
                        segment.append(self._timed_op(program))
                        if perf_counter() - start >= SEGMENT_S:
                            scale = close_segment(start)
                            start = perf_counter()
                else:
                    segment.extend(pool.run_round(programs))
                if segment:
                    scale = close_segment(start)
                rss = max(rss, self.server.rss_mb())
                if steady is not None and \
                        steady_wall <= STEADY_SHARE * elapsed:
                    cycle_cpu, cycle_wall = time.process_time(), \
                        perf_counter()
                    steady.cycle(scale)
                    aside_cpu += time.process_time() - cycle_cpu
                    steady_wall += perf_counter() - cycle_wall
                if perf_counter() >= deadline:
                    break
            if pool is not None:
                reports = pool.finish()
        finally:
            if pool is not None:
                pool.kill()
        client_cpu = time.process_time() - client_cpu - aside_cpu + \
            sum(report["cpu"] for report in reports)
        server_cpu = self.server.cpu_seconds() - server_cpu
        rss = max(rss, self.server.rss_mb())
        for report in reports:
            self.problems.extend(report["problems"])
            self.tracer.merge(report["spans"], report["gc_pause_ns"],
                              report["gc_collections"])
        records.sort(key=lambda record: record.op)
        self._published += sum(1 for record in records
                               if record.code is None
                               and not self.workload.consumes)
        after = self.server_stats()
        cache, cache_before = after["module_cache"], stats["module_cache"]
        hits = cache["hits"] - cache_before["hits"]
        lookups = hits + cache["misses"] - cache_before["misses"]
        # minus the stats request that measured the count
        requests = after["counters"]["requests"] - \
            stats["counters"]["requests"] - 1
        consumer_rss = max((report["rss_mb"] for report in reports),
                           default=0.0)
        return Window(records, elapsed, scaled_elapsed, client_cpu,
                      server_cpu, requests, rss, consumer_rss, hits,
                      lookups)

    # -- checks outside the timed window ---------------------------------

    def server_stats(self) -> dict:
        return self.client.request("GET", "/v1/stats")

    def audit(self) -> None:
        """The publish log must hold every publish this run made, and
        pass the client's chain and signature audit."""
        from repro.serve import ServeError
        try:
            head = self.client.audit(key=DEV_KEY)
        except ServeError as error:
            self.problems.append(f"publish log audit failed: {error}")
            return
        health = self.client.request("GET", "/v1/healthz")
        if health["log_head"] != head or \
                health["log_entries"] != self._published:
            self.problems.append(
                f"publish log holds {health['log_entries']} entries, "
                f"{self._published} publishes were acknowledged")

    def wire_bytes(self) -> int:
        return sum(len(wire) for wire in self.wires.values())


class ConsumerProcesses:
    """The consumers of one window as forked processes.

    Each child inherits the run (unit set, digests, tracer state) at
    the fork, opens its own :class:`~repro.serve.ServeClient`, and takes
    ``(op id, program)`` tasks from a shared queue until it reads
    ``None``; then it reports its CPU time, peak RSS, spans and failed
    checks.  Children ignore SIGINT, die with the benchmark process and
    are killed by :meth:`kill` on every exit path."""

    #: seconds between checks for a crashed child while waiting
    POLL = 1.0

    def __init__(self, run: Run, count: int):
        context = multiprocessing.get_context("fork")
        self.tasks = context.SimpleQueue()
        self.results = context.Queue()
        self._op_ids = run._op_ids
        self.procs = [context.Process(target=_consume, daemon=True,
                                      args=(run, index, self.tasks,
                                            self.results))
                      for index in range(count)]
        for proc in self.procs:
            proc.start()

    def _get(self):
        while True:
            try:
                return self.results.get(timeout=self.POLL)
            except queue.Empty:
                if any(proc.exitcode for proc in self.procs):
                    raise RuntimeError("a consumer process died")

    def run_round(self, programs: list) -> list:
        for program in programs:
            self.tasks.put((next(self._op_ids), program))
        return [self._get() for _ in programs]

    def finish(self) -> list:
        """Stop the children; their end-of-window reports."""
        for _ in self.procs:
            self.tasks.put(None)
        reports = [self._get() for _ in self.procs]
        for proc in self.procs:
            proc.join()
        return reports

    def kill(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.kill()
            proc.join()
        self.results.close()
        self.results.join_thread()


def _consume(run: Run, index: int, tasks, results) -> None:
    """A consumer process's main loop."""
    from repro.serve import ServeClient
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    die_with_parent()
    run.client = ServeClient("127.0.0.1", run.server.port,
                             tenant="ledger")
    run.tracer.fork(first_id=(index + 1) << 40)
    known = len(run.problems)
    cpu = time.process_time()
    while True:
        task = tasks.get()
        if task is None:
            break
        results.put(run._timed_op(task[1], task[0]))
    run.client.close()
    tracer = run.tracer
    results.put({
        "cpu": time.process_time() - cpu,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "spans": tracer.spans, "gc_pause_ns": tracer.gc_pause_ns,
        "gc_collections": tracer.gc_collections,
        "problems": run.problems[known:]})


class Steady:
    """Re-executions of already-loaded modules, one per program per
    :meth:`cycle`, each on a fresh :class:`Interpreter`."""

    def __init__(self, run: Run):
        from repro.loader import load_module
        self.run = run
        self.programs = run.workload.steady_programs()
        self.modules = [load_module(run.wires[program.name], cache=False)
                        for program in self.programs]
        self.times: list[list] = [[] for _ in self.programs]
        #: host-speed factor of each cycle
        self.scales: list[float] = []

    def cycle(self, scale: float = 1.0) -> None:
        from repro.interp.interpreter import Interpreter
        # collect the garbage the ops left, untimed, so a re-execution
        # pays only for collections its own allocations trigger
        gc.collect()
        self.scales.append(scale)
        for program, module, own in zip(self.programs, self.modules,
                                        self.times):
            start = perf_counter_ns()
            result = Interpreter(module).run_main(program.main_class)
            own.append(perf_counter_ns() - start)
            try:
                check_output(program, result)
            except OpFailed as failure:
                self.run.problems.append(
                    f"steady run of {program.name}: {failure.code}")

    def run_ms(self, scaled: bool = True) -> float:
        """Geometric mean over the programs of the median re-execution
        time, in ms."""
        scales = self.scales if scaled else [1.0] * len(self.scales)
        medians = [statistics.median(ns * scale for ns, scale
                                     in zip(own, scales)) / 1e6
                   for own in self.times]
        return math.exp(sum(map(math.log, medians)) / len(medians))


def check_output(program: Program, result) -> None:
    if result.exception is not None:
        raise OpFailed(f"TRAP-{result.exception_name()}")
    if sha256(result.stdout.encode("utf-8")) != program.expected:
        raise OpFailed("WRONG-STDOUT")

