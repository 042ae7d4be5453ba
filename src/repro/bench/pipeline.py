"""Pass-pipeline benchmark: analysis-cache reuse, per-pass timing, and
the process-pool fan-out (``BENCH_pipeline.json``).

Three questions, answered over the full corpus workload (every
transmitted artifact is built, verified, optimised, re-verified, and
encoded; the optimised form also produces the bytecode baseline the
Figure 5 comparison needs):

1. **What do the shared analyses cost and buy?**  The ``session`` lane
   runs the workload through one
   :class:`~repro.driver.session.CompilationSession` per artifact:
   every consumer (CSE, DCE, the verifier, the encoder's layout) hits
   the shared :class:`~repro.analysis.manager.AnalysisManager`, and the
   bytecode baseline reuses the memoized front end.  The report counts
   consumers per computed analysis and the per-pass seconds.

2. **What does the fan-out buy?**  ``parallel`` distributes the
   session workload across a process pool at artifact granularity
   (the ``warm_cache`` pattern: compilation is pure CPU, wire bytes are
   the picklable result) and is reported against ``session``.  On a
   single-CPU host the pool is skipped and ``workers`` honestly reports
   1.

3. **Is the fan-out safe?**  For every corpus artifact the process
   pool must produce bit-identical encoded bytes to the in-process
   session run.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from typing import Optional

from repro.bench.corpus import CORPUS_PROGRAMS, corpus_source
from repro.bench.metrics import TRANSMITTED_FLAGS
from repro.driver import CompilationSession


def _artifacts(programs) -> list[tuple[str, str, dict]]:
    """(label, source, session flags) per transmitted corpus artifact."""
    out = []
    for name in programs:
        source = corpus_source(name)
        for flags in TRANSMITTED_FLAGS:
            form = "opt" if flags.get("optimize") else "plain"
            out.append((f"{name}.{form}", source, dict(flags)))
    return out


def _run_session_workload(label_source_flags):
    """Worker: one artifact's full producer workload through a session:
    build, verify, optimise, re-verify, encode -- plus, for the
    optimised form, the bytecode baseline Figure 5 compares against
    (sharing the session's memoized front end).

    Returns (label, wire bytes, session pass-report) -- everything
    picklable, so this runs under a process pool too.
    """
    label, source, flags = label_source_flags
    session = CompilationSession(cache=False, **flags)
    module = session.build_module(source)
    session.verify(module)  # admission check on the built module
    session.optimize(module)
    session.verify(module)  # the passes must preserve well-formedness
    wire = session.encode(module)
    if flags.get("optimize"):
        session.compile_to_classfiles(source)
    return label, wire, session.pass_report()


def _pool_map(fn, items, max_workers):
    """Map through a process pool, degrading exactly like
    ``repro.bench.metrics.warm_cache``."""
    try:
        executor = concurrent.futures.ProcessPoolExecutor(max_workers)
    except (OSError, PermissionError, NotImplementedError):
        executor = concurrent.futures.ThreadPoolExecutor(max_workers)
    try:
        with executor:
            return list(executor.map(fn, items))
    except concurrent.futures.process.BrokenProcessPool:
        with concurrent.futures.ThreadPoolExecutor(max_workers) as pool:
            return list(pool.map(fn, items))


def pipeline_report(programs=None, repeats=None,
                    max_workers: Optional[int] = None) -> dict:
    """All the numbers behind ``BENCH_pipeline.json``."""
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    programs = list(programs or CORPUS_PROGRAMS)
    artifacts = _artifacts(programs)
    cpus = os.cpu_count() or 1
    workers = max_workers if max_workers is not None else min(cpus, 4)

    report: dict = {"programs": programs,
                    "artifacts": len(artifacts),
                    "repeats": repeats,
                    "cpus": cpus}

    # 1. the session path (shared AnalysisManager and front end); the
    # first round is warmup, the best of the timed rounds is kept
    def session_round() -> list:
        return [_run_session_workload(item) for item in artifacts]

    session_runs = session_round()
    session_s = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        session_runs = session_round()
        session_s = min(session_s, time.perf_counter() - start)

    # 2. parallel: the session workload fanned across a process pool at
    # artifact granularity (a single CPU has nothing to fan out to, so
    # the pool is skipped and the honest worker count is 1)
    if workers <= 1 or cpus == 1:
        pool_workers = 1
        parallel_s = session_s
        parallel_runs = session_runs
    else:
        pool_workers = workers
        start = time.perf_counter()
        parallel_runs = _pool_map(_run_session_workload, artifacts,
                                  workers)
        parallel_s = time.perf_counter() - start

    # 3. determinism: the process pool vs the in-process session
    mismatched = [label for (label, wire, _), (_, pool_wire, _)
                  in zip(session_runs, parallel_runs) if pool_wire != wire]

    # 4. analysis-cache accounting + per-pass seconds, aggregated over
    # the corpus (one timed run's worth of sessions)
    cache_totals = {"computed": 0, "hits": 0, "invalidations": 0}
    per_analysis: dict = {}
    pass_seconds: dict = {}
    for _, _, pass_report in session_runs:
        stats = pass_report["analysis_cache"]
        for key in cache_totals:
            cache_totals[key] += stats[key]
        for name, counts in stats["per_analysis"].items():
            slot = per_analysis.setdefault(name,
                                           {"computed": 0, "hits": 0})
            slot["computed"] += counts["computed"]
            slot["hits"] += counts["hits"]
        for name, seconds in pass_report["pass_seconds"].items():
            pass_seconds[name] = pass_seconds.get(name, 0.0) + seconds
    computed = cache_totals["computed"]
    hits = cache_totals["hits"]

    report["session"] = {
        "seconds": round(session_s, 4),
        "mode": "CompilationSession: shared AnalysisManager and "
                "front end",
    }
    report["parallel"] = {
        "seconds": round(parallel_s, 4),
        "workers": pool_workers,
        "mode": "session workload across a process pool per artifact",
    }
    report["parallel_speedup_vs_session"] = \
        round(session_s / parallel_s, 3) if parallel_s else None
    report["determinism"] = {
        "artifacts": len(artifacts),
        "pool_identical_bytes": not mismatched,
        "mismatched": mismatched,
    }
    report["analysis_cache"] = {
        **cache_totals,
        "hit_rate": round(hits / (hits + computed), 4)
        if hits + computed else 0.0,
        "consumers_per_computed": round((hits + computed) / computed, 3)
        if computed else 0.0,
        "per_analysis": {name: counts for name, counts
                         in sorted(per_analysis.items())},
    }
    report["pass_seconds"] = {name: round(seconds, 6)
                              for name, seconds
                              in sorted(pass_seconds.items())}
    return report
