"""End-to-end ledger of the SafeTSA mobile-code path.

    python3 perfledger/run.py --workload install --seed 1 --seconds 20 \\
        --trace 0

Runs one workload (``publish``, ``install`` or ``hot-loops``) against a
``repro-cc serve`` process started from this checkout's ``src/``,
checks every program's output, prints each metric with its unit and, as
the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, every time scaled to a
nominal host speed (see ``hostspeed.py``); ``--trace 1`` runs half
the window untraced and half with spans around every layer call and
reports the per-layer metrics (spans are written to
``perfledger/runs/``).  See ``perfledger/README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
from pathlib import Path

from hostspeed import HostSpeed
from ledger import HOT, WORKLOADS, Inputs, OpFailed, Run, Steady, \
    check_output
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5
#: host-speed kernel time before and after each set-up, in seconds
SETUP_SPEED_S = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("wire_bytes", "bytes"),
    ("steady_run_ms", "ms"),
]

PER_LAYER = [
    ("frontend.self_ms", "ms"), ("frontend.kb_per_s", "KiB/s"),
    ("frontend.gc_ms", "ms"),
    ("ssa.self_ms", "ms"), ("ssa.instrs", "count"), ("ssa.gc_ms", "ms"),
    ("opt.self_ms", "ms"), ("opt.gc_ms", "ms"),
    ("opt.instrs_removed", "count"), ("opt.checks_removed", "count"),
    ("encode.self_ms", "ms"), ("encode.mb_per_s", "MB/s"),
    ("encode.bytes", "bytes"),
    ("serve.publish_ms", "ms"), ("serve.fetch_ms", "ms"),
    ("serve.fetch_p90_ms", "ms"),
    ("serve.server_cpu_ms_per_req", "ms"), ("serve.rss_mb", "MiB"),
    ("serve.errors", "count"), ("cache.server_verified_hit_rate", "ratio"),
    ("loader.self_ms", "ms"), ("loader.kb_per_s", "KiB/s"),
    ("loader.gc_ms", "ms"), ("loader.peak_alloc_kb", "KiB"),
    ("loader.rejects", "count"),
    ("interp.self_ms", "ms"), ("interp.steps", "count"),
    ("interp.msteps_per_s", "Msteps/s"), ("interp.checks", "count"),
    ("interp.gc_ms", "ms"),
] + [(f"interp.{kind}.{name}", "ms")
     for kind in ("self_ms", "trace_ms", "jit_ms")
     for name in HOT] + [
    ("gc.pause_ms", "ms"), ("gc.collections", "count"),
    ("other.self_ms", "ms"), ("trace.overhead", "ratio"),
]

#: layer -> the span names whose self time it owns
LAYERS = {
    "frontend": ("frontend",), "ssa": ("ssa",), "opt": ("opt",),
    "encode": ("encode",),
    "serve": ("serve.publish", "serve.fetch"),
    "loader": ("loader",), "interp": ("interp",), "other": ("op",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("publish", "install", "hot-loops"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    missing = [path for path in (src / "repro" / "__init__.py",
                                 ROOT / "tests" / "golden")
               if not path.exists()]
    if missing:
        print(f"perfledger: the checkout lacks {missing[0]}; run from a "
              f"full source checkout", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_CACHE_DIR", None)  # no process-wide caches
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGTERM, _terminate)

    _preload()
    workload = WORKLOADS[args.workload](Inputs(ROOT), args.seed)
    run = Run(ROOT, workload, Tracer(False))
    try:
        if args.trace:
            metrics, attempted, failed = traced(run, args)
            units = dict(PER_LAYER)
        else:
            metrics, attempted, failed = untraced(run, args)
            units = dict(END_TO_END)
    finally:
        run.close()
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.4f} {units[name]}")
    result = {"correct": failed == 0 and not run.problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result, separators=(",", ":")))
    return 0


def _preload() -> None:
    """Import every module the ops use, so no op pays a first import."""
    import repro.driver  # noqa: F401
    import repro.fuzz.gen  # noqa: F401
    import repro.interp.interpreter  # noqa: F401
    import repro.loader  # noqa: F401
    import repro.serve  # noqa: F401


def _failures(window) -> int:
    codes: dict[str, int] = {}
    for record in window.records:
        if record.code:
            codes[record.code] = codes.get(record.code, 0) + 1
    for code, count in sorted(codes.items()):
        print(f"failed ops: {count} x {code}")
    return sum(codes.values())


def untraced(run, args):
    """End-to-end metrics, every time scaled to nominal host speed."""
    speed = HostSpeed()
    speed.scale(SETUP_SPEED_S)
    setups = []
    for _ in range(SETUPS):
        seconds = run.setup()
        setups.append((seconds, speed.scale(SETUP_SPEED_S)))
    steady = Steady(run)
    window = run.window(args.seconds, speed, steady)
    run.audit()
    failed = _failures(window)
    print(f"{args.workload}: {len(window.records)} ops in "
          f"{window.elapsed:.2f} s, seed {args.seed}")
    cpu_ms = 1e3 * (window.client_cpu + window.server_cpu) \
        / max(window.completed, 1)
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": window.ops_per_s(scaled=False),
        "op_p50_ms": window.latency_ms(50, scaled=False),
        "op_p90_ms": window.latency_ms(90, scaled=False),
        "cpu_ms_per_op": cpu_ms,
        "steady_run_ms": steady.run_ms(scaled=False),
    }
    print(f"host speed: kernel median {speed.median_ms():.3f} ms over "
          f"{len(speed.samples)} samples; raw wall-clock figures: " +
          ", ".join(f"{name} {value:.4f}" for name, value in raw.items()))
    metrics = {
        "setup_s": statistics.median(s * scale for s, scale in setups),
        "ops_per_s": window.ops_per_s(),
        "op_p50_ms": window.latency_ms(50),
        "op_p90_ms": window.latency_ms(90),
        "cpu_ms_per_op":
            cpu_ms * window.scaled_elapsed / window.elapsed,
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            window.consumer_rss_mb),
        "wire_bytes": run.wire_bytes(),
        "steady_run_ms": steady.run_ms(),
    }
    return metrics, len(window.records), failed


def traced(run, args):
    """Half the window untraced, half traced; per-layer metrics come
    from the traced half only."""
    run.setup()
    plain = run.window(args.seconds / 2)
    tracer = run.tracer
    tracer.enabled = True
    try:
        with tracer:
            window = run.window(args.seconds / 2)
    finally:
        tracer.enabled = False
    run.audit()
    failed = _failures(plain) + _failures(window)
    metrics, shares = layer_metrics(run, window)
    metrics["trace.overhead"] = plain.ops_per_s() / window.ops_per_s()
    metrics.update(engine_metrics(run))
    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write(spans)
    print(f"{args.workload}: {len(window.records)} traced ops in "
          f"{window.elapsed:.2f} s; spans -> {spans.relative_to(ROOT)}")
    print_shares(shares)
    return metrics, len(plain.records) + len(window.records), failed


def layer_metrics(run, window) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's self ms per op."""
    tracer = run.tracer
    ops = max(len(window.records), 1)
    self_ns: dict[str, int] = {}
    gc_ns: dict[str, int] = {}
    durations: dict[str, list] = {}
    interp_by_op: dict[int, int] = {}
    for span in tracer.spans:
        self_ns[span.name] = self_ns.get(span.name, 0) + span.self_ns
        gc_ns[span.name] = gc_ns.get(span.name, 0) + span.gc_ns
        durations.setdefault(span.name, []).append(span.duration_ns)
        if span.name == "interp":
            interp_by_op[span.op] = span.self_ns
    counts: dict[str, int] = {}
    for record in window.records:
        for key, value in record.counts.items():
            counts[key] = counts.get(key, 0) + value

    def per_op_ms(*names) -> float:
        return sum(self_ns.get(name, 0) for name in names) / ops / 1e6

    def gc_ms(name) -> float:
        return gc_ns.get(name, 0) / ops / 1e6

    def rate(amount, name, scale) -> float:
        seconds = self_ns.get(name, 0) / 1e9
        return amount / scale / seconds if seconds else 0.0

    def mean_ms(name) -> float:
        values = durations.get(name)
        return statistics.fmean(values) / 1e6 if values else 0.0

    compiles = max(counts.get("compiles", 0), 1)
    fetches = durations.get("serve.fetch", [])
    codes = [record.code or "" for record in window.records]
    metrics = {
        "frontend.self_ms": per_op_ms("frontend"),
        "frontend.kb_per_s": rate(counts.get("frontend.bytes", 0),
                                  "frontend", 1024),
        "frontend.gc_ms": gc_ms("frontend"),
        "ssa.self_ms": per_op_ms("ssa"),
        "ssa.instrs": counts.get("ssa.instrs", 0) / compiles,
        "ssa.gc_ms": gc_ms("ssa"),
        "opt.self_ms": per_op_ms("opt"),
        "opt.gc_ms": gc_ms("opt"),
        "opt.instrs_removed": counts.get("opt.instrs_removed", 0)
        / compiles,
        "opt.checks_removed": counts.get("opt.checks_removed", 0)
        / compiles,
        "encode.self_ms": per_op_ms("encode"),
        "encode.mb_per_s": rate(counts.get("encode.bytes", 0),
                                "encode", 1e6),
        "encode.bytes": counts.get("encode.bytes", 0) / compiles,
        "serve.publish_ms": mean_ms("serve.publish"),
        "serve.fetch_ms": mean_ms("serve.fetch"),
        "serve.fetch_p90_ms": statistics.quantiles(
            fetches, n=10, method="inclusive")[8] / 1e6
        if len(fetches) > 1 else 0.0,
        "serve.server_cpu_ms_per_req": 1e3 * window.server_cpu
        / max(window.server_requests, 1),
        "serve.rss_mb": window.server_rss_mb,
        "serve.errors": sum(code.startswith("SERVE-") for code in codes),
        "cache.server_verified_hit_rate":
            window.cache_hits / window.cache_lookups
            if window.cache_lookups else 0.0,
        "loader.self_ms": per_op_ms("loader"),
        "loader.kb_per_s": rate(counts.get("loader.bytes", 0),
                                "loader", 1024),
        "loader.gc_ms": gc_ms("loader"),
        "loader.peak_alloc_kb": peak_load_kb(run),
        "loader.rejects": sum(code.startswith("DEC-") for code in codes),
        "interp.self_ms": per_op_ms("interp"),
        "interp.steps": counts.get("interp.steps", 0) / ops,
        "interp.msteps_per_s": rate(counts.get("interp.steps", 0),
                                    "interp", 1e6),
        "interp.checks": counts.get("interp.checks", 0) / ops,
        "interp.gc_ms": gc_ms("interp"),
        "gc.pause_ms": tracer.gc_pause_ns / ops / 1e6,
        "gc.collections": tracer.gc_collections / ops,
        "other.self_ms": per_op_ms("op"),
    }
    for name in HOT:
        own = [interp_by_op[r.op] for r in window.records
               if r.program == name and r.op in interp_by_op]
        metrics[f"interp.self_ms.{name}"] = \
            statistics.fmean(own) / 1e6 if own else 0.0
    shares = {layer: per_op_ms(*names) for layer, names in LAYERS.items()}
    return metrics, shares


def peak_load_kb(run) -> float:
    """Largest tracemalloc peak of one cold load over the unit set, for
    workloads whose ops load modules (0 for publish)."""
    import tracemalloc
    from repro.loader import load_module
    if not run.workload.consumes:
        return 0.0
    peaks = []
    tracemalloc.start()
    try:
        for wire in run.wires.values():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            load_module(wire, cache=False)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 1024


def engine_metrics(run) -> dict:
    """On hot-loops, one run of each loaded module through the trace
    tier and through the method JIT, stdout checked like an op."""
    from time import perf_counter_ns
    from repro.interp.jit import JitCompiler
    from repro.interp.trace import TracingInterpreter
    from repro.loader import load_module
    engines = {"trace_ms": TracingInterpreter, "jit_ms": JitCompiler}
    metrics = {f"interp.{kind}.{name}": 0.0
               for name in HOT for kind in engines}
    if run.workload.name != "hot-loops":
        return metrics
    for program in run.workload.units():
        for kind, engine in engines.items():
            module = load_module(run.wires[program.name], cache=False)
            start = perf_counter_ns()
            result = engine(module).run_main(program.main_class)
            metrics[f"interp.{kind}.{program.name}"] = \
                (perf_counter_ns() - start) / 1e6
            try:
                check_output(program, result)
            except OpFailed as failure:
                run.problems.append(f"{engine.__name__} on "
                                    f"{program.name}: {failure.code}")
    return metrics


def print_shares(shares: dict) -> None:
    """Each layer's self time as a share of traced op time."""
    total = sum(shares.values()) or 1.0
    for layer, ms in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {ms:10.3f} ms/op {100 * ms / total:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
