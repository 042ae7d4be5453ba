"""Self-test of the end-to-end ledger.

    python3 -m pytest -q perfledger/tests

Short runs of every workload, traced and untraced, must print each
metric named in ``BENCHMARK.json`` with its unit and fail no op; a
byte flipped in a fetched wire must count as one failed op carrying a
stable rejection code; neither the server nor a consumer process may
outlive the run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_ledger(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, "perfledger/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=timeout)


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in BENCHMARK["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    done = run_ledger("--workload", workload, "--seed", "7",
                      "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0  # error_rate 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    table = [line.split() for line in done.stdout.splitlines()[:-1]]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert [name, metric["unit"]] in \
            [row[:1] + row[-1:] for row in table], name


def test_flipped_byte_counts_as_one_failed_op():
    from ledger import Inputs, Install, Run
    from tracing import Tracer

    def flip_first_byte(wire: bytes) -> bytes:
        return bytes([wire[0] ^ 0xFF]) + wire[1:]

    run = Run(ROOT, Install(Inputs(ROOT), 0), Tracer(False))
    try:
        run.setup()
        program = run.workload.units()[0]
        run.tamper = flip_first_byte
        record = run._timed_op(program)
        assert record.code is not None
        assert record.code.startswith(("DEC-", "SERVE-")), record.code
        run.tamper = None
        assert run._timed_op(program).code is None
        pid = run.server.pid
    finally:
        run.close()
    assert not Path(f"/proc/{pid}").exists(), "server outlived close()"


def _children(pid: int) -> list:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
@pytest.mark.parametrize("workload,children", [
    ("hot-loops", 1),  # interrupted in set-up: the server alone
    ("install", 3),    # interrupted mid-window: server + 2 consumers
])
def test_interrupted_run_stops_its_children(signum, workload, children):
    proc = subprocess.Popen(
        [sys.executable, "perfledger/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "60", "--trace", "0"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        deadline = time.monotonic() + 90
        seen: set = set()
        while len(_children(proc.pid)) < children and \
                time.monotonic() < deadline:
            seen.update(_children(proc.pid))
            time.sleep(0.05)
        assert len(_children(proc.pid)) >= children, \
            f"the ledger never had {children} child processes"
        time.sleep(1.0)  # let set-up or the window proceed
        seen.update(_children(proc.pid))
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"metrics"' not in out
    for pid in seen:
        assert not Path(f"/proc/{pid}").exists(), f"child {pid} leaked"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = run_ledger("--workload", "install", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
