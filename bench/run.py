"""Benchmark of lrw1: recognition and certificate checking on seeded workloads.

    python3 bench/run.py --workload caterpillar_accept --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from src/ without
being installed.  Inputs are generated from --seed by gen.py, written one at
a time to bench/out/, and handed to worker.py, a separate process that runs
the two timed operations on each graph.  Every verdict is compared with the
answer known from the construction, and every certificate is checked by
checker.py, which does not use lrw1.  The run attempts whole rounds of graphs
until --seconds of wall time have passed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checker
import gen
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COLD_STARTS = 15
COLD_START = (
    "import sys; sys.path.insert(0, 'src'); import lrw1.cli; "
    "from lrw1.recognizer import dh_obstruction_catalog; dh_obstruction_catalog()"
)
TAIL_PERCENTILE = 90
WORKER_TIMEOUT_S = 60


def cold_start(env: dict) -> float:
    """Wall time for a fresh interpreter to import lrw1.cli and build the catalog.

    The child is reaped by a blocking wait.  Popen.wait(timeout=...) polls
    with sleeps of up to 50 ms, which would round the reading up to the next
    poll; the timeout is enforced by a timer thread that kills the child.
    """
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", COLD_START], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def tail(values: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE-th percentile (nearest rank) and the number of samples beyond it.

    On a homogeneous workload the highest percentile with only ten samples
    beyond it is set by the worst slow spell of the machine during the run,
    not by the inputs; the 90th percentile has ten or more samples beyond it
    whenever a run holds 100 graphs or more.
    """
    ordered = sorted(values)
    k = math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1
    return ordered[k], len(ordered) - k - 1


class Worker:
    """worker.py in its own process, one JSON line each way."""

    def __init__(self, trace: int, spans: Path, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--trace", str(trace), "--spans", str(spans)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Outcomes of the operations attempted in one pass (plain or traced)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.verdict_s: list[float] = []
        self.check_s: list[float] = []

    def add(self, index: int, case: gen.Case, result: dict) -> None:
        """Count both operations on one graph; check the output of those that ran."""
        self.attempted += 2
        if result["error"] is not None:
            print(f"graph {index}: {result['error']}", file=sys.stderr)
        if result["verdict_s"] is None or result["exit"] not in (0, 1):
            self.failed += 2  # the check needs the verdict's output
            return
        try:
            payload = json.loads(result["output"])
        except ValueError:
            payload = None
        reason = checker.check_verdict(case, result["exit"], payload)
        if reason is not None:
            self.wrong.append(f"graph {index}: {reason}")
        self.verdict_s.append(result["verdict_s"])
        if result["check_s"] is None:
            self.failed += 1
            return
        if not result["verified"]:
            self.wrong.append(f"graph {index}: verify_certificate rejected the certificate")
        self.check_s.append(result["check_s"])


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    round_size = gen.WORKLOADS[workload]
    plain, traced = Tally(), Tally()
    layers: list[dict] = []
    setup_s: list[float] = []
    worker = Worker(trace, out / "spans.tsv.gz", env)
    results = open(out / "results.jsonl", "w", encoding="ascii")
    try:
        def one(index: int, tallies: list[Tally]) -> None:
            case = gen.make_case(workload, seed, index)
            path = out / ("input.g6" if case.fmt == "graph6" else "input.txt")
            path.write_text(gen.serialize(case), encoding="ascii")
            reply = worker.ask({"path": str(path)})
            results.write(json.dumps({"graph": index, **reply}) + "\n")
            for tally, key in zip(tallies, ("plain", "traced")):
                if key in reply:
                    tally.add(index, case, reply[key])
            if "traced" in reply:
                layers.append(reply["layers"])
                keys = ("exit", "output", "verified")
                if [reply["plain"][k] for k in keys] != [reply["traced"][k] for k in keys]:
                    tallies[0].wrong.append(f"graph {index}: tracing changed the result")

        warm = Tally()
        one(-1, [warm, warm])  # warm-up, outside the measurement
        plain.wrong += warm.wrong
        layers.clear()
        index = 0
        start = perf_counter()
        while perf_counter() - start < seconds:
            elapsed = perf_counter() - start
            if not trace and len(setup_s) < COLD_STARTS and elapsed >= len(setup_s) * seconds / COLD_STARTS:
                setup_s.append(cold_start(env))
            for _ in range(round_size):
                one(index, [plain, traced])
                index += 1
        while not trace and len(setup_s) < COLD_STARTS:
            setup_s.append(cold_start(env))
        peak_rss_mb = worker.ask({"quit": True})["peak_rss_mb"]
        worker.proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        worker.close()
        results.close()
    wrong = plain.wrong + traced.wrong
    for line in wrong[:20]:
        print("WRONG " + line)
    graphs = len(plain.verdict_s)
    print(f"{workload} seed {seed}: {index} graphs in {index // round_size} rounds, "
          f"{graphs} verdict samples")
    if trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit)
                   for name, unit in LAYER_METRICS.items()}
        overhead = statistics.median(traced.verdict_s) - statistics.median(plain.verdict_s)
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
    else:
        tail_s, beyond = tail(plain.verdict_s)
        print(f"verdict_ms_tail is p{TAIL_PERCENTILE} of {graphs} samples, {beyond} beyond it")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "verdict_ms_p50": (statistics.median(plain.verdict_s) * 1e3, "ms"),
            "verdict_ms_tail": (tail_s * 1e3, "ms"),
            "check_ms_p50": (statistics.median(plain.check_s) * 1e3, "ms"),
            "graphs_per_s": (graphs / sum(plain.verdict_s), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:12.4f} {unit}")
    return {
        "correct": not wrong,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lrw1" / "cli.py").is_file():
        print(f"error: no lrw1 sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
