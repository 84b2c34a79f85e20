"""Time a cold start of lrw1 and check which modules it loads.

    python scripts/cold_start.py [--runs N]

Runs the benchmark's cold-start command (`COLD_START` in bench/run.py: a
fresh interpreter imports `lrw1.cli` and builds the obstruction catalog)
N times, interleaved with `python -c pass` and alternating which goes
first, and prints the median and quartiles of each in milliseconds.  The
children run from the repository root with PYTHONDONTWRITEBYTECODE=1, as
the benchmark's do, so a checkout without `__pycache__` compiles every
lrw1 module from source on every start.

It then runs the command once under `-X importtime`, prints the self time
of each lrw1 module, and exits 1 if the cold start imported `lrw1.oracle`,
`dataclasses` or `inspect`, none of which recognition needs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import COLD_START  # noqa: E402

FORBIDDEN = ("lrw1.oracle", "dataclasses", "inspect")


def _wall(argv: list[str], env: dict) -> float:
    t0 = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def _summary(label: str, seconds: list[float]) -> str:
    ms = [s * 1e3 for s in seconds]
    q1, median, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
    return f"{label}: median {median:.1f} ms, quartiles [{q1:.1f}, {q3:.1f}] ms over {len(ms)} runs"


def _import_times(env: dict) -> list[tuple[str, int]]:
    """(module, self time in microseconds) for each module the command imports, in order."""
    child = subprocess.run([sys.executable, "-X", "importtime", "-c", COLD_START], cwd=ROOT, env=env,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, check=True)
    rows = []
    for line in child.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                rows.append((name.strip(), int(self_us)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="runs of each command (default 20)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cold, bare = [], []
    for i in range(args.runs):
        for which in ((cold, bare) if i % 2 == 0 else (bare, cold)):
            command = COLD_START if which is cold else "pass"
            which.append(_wall([sys.executable, "-c", command], env))
    print(_summary("cold start", cold))
    print(_summary("python -c pass", bare))
    if any((ROOT / "src" / "lrw1").glob("__pycache__/*.pyc")):
        print("note: src/lrw1/__pycache__ holds bytecode, so lrw1 was not compiled from source")

    rows = _import_times(env)
    own = [(name, us) for name, us in rows if name == "lrw1" or name.startswith("lrw1.")]
    print("self import time of each lrw1 module (-X importtime, one run):")
    for name, us in own:
        print(f"  {name:16s} {us / 1e3:6.1f} ms")
    print(f"  {'total':16s} {sum(us for _, us in own) / 1e3:6.1f} ms")
    loaded = [name for name in FORBIDDEN if name in {row[0] for row in rows}]
    if loaded:
        print("the cold start imported " + ", ".join(loaded))
        return 1
    print("the cold start imported none of " + ", ".join(FORBIDDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
