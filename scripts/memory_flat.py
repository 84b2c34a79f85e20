"""Check that repeated `lrw1.cli.main` calls in one process leave the heap flat.

    PYTHONPATH=src:tests python scripts/memory_flat.py

Writes 42 seeded graphs to a temporary directory: accepts from
`oracle.random_lrw1_graph`, dh_star3 rejections from `oracle.random_dh_graph`
and non-DH rejections from `conftest.hung_c5`.  Runs `recognize --json` and
`recognize --json --verify` on each of them for one warm-up round and then
for 8 more rounds, and exits 1 when `sys.getallocatedblocks()` grew by more
than BUDGET blocks over those 8 rounds.  The second call runs the verifier,
with its shape check on each obstruction, as a benchmark worker does on
every graph.  A caller that reuses the process, such as that worker, would
otherwise see its memory creep: CPython's tuple free lists keep a block for
each tuple built from an iterator of unknown length until a full garbage
collection, and each discarded argparse parser is cyclic garbage that sets
when those collections run.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from conftest import hung_c5
from lrw1 import cli, oracle
from lrw1.graph import serialize_graph

ROUNDS = 8
BUDGET = 1000  # blocks; CHANGES.md gives the figures it was set from
PER_FAMILY = 14


def main() -> int:
    cases = [(oracle.random_lrw1_graph(60, s), 0) for s in range(PER_FAMILY)]
    cases += [(oracle.random_dh_graph(60, s), 1) for s in range(PER_FAMILY)]
    cases += [(hung_c5(55 + s, s % 2 == 0), 1) for s in range(PER_FAMILY)]
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, (graph, code) in enumerate(cases):
            path = Path(tmp) / f"{i}.edges"
            path.write_text(serialize_graph(graph), encoding="ascii")
            runs.append((str(path), code))

        def one_round() -> None:
            for path, code in runs:
                for argv in (["recognize", "--json", path], ["recognize", "--json", "--verify", path]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        got = cli.main(argv)
                    if got != code:
                        raise SystemExit(f"{' '.join(argv)}: exit {got}, expected {code}")

        one_round()
        start = sys.getallocatedblocks()
        for _ in range(ROUNDS):
            one_round()
        growth = sys.getallocatedblocks() - start
    print(f"{len(runs)} graphs, 2 calls each, {ROUNDS} rounds: {growth:+d} allocated blocks (budget {BUDGET})")
    return 0 if growth <= BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
