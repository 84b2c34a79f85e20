"""Spans around the calls into lrw1's layers, recorded from outside the package.

`install()` replaces the module-level names through which lrw1.cli,
lrw1.recognizer, lrw1.dh and lrw1.splitdec call into each layer with wrappers
that record a span: name, parent, start and end.  `uninstall()` puts the
originals back.  Spans stay in memory until `write()`.  A layer's time is the
self time of its spans: their duration minus the part their child spans
cover.  Counts come from the number of calls and from return values.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
from array import array
from time import perf_counter

_NAN = float("nan")


def _prune_steps(args, seq) -> dict[str, int]:
    kinds = [step.kind for step in seq.steps] if seq is not None else []
    return {kind: kinds.count(kind) for kind in ("pendant", "true_twin", "false_twin")}


def _blocks(args, decomposition) -> dict[str, int]:
    sizes = [len(block.vertices) for block in decomposition.blocks]
    return {"blocks": len(sizes), "max_block": max(sizes)}


def _deleted(args, kept) -> int:
    return args[0].n - len(kept)


# (module, attribute, span name, summary of the return value or None)
TIMED = (
    ("lrw1.cli", "parse_graph", "graph.parse", None),
    ("lrw1.recognizer", "recognize", "recognizer.recognize", None),
    ("lrw1.recognizer", "connected_components", "graph.components", None),
    ("lrw1.dh", "connected_components", "graph.components", None),
    ("lrw1.recognizer", "induced_subgraph", "graph.induced_subgraph", None),
    ("lrw1.dh", "induced_subgraph", "graph.induced_subgraph", None),
    ("lrw1.recognizer", "pruning_sequence", "dh.prune", _prune_steps),
    ("lrw1.recognizer", "non_dh_obstruction", "dh.non_dh", _deleted),
    ("lrw1.splitdec", "replay_pruning", "splitdec.replay", None),
    ("lrw1.recognizer", "canonical_decomposition_dh", "splitdec.decompose", _blocks),
    ("lrw1.recognizer", "split_tree", "splitdec.split_tree", None),
    ("lrw1.recognizer", "ordering_from_path_tree", "recognizer.order", None),
    ("lrw1.recognizer", "extract_lrw1_obstruction", "recognizer.extract", None),
    ("lrw1.recognizer", "verify_certificate", "recognizer.verify", None),
    ("lrw1.recognizer", "cutrank_of_ordering", "gf2.cutrank", None),
    ("lrw1.oracle", "brute_lrw", "oracle.brute_lrw", None),
)
# Calls that are only counted; their time stays with the calling span.
COUNTED = (
    ("lrw1.dh", "is_distance_hereditary", "dh.is_distance_hereditary"),
    ("lrw1.recognizer", "is_isomorphic_small", "graph.is_isomorphic_small"),
)

VERDICT_ROOT = "cli.io"
CHECK_ROOT = "check"

METRICS = {
    "graph.parse_ms": "ms",
    "graph.induced_subgraph_ms": "ms",
    "graph.induced_subgraph_calls": "count",
    "graph.components_ms": "ms",
    "dh.prune_ms": "ms",
    "dh.prune_steps_pendant": "count",
    "dh.prune_steps_true_twin": "count",
    "dh.prune_steps_false_twin": "count",
    "dh.non_dh_ms": "ms",
    "dh.non_dh_trials": "count",
    "dh.non_dh_yield": "vertex/trial",
    "splitdec.replay_ms": "ms",
    "splitdec.decompose_ms": "ms",
    "splitdec.split_tree_ms": "ms",
    "splitdec.blocks": "count",
    "splitdec.max_block": "vertex",
    "recognizer.recognize_ms": "ms",
    "recognizer.order_ms": "ms",
    "recognizer.extract_ms": "ms",
    "recognizer.extract_check_ms": "ms",
    "recognizer.catalog_iso_calls": "count",
    "recognizer.check_ms": "ms",
    "gf2.cutrank_ms": "ms",
    "gf2.cutrank_calls": "count",
    "oracle.brute_lrw_ms": "ms",
    "oracle.brute_lrw_calls": "count",
    "cli.io_ms": "ms",
}
"""Per-graph layer metrics and their units, summed over a graph's operations."""

_CALLS = {
    "graph.induced_subgraph": "graph.induced_subgraph_calls",
    "gf2.cutrank": "gf2.cutrank_calls",
    "oracle.brute_lrw": "oracle.brute_lrw_calls",
    "graph.is_isomorphic_small": "recognizer.catalog_iso_calls",
}


class Tracer:
    def __init__(self):
        # one entry a span, in parallel arrays to keep large runs small;
        # counted calls have no times (NaN)
        self.names: list[str] = []
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.summaries: dict[int, object] = {}
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def _record(self, name: str) -> int:
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(_NAN)
        self.ends.append(_NAN)
        return len(self.names) - 1

    def _timed(self, original, name, summary):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._open:
                return original(*args, **kwargs)
            i = self._record(name)
            self._open.append(i)
            self.starts[i] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self._open.pop()
            if summary is not None:
                self.summaries[i] = summary(args, result)
            return result

        return wrapper

    def _counted(self, original, name):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._open:
                self._record(name)
            return original(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, summary in TIMED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._timed(original, name, summary))
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._counted(original, name))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; wrapped calls record spans only inside one."""
        i = self._record(name)
        self._open.append(i)
        self.starts[i] = perf_counter()
        try:
            yield
        finally:
            self.ends[i] = perf_counter()
            self._open.pop()

    def metrics(self, first: int) -> dict[str, float]:
        """Layer metrics of the spans recorded from index `first` on."""
        names, parents = self.names, self.parents
        out = dict.fromkeys(METRICS, 0.0)
        spans = range(first, len(names))
        self_ms = {i: (self.ends[i] - self.starts[i]) * 1e3 for i in spans
                   if not math.isnan(self.starts[i])}
        for i in spans:
            if i in self_ms and parents[i] >= 0:
                self_ms[parents[i]] -= (self.ends[i] - self.starts[i]) * 1e3
        deleted = 0
        for i in spans:
            name = names[i]
            parent_name = names[parents[i]] if parents[i] >= 0 else None
            if name in _CALLS:
                out[_CALLS[name]] += 1
            if name == "dh.is_distance_hereditary" and parent_name == "dh.non_dh":
                out["dh.non_dh_trials"] += 1
            elif name == "dh.prune":
                for kind, count in self.summaries[i].items():
                    out[f"dh.prune_steps_{kind}"] += count
            elif name == "dh.non_dh":
                deleted += self.summaries[i]
            elif name == "splitdec.decompose":
                out["splitdec.blocks"] += self.summaries[i]["blocks"]
                out["splitdec.max_block"] = max(out["splitdec.max_block"],
                                                self.summaries[i]["max_block"])
            if i not in self_ms or name == CHECK_ROOT:
                continue
            if name == VERDICT_ROOT:
                key = "cli.io_ms"
            elif name == "recognizer.verify":
                inside = parent_name == "recognizer.extract"
                key = "recognizer.extract_check_ms" if inside else "recognizer.check_ms"
            else:
                key = f"{name}_ms"
            out[key] += self_ms[i]
        if out["dh.non_dh_trials"]:
            out["dh.non_dh_yield"] = deleted / out["dh.non_dh_trials"]
        return out

    def write(self, path) -> None:
        """All spans as gzipped tab-separated lines: id, parent, name, start, end, summary."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart\tend\tsummary\n")
            for i, name in enumerate(self.names):
                summary = json.dumps(self.summaries[i]) if i in self.summaries else ""
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{summary}\n")
