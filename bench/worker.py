"""The process that runs the timed operations; run.py drives it over a pipe.

It reads one JSON request a line on stdin and answers one JSON line on
stdout.  A request {"path": p} runs both operations on the graph in file p:

- verdict: lrw1.cli.main(["recognize", "--json", p]) with stdout captured;
- check: certificate_from_json on the printed JSON, then verify_certificate.

With --trace 1 each graph is also run with the tracer installed, alternating
which of the two passes comes first.  {"quit": true} ends the run: the answer
reports the peak resident memory, and the spans are written to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrw1 import cli, recognizer  # noqa: E402
from lrw1.graph import parse_graph  # noqa: E402

from tracer import CHECK_ROOT, VERDICT_ROOT, Tracer  # noqa: E402


def _verdict(path: str, tracer: Tracer | None) -> tuple[int, str, float]:
    buf = io.StringIO()
    root = tracer.operation(VERDICT_ROOT) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        with root:
            code = cli.main(["recognize", "--json", path])
        t1 = perf_counter()
    return code, buf.getvalue(), t1 - t0


def _check(graph, output: str, tracer: Tracer | None) -> tuple[bool, float]:
    root = tracer.operation(CHECK_ROOT) if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    with root:
        certificate = cli.certificate_from_json(graph, json.loads(output))
        verified = bool(recognizer.verify_certificate(graph, certificate))
    return verified, perf_counter() - t0


def _run(path: str, tracer: Tracer | None) -> dict:
    """Both operations on one graph; an exception fails the operation it came from."""
    out: dict = {"exit": None, "output": None, "verdict_s": None, "verified": None,
                 "check_s": None, "error": None}
    try:
        out["exit"], out["output"], out["verdict_s"] = _verdict(path, tracer)
    except Exception:
        out["error"] = "verdict: " + traceback.format_exc()
        return out
    if out["exit"] not in (0, 1):
        return out
    text = Path(path).read_text(encoding="ascii")
    graph = parse_graph(text, cli.detect_format(text))
    try:
        out["verified"], out["check_s"] = _check(graph, out["output"], tracer)
    except Exception:
        out["error"] = "check: " + traceback.format_exc()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the spans of a traced run")
    args = parser.parse_args()
    recognizer.dh_obstruction_catalog()
    tracer = Tracer() if args.trace else None
    print(json.dumps({"ready": True}), flush=True)
    for count, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request.get("quit"):
            break
        reply = {}
        if tracer is None:
            reply["plain"] = _run(request["path"], None)
        else:
            for traced in ((False, True) if count % 2 == 0 else (True, False)):
                if traced:
                    first = len(tracer.names)
                    tracer.install()
                    try:
                        reply["traced"] = _run(request["path"], tracer)
                    finally:
                        tracer.uninstall()
                    reply["layers"] = tracer.metrics(first)
                else:
                    reply["plain"] = _run(request["path"], None)
        print(json.dumps(reply), flush=True)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kib / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
