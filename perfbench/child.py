"""Run one workload in this interpreter and print its raw results as JSON.

Started by run.py, one child at a time, with clk's ``src`` directory on
PYTHONPATH.  Requests run one after another in this single thread (a
closed loop with one client); each call is ``clk.cli.main(argv)`` with the
document on stdin and stdout captured.  Only that call is timed; the
machine-speed reference job (reference.py) runs before each request.  Checks
that need sympy run after the loop and after peak memory is read, so that
neither their time nor their memory is counted.
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
from time import perf_counter_ns

import corpus
from model import Mismatch
from oracle import EXIT_UNKNOWN
from reference import reference_ms

# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100


def _import_clk(root: Path):
    import clk
    import clk.cli

    src = (root / "src").resolve()
    if src not in Path(clk.__file__).resolve().parents:
        raise SystemExit(f"clk was imported from {clk.__file__}, not from {src}")
    return clk.cli.main


def _call(main, argv, doc: bytes):
    """(exit code or None, stdout, nanoseconds) of one CLI call."""
    sys.stdin = io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter_ns()
        try:
            code = main(list(argv))
        except (Exception, SystemExit):
            code = None
            error = traceback.format_exc()
        end = perf_counter_ns()
    if code is None:
        print(error, file=sys.stderr)
    return code, out.getvalue(), end - start


def run(workload: str, seed: int, seconds: float, requests: int | None, recorder=None):
    """Run requests until ``seconds`` of request time (and at least
    MIN_REQUESTS requests), or exactly ``requests`` requests."""
    main = _import_clk(Path(__file__).resolve().parent.parent)
    if recorder is not None:
        recorder.install()
        main = recorder.root(main)

    latencies, pending, errors, references = [], [], [], []
    failures = set()
    calls = decided = stdout_bytes = busy_ns = 0
    for index, req in enumerate(corpus.requests(workload, seed)):
        if requests is not None:
            if index == requests:
                break
        elif busy_ns >= seconds * 1e9 and index >= MIN_REQUESTS:
            break
        if recorder is not None:
            recorder.request = index
        references.append(reference_ms())
        request_ns = 0
        for position, call in enumerate(req.calls):
            code, out, ns = _call(main, call.argv, req.doc)
            request_ns += ns
            calls += 1
            decided += code != EXIT_UNKNOWN
            stdout_bytes += len(out.encode())
            try:
                if code is None:
                    raise Mismatch("raised")
                later = call.check(code, out)
            except Mismatch as exc:
                failures.add(index)
                errors.append(f"{' '.join(call.argv)}: {exc}")
                continue
            if later is not None:
                pending.append((index, position, code, out))
        latencies.append(request_ns / 1e6)
        busy_ns += request_ns
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.uninstall()

    # The lattice checks were dropped during the loop so that they would
    # not hold memory; the corpus is rebuilt from the seed to redo them.
    todo = {}
    for index, position, code, out in pending:
        todo.setdefault(index, []).append((position, code, out))
    for index, req in enumerate(corpus.requests(workload, seed)):
        if not todo:
            break
        for position, code, out in todo.pop(index, ()):
            call = req.calls[position]
            try:
                later = call.check(code, out)
                if later is not None:
                    later()
            except Mismatch as exc:
                failures.add(index)
                errors.append(f"{' '.join(call.argv)}: {exc}")
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "latencies_ms": latencies,
        "reference_ms": references,
        "calls": calls,
        "decided": decided,
        "stdout_bytes": stdout_bytes,
        "peak_rss_kb": rss_kb,
        "errors": errors[:10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--requests", type=int, help="run exactly this many requests")
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    args = parser.parse_args()
    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder()
    result = run(args.workload, args.seed, args.seconds, args.requests, recorder)
    if recorder is not None:
        result["layers"] = recorder.metrics()
        recorder.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
