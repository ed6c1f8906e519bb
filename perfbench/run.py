"""clk's benchmark: per-request CLI latency on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

The workloads and the layer each one loads are described in corpus.py;
BENCHMARK.json lists them with the metrics.  Each run starts fresh child
interpreters one at a time (never more than this process and one child).

With ``--trace 0``: eleven children time ``import clk.cli`` plus
``build_parser()`` (``setup_s``, the median), five before and six after
one child that runs the workload untraced for S seconds of request time
(at least 100 requests) and reports latency quantiles, throughput,
decided share and peak memory.  Request times are scaled for machine
speed as reference.py describes.

With ``--trace 1``: one child runs a fixed number of requests untraced and
a second runs the same requests with spans around clk's public functions
(spans.py); the second gives the per-layer metrics, the ratio of the two
request totals the tracing overhead.  Spans are written to ``.perfbench/``
in the checkout; ``perfbench/analyze.py`` breaks them down by subcommand.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A readable summary, with failed_frac, goes to stderr.  The run
exits 1 or 2 without a result line if clk's sources are missing or a
child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from reference import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170
# Requests in each half of a traced run: fixed, so that two traced runs
# with the same seed count exactly the same work.
TRACE_REQUESTS = {
    "linalg-wide": 40,
    "small-session": 61,
    "kernel-deep": 80,
    "build-large": 40,
}
SETUP_CODE = (
    "import time\n"
    "from reference import reference_ms, scaled_once\n"
    "refs = [reference_ms() for _ in range(5)]\n"
    "start = time.perf_counter()\n"
    "import clk.cli\n"
    "clk.cli.build_parser()\n"
    "took = time.perf_counter() - start\n"
    "refs += [reference_ms() for _ in range(5)]\n"
    "print(scaled_once(took, refs))\n"
)


def _env() -> dict:
    env = dict(os.environ, CLK_COLOR="never", PYTHONHASHSEED="0")
    paths = [str(ROOT / "src"), str(HERE)]
    paths += [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(argv: list[str]) -> str:
    """Run a child interpreter to completion; its stdout's last line."""
    proc = subprocess.run(
        [sys.executable] + argv,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(runs: int) -> list[float]:
    """Import-and-parser times of ``runs`` fresh interpreters."""
    return [float(_child(["-c", SETUP_CODE])) for _ in range(runs)]


def workload(name: str, seed: int, *extra: str) -> dict:
    argv = [str(HERE / "child.py"), "--workload", name, "--seed", str(seed), *extra]
    return json.loads(_child(argv))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: int) -> tuple[dict, dict]:
    # The first set-up run writes the bytecode caches a user would have and
    # is not counted.  The counted ones sit on both sides of the workload,
    # so that their median does not hang on one moment of machine load.
    setup_seconds(1)
    setup = setup_seconds(SETUP_RUNS // 2)
    raw = workload(name, seed, "--seconds", str(seconds))
    setup += setup_seconds(SETUP_RUNS - SETUP_RUNS // 2)
    lat = scaled(raw["latencies_ms"], raw["reference_ms"])
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "latency_p50_ms": _metric(statistics.median(lat), "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(lat, n=10)[-1], "ms"),
        "throughput_rps": _metric(len(lat) / (sum(lat) / 1e3), "req/s"),
        "decided_frac": _metric(raw["decided"] / raw["calls"], "ratio"),
        "peak_rss_mb": _metric(raw["peak_rss_kb"] / 1024, "MB"),
    }
    return raw, metrics


def traced(name: str, seed: int) -> tuple[dict, dict]:
    count = str(TRACE_REQUESTS[name])
    base = workload(name, seed, "--requests", count)
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    spans = spans_dir / f"spans-{name}-{seed}.jsonl.gz"
    raw = workload(name, seed, "--requests", count, "--spans", str(spans))
    layers = raw["layers"]
    layers["cli.stdout_kb"] = raw["stdout_bytes"] / 1024
    # Both children ran the same requests, so compare them request by
    # request; the median ratio ignores the moments one of them was unlucky.
    pairs = zip(scaled(raw["latencies_ms"], raw["reference_ms"]),
                scaled(base["latencies_ms"], base["reference_ms"]))
    layers["trace.overhead_frac"] = statistics.median(t / u for t, u in pairs) - 1
    metrics = {key: _metric(value, UNITS[key]) for key, value in layers.items()}
    raw["attempted"] += base["attempted"]
    raw["failed"] += base["failed"]
    raw["errors"] += base["errors"]
    return raw, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "clk" / "cli.py").is_file():
        print(f"error: clk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            raw, metrics = traced(args.workload, args.seed)
        else:
            raw, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: child interpreter failed: {exc}", file=sys.stderr)
        return 1
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in listed):
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    for error in raw["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {raw['attempted']} requests, "
        f"failed_frac {raw['failed'] / raw['attempted']:.4f}",
        file=sys.stderr,
    )
    for key, m in metrics.items():
        print(f"  {key:32} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
