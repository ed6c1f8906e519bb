"""Per-subcommand call counts from a spans file written by a traced run.

    python3 perfbench/analyze.py .perfbench/spans-small-session-1.jsonl.gz

For each subcommand, prints how often each wrapped function ran per call
of that subcommand, and its share of the subcommand's time (self time).
This is where counts such as "Smith forms per k0" are read.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict


def main(path: str) -> None:
    spans = []
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        for line in handle:
            spans.append(json.loads(line))
    roots = {}
    covered = Counter()
    for index, parent, _, name, start, end, info in spans:
        if parent >= 0:
            covered[parent] += end - start
        roots[index] = info if parent < 0 else roots[parent]
    calls = Counter()
    counts: dict[str, Counter] = defaultdict(Counter)
    self_ns: dict[str, Counter] = defaultdict(Counter)
    for index, parent, _, name, start, end, _ in spans:
        command = roots[index]
        if parent < 0:
            calls[command] += 1
            name = "(cli)"
        counts[command][name] += 1
        self_ns[command][name] += end - start - covered[index]
    for command in sorted(calls):
        total = sum(self_ns[command].values())
        print(f"{command}: {calls[command]} calls, {total / 1e6 / calls[command]:.2f} ms each")
        for name, n in counts[command].most_common():
            share = self_ns[command][name] / total
            print(f"  {name:28} {n / calls[command]:10.2f} per call {share:7.1%} of time")


if __name__ == "__main__":
    main(sys.argv[1])
