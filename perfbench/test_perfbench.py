"""Self-tests of the benchmark: corrupted answers count as failures,
traced counts repeat exactly, and the corpus is seeded and never repeats
a request.

Run with ``python3 perfbench/test_perfbench.py`` or
``python3 -m pytest perfbench/test_perfbench.py`` from the repository root.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import corpus  # noqa: E402
from model import k0_order  # noqa: E402
from oracle import Lattice  # noqa: E402
from spans import Recorder  # noqa: E402

SMALL = {"linalg-wide": 6, "small-session": 13, "kernel-deep": 5, "build-large": 4}


def _corrupt(text: str) -> str:
    """Change the last ASCII digit, or append a character if none."""
    match = None
    for match in re.finditer(r"[0-9]", text):
        pass
    if match is None:
        return text + "x"
    i = match.start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


class _Corrupting:
    """Stands in for the span recorder: wraps clk's main so that every
    call's stdout is altered after clk wrote it."""

    request = 0

    def install(self):
        pass

    def uninstall(self):
        pass

    def root(self, main):
        def corrupted(argv):
            code = main(argv)
            out = sys.stdout
            text = _corrupt(out.getvalue())
            out.seek(0)
            out.truncate()
            out.write(text)
            return code

        return corrupted


def test_honest_answers_pass():
    for workload, n in SMALL.items():
        result = child.run(workload, 1, 0, n)
        assert result["attempted"] == n
        assert result["failed"] == 0, (workload, result["errors"])


def test_corrupted_answers_fail():
    for workload, n in SMALL.items():
        result = child.run(workload, 1, 0, n, _Corrupting())
        assert result["attempted"] == n
        assert result["failed"] == n, (workload, result["failed"], n)


def test_traced_counts_repeat():
    def counts():
        recorder = Recorder()
        child.run("small-session", 3, 0, 14, recorder)
        return {
            k: v for k, v in recorder.metrics().items()
            if not k.endswith(("_ms", "_per_s"))
        }

    first, second = counts(), counts()
    assert first == second
    assert first["semigroup.probes"] > 1000 and first["linalg.smith_calls"] > 1000


def test_corpus_seeded_and_unique():
    for workload, n in SMALL.items():
        def take(seed):
            return [
                (r.doc, [c.argv for c in r.calls])
                for r in itertools.islice(corpus.requests(workload, seed), 3 * n)
            ]

        first = take(5)
        assert first == take(5)
        assert first != take(6)
        assert len({repr(r) for r in first}) == len(first)


def test_screening_order_matches_sympy():
    rng = random.Random(11)
    for _ in range(200):
        dim = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        t = [rng.randint(-3, 3) for _ in range(dim)]
        lattice = Lattice(SimpleNamespace(rows=lambda: rows, dim=dim))
        assert k0_order(rows, t) == lattice.order(t), (rows, t)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}", file=sys.__stdout__)
