"""Golden stdout for the subcommands that run the semigroup search.

Each case is a command line on one of four graphs from ``helpers``
(Toeplitz, L(2,5), L(2,4) and the cascade), with its exit code and the
exact text it prints.  Every query runs at the default budget and at a
small ``--max-states`` that stops a search partway through a layer, so
witnesses, visited counts and partial classes are pinned byte for byte.
Queries whose default-budget run would enumerate 100000 states use a
finite class or a fast answer at the default budget instead.

The printing subcommands (``info`` and ``monoid``, text and JSON) are
pinned by the sha256 and byte length of their stdout on three seeded
300-vertex documents: a Leavitt and a Cohn graph with the default
separation, and a separated graph with random blocks and lambda.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from clk.cli import main

from helpers import cascade_doc, large_graph_doc, toeplitz_doc, two_block_doc

GRAPHS = {
    "toeplitz": toeplitz_doc(),
    "l25": two_block_doc(2, 5),
    "l24": two_block_doc(2, 4),
    "cascade": cascade_doc(),
}

GOLDEN = [
    (
        "monoid toeplitz --class 0,2",
        0,
        """\
class of 2·w: complete, 1 members, 1 states visited
  0,2
""",
    ),
    (
        "monoid toeplitz --class 1,1 --max-states 2",
        5,
        """\
class of v + w: partial, 3 members, 2 states visited
  1,0
  1,1
  1,2
""",
    ),
    (
        "monoid toeplitz --eq 1,0|1,3 --witness",
        0,
        """\
equivalent (3 steps)
  start 1,0
  E forward -> 1,1
  E forward -> 1,2
  E forward -> 1,3
""",
    ),
    (
        "monoid toeplitz --eq 1,0|1,3 --witness --max-states 2",
        5,
        """\
unknown (visited 2 states)
""",
    ),
    (
        "monoid toeplitz --closure 1,0|0,3",
        0,
        """\
yes: dominated by 1,3 in the class of 1·a
""",
    ),
    (
        "monoid toeplitz --closure 1,0|65,0 --max-states 2",
        5,
        """\
unknown up to multiple 64
""",
    ),
    (
        "monoid toeplitz --progenerator 0,1",
        3,
        """\
progenerator: no (up to bound)
  v: no-up-to-bound
  w: yes
""",
    ),
    (
        "monoid toeplitz --progenerator 1,0 --max-states 1",
        0,
        """\
progenerator: yes
  v: yes
  w: yes
""",
    ),
    (
        "type toeplitz",
        0,
        """\
type: no torsion (certificate: qspan-excluded)
""",
    ),
    (
        "type toeplitz --max-states 1",
        0,
        """\
type: no torsion (certificate: qspan-excluded)
""",
    ),
    (
        "corner toeplitz --vertices w",
        0,
        """\
corner {w}: certified IBN (isolated-support)
sufficient test: inconclusive
isolated support: holds
torsion: no torsion found up to 64 (all probes certified)
""",
    ),
    (
        "corner toeplitz --vertices w --max-states 1",
        0,
        """\
corner {w}: certified IBN (isolated-support)
sufficient test: inconclusive
isolated support: holds
torsion: no torsion found up to 64 (all probes certified)
""",
    ),
    (
        "monoid l25 --class 0,1",
        0,
        """\
class of w: complete, 1 members, 1 states visited
  0,1
""",
    ),
    (
        "monoid l25 --class 1,0 --max-states 2",
        5,
        """\
class of v: partial, 3 members, 2 states visited
  0,2
  0,5
  1,0
""",
    ),
    (
        "monoid l25 --eq 1,0|2,1 --witness",
        0,
        """\
equivalent (3 steps)
  start 1,0
  Y forward -> 0,5
  X backward -> 1,3
  X backward -> 2,1
""",
    ),
    (
        "monoid l25 --eq 1,0|2,1 --witness --max-states 3",
        5,
        """\
unknown (visited 3 states)
""",
    ),
    (
        "monoid l25 --closure 1,0|0,7",
        0,
        """\
yes: dominated by 0,8 in the class of 1·a
""",
    ),
    (
        "monoid l25 --closure 1,0|0,7 --max-states 3",
        0,
        """\
yes: dominated by 0,7 in the class of 2·a
""",
    ),
    (
        "monoid l25 --progenerator 1,0",
        0,
        """\
progenerator: yes
  v: yes
  w: yes
""",
    ),
    (
        "monoid l25 --progenerator 0,1 --max-states 3",
        0,
        """\
progenerator: yes
  v: yes
  w: yes
""",
    ),
    (
        "type l25",
        3,
        """\
type: torsion of type (1,2), witness of 3 steps
""",
    ),
    (
        "type l25 --max-states 3",
        3,
        """\
type: torsion of type (2,3), witness of 3 steps
""",
    ),
    (
        "corner l25 --vertices v",
        3,
        """\
corner {v}: non-IBN of type (1,4)
sufficient test: inconclusive
isolated support: fails
torsion: torsion of type (1,4), witness of 7 steps
""",
    ),
    (
        "corner l25 --vertices v --max-states 3",
        5,
        """\
corner {v}: unknown
sufficient test: inconclusive
isolated support: fails
torsion: no torsion found up to 64 (651 probes unresolved)
""",
    ),
    (
        "monoid l24 --class 0,1",
        0,
        """\
class of w: complete, 1 members, 1 states visited
  0,1
""",
    ),
    (
        "monoid l24 --class 2,0 --max-states 2",
        5,
        """\
class of 2·v: partial, 5 members, 2 states visited
  0,4
  0,6
  1,2
  1,4
  2,0
""",
    ),
    (
        "monoid l24 --eq 1,0|1,2 --witness",
        0,
        """\
equivalent (2 steps)
  start 1,0
  Y forward -> 0,4
  X backward -> 1,2
""",
    ),
    (
        "monoid l24 --eq 1,0|1,2 --witness --max-states 1",
        5,
        """\
unknown (visited 1 states)
""",
    ),
    (
        "monoid l24 --closure 0,1|1,0",
        0,
        """\
yes: dominated by 1,0 in the class of 2·a
""",
    ),
    (
        "monoid l24 --closure 0,1|1,0 --max-states 1",
        0,
        """\
yes: dominated by 1,0 in the class of 2·a
""",
    ),
    (
        "monoid l24 --progenerator 1,0",
        0,
        """\
progenerator: yes
  v: yes
  w: yes
""",
    ),
    (
        "monoid l24 --progenerator 0,1 --max-states 1",
        0,
        """\
progenerator: yes
  v: yes
  w: yes
""",
    ),
    (
        "type l24",
        3,
        """\
type: torsion of type (1,3), witness of 8 steps
""",
    ),
    (
        "type l24 --max-states 3",
        5,
        """\
type: no torsion found up to 64 (992 probes unresolved)
""",
    ),
    (
        "corner l24 --vertices v",
        3,
        """\
corner {v}: non-IBN of type (1,2)
sufficient test: inconclusive
isolated support: fails
torsion: torsion of type (1,2), witness of 3 steps
""",
    ),
    (
        "corner l24 --vertices v --max-states 3",
        3,
        """\
corner {v}: non-IBN of type (1,2)
sufficient test: inconclusive
isolated support: fails
torsion: torsion of type (1,2), witness of 3 steps
""",
    ),
    (
        "monoid cascade --class 1,0,0",
        0,
        """\
class of a: complete, 3 members, 3 states visited
  0,0,3
  0,1,1
  1,0,0
""",
    ),
    (
        "monoid cascade --class 1,0,0 --max-states 2",
        5,
        """\
class of a: partial, 3 members, 2 states visited
  0,0,3
  0,1,1
  1,0,0
""",
    ),
    (
        "monoid cascade --eq 1,0,0|0,0,3 --witness",
        0,
        """\
equivalent (2 steps)
  start 1,0,0
  X forward -> 0,1,1
  Y forward -> 0,0,3
""",
    ),
    (
        "monoid cascade --eq 1,0,0|0,0,3 --witness --max-states 1",
        5,
        """\
unknown (visited 1 states)
""",
    ),
    (
        "monoid cascade --closure 0,0,1|1,0,0",
        0,
        """\
yes: dominated by 1,0,0 in the class of 3·a
""",
    ),
    (
        "monoid cascade --closure 0,0,1|1,0,0 --max-states 1",
        5,
        """\
unknown up to multiple 64
""",
    ),
    (
        "monoid cascade --progenerator 1,0,0",
        0,
        """\
progenerator: yes
  a: yes
  b: yes
  c: yes
""",
    ),
    (
        "monoid cascade --progenerator 1,0,0 --max-states 1",
        0,
        """\
progenerator: yes
  a: yes
  b: yes
  c: yes
""",
    ),
    (
        "type cascade",
        0,
        """\
type: no torsion (certificate: qspan-excluded)
""",
    ),
    (
        "type cascade --max-states 1",
        0,
        """\
type: no torsion (certificate: qspan-excluded)
""",
    ),
    (
        "corner cascade --vertices c",
        0,
        """\
corner {c}: certified IBN (sufficient-test)
sufficient test: passed
isolated support: fails
torsion: no torsion found up to 64 (all probes certified)
""",
    ),
    (
        "corner cascade --vertices a,b --max-states 2",
        0,
        """\
corner {a, b}: certified IBN (sufficient-test)
sufficient test: passed
isolated support: fails
torsion: no torsion found up to 64 (all probes certified)
""",
    ),
    (
        "monoid cascade --progenerator 0,0,1 --max-states 1",
        5,
        """\
progenerator: unknown
  a: unknown
  b: yes
  c: yes
""",
    ),
    (
        "check toeplitz",
        0,
        """\
IBN: yes (Σv ∉ ℚ-span)
certificate: qspan-excluded
""",
    ),
    (
        "check l25",
        3,
        """\
IBN: no; type (1,2)
certificate: qspan-member; coefficients: 2, -1
""",
    ),
    (
        "check l25 --max-states 3",
        3,
        """\
IBN: no; type (2,3)
certificate: qspan-member; coefficients: 2, -1
""",
    ),
    (
        "check l24 --max-states 3",
        3,
        """\
IBN: no; type not determined within budget
certificate: qspan-member; coefficients: 5/2, -3/2
""",
    ),
]


@pytest.mark.parametrize(
    "command, code, stdout", GOLDEN, ids=[case[0] for case in GOLDEN]
)
def test_search_subcommand_stdout(capsys, monkeypatch, tmp_path, command, code, stdout):
    monkeypatch.setenv("CLK_COLOR", "never")
    subcommand, graph, *flags = command.split()
    path = tmp_path / f"{graph}.json"
    path.write_text(json.dumps(GRAPHS[graph]), encoding="utf-8")
    assert main([subcommand, str(path), *flags]) == code
    assert capsys.readouterr().out == stdout


# (kind, seed) of each 300-vertex document, then (kind, command, sha256 of
# stdout, byte length of stdout) per print.
LARGE_SEEDS = {"leavitt": 1, "cohn": 2, "separated": 3}
LARGE_PRINTS = [
    ("leavitt", "info", "2954b6f98e2af3c2b473749e8e1b1faca47b63d6127660a8706b772da6562d3a", 39091),
    ("leavitt", "info --json", "ef171fea505a96b2dce8fc78fd58a63854fc322af0283c37b73598734c30d85c", 390446),
    ("leavitt", "monoid", "498519666e69d29d1153295d5fafe5b7714b5cb9fa3875a4c3feada1c2fe47e5", 15407),
    ("leavitt", "monoid --json", "cc9b9968b454a2c2e32069a16535522dcf42e1cf47cb039e5d89f693f86cfaae", 343717),
    ("cohn", "info", "6f37f9045cd4f9d212c4c6612b0953477309b2bf009e1c4578354c5505b12347", 41883),
    ("cohn", "info --json", "e3c104a0df8d507d9a542a72b41c34f75133926876453197ce92c969a4cf8e27", 698703),
    ("cohn", "monoid", "75010cfe2d5ffd9019d2299c481dbc4b3d52b7fbe220041aa51ad0830f7059a1", 16050),
    ("cohn", "monoid --json", "9fbb5d0f4ba5ccc1442c071589eaec50e2ca88f74fa60da5d57ba8a24df11711", 655112),
    ("separated", "info", "f09547385e4d93d15eda7ed3a7ea341b3924abfcd67d5e81d84550a3fe286de7", 43389),
    ("separated", "info --json", "73101d3cf53c9642cadb2f6f0784ff71288846d78d50ab216ac734a5d1327053", 966819),
    ("separated", "monoid", "0994b0d8d3256567d54033f8b79b26ca6c670113fad4d7f3aadfb44acd73e206", 19501),
    ("separated", "monoid --json", "dc65ab5a392cc99954c39dc441f23e93cefd7471f59ea389437076e1855627f2", 920960),
]


@pytest.mark.parametrize(
    "kind, command, digest, size",
    LARGE_PRINTS,
    ids=[f"{kind} {command}" for kind, command, _, _ in LARGE_PRINTS],
)
def test_large_print_stdout(capsys, monkeypatch, tmp_path, kind, command, digest, size):
    monkeypatch.setenv("CLK_COLOR", "never")
    doc = large_graph_doc(random.Random(LARGE_SEEDS[kind]), 300, kind)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    subcommand, *flags = command.split()
    assert main([subcommand, str(path), *flags]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (digest, size)
