"""Seeded request streams, one per workload.

``requests(workload, seed)`` yields an endless stream of requests.  The
same seed gives byte-identical documents and argv, and no request repeats
within a stream: a cache keyed on the whole request would never hit for a
CLI user, who starts a fresh process per call, so the benchmark never lets
one hit either.  clk sees only the document (on stdin) and argv.

Every workload interleaves three cost bands in one fixed pattern: light
requests (30%), a homogeneous middle band (50%) that holds the median,
and a homogeneous heavy band (20%) that holds p90.  The seed changes the
graphs, never the mix or the sizes that drive cost, so the quantiles of
one run are steady from seed to seed.

Why each workload exists, and the layer it is meant to load:

* ``linalg-wide``: ``k0``, ``k0 --element`` and Cohn-mode ``check`` on
  random Leavitt and Cohn graphs with 20-56 vertices and out-degree 1-3.
  A few large Smith forms and rational span solves, no search.  Leavitt
  ``check`` is left out: its torsion search is the kernel's cost.
* ``small-session``: a whole session (info, check, k0, type, every
  single-vertex corner, progenerator, render) on one graph with at most 5
  vertices: the worked examples first, then random graphs.  Thousands of
  tiny Smith forms and the torsion-probe loop.  A session, not a single
  query, is the unit because single queries are bimodal (2 ms or 150 ms).
* ``kernel-deep``: ``monoid --class/--eq/--closure/--progenerator`` on
  graphs with 3-8 generators, some with infinite classes.  Nearly all
  time is in the rewrite search; linear algebra is one tiny Smith form
  per ``--eq``.
* ``build-large``: ``info`` and ``monoid`` presentation prints, text and
  JSON, on graphs with 300-860 vertices.  Parse, build and output
  formatting dominate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle
from model import Model, fibers, k0_order

@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    check: Callable


@dataclass(frozen=True)
class Request:
    doc: bytes
    calls: tuple[Call, ...]


def requests(workload: str, seed: int) -> Iterator[Request]:
    rng = random.Random(f"{workload}/{seed}")
    seen = set()

    def fresh(req: Request) -> bool:
        """Record the request; False if the stream already holds it."""
        key = hashlib.sha256(req.doc + repr([c.argv for c in req.calls]).encode()).digest()
        if key in seen:
            return False
        seen.add(key)
        return True

    return _GENERATORS[workload](rng, fresh)


def _encode(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


def _vec(v) -> str:
    return ",".join(map(str, v))


def _digraph(rng, n: int, mode: str, degree=(1, 3)) -> dict:
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for v in vertices:
        for _ in range(rng.randint(*degree)):
            edges.append({"name": f"e{len(edges)}", "src": v, "tgt": rng.choice(vertices)})
    return {"vertices": vertices, "edges": edges, "mode": mode}


def _separated(rng, vertices, edges) -> dict:
    """Split each outgoing fiber into random blocks, random lambda."""
    partition = {}
    for fiber in fibers(vertices, [(e["name"], e["src"], e["tgt"]) for e in edges]).values():
        rng.shuffle(fiber)
        while fiber:
            size = rng.randint(1, len(fiber))
            partition[f"B{len(partition)}"] = fiber[:size]
            fiber = fiber[size:]
    lam = [b for b in partition if rng.random() < 0.6]
    return {"vertices": vertices, "edges": edges, "partition": partition, "lambda": lam}


def _small_graph(rng, n_vertices: int, max_edges: int) -> dict:
    vertices = [f"u{i}" for i in range(n_vertices)]
    edges = [
        {"name": f"e{i}", "src": rng.choice(vertices), "tgt": rng.choice(vertices)}
        for i in range(rng.randint(0, max_edges))
    ]
    return _separated(rng, vertices, edges)


BANDS = ("mid", "light", "mid", "heavy", "mid", "light", "mid", "heavy", "mid", "light")


def _banded(make, fresh) -> Iterator[Request]:
    """Fresh requests from ``make(band, index within band)`` in BANDS order."""
    counts = dict.fromkeys(BANDS, 0)
    for band in itertools.cycle(BANDS):
        req = make(band, counts[band])
        while not fresh(req):
            req = make(band, counts[band])
        yield req
        counts[band] += 1


# ---------------------------------------------------------------- linalg-wide

# (subcommand, mode, JSON output) of the light band, in turn.
_LINALG_LIGHT = (
    ("check", "cohn", False),
    ("element", "leavitt", True),
    ("k0", "cohn", True),
    ("k0", "leavitt", False),
    ("check", "cohn", True),
    ("element", "leavitt", False),
)


def _linalg_request(rng, kind: str, mode: str, as_json: bool, n: int,
                    degree=(1, 3), torsion_k0=False) -> Request:
    """With ``torsion_k0`` the graph is redrawn until K0 is finite, so
    that every k0 runs the same number of Smith forms (three when the
    unit has finite order, two otherwise)."""
    while True:
        doc = _digraph(rng, n, mode, degree)
        model = Model(doc)
        if not torsion_k0 or k0_order(model.rows(), model.unit_sum(model.vertices)):
            break
    argv = ["check" if kind == "check" else "k0", "-"] + (["--json"] if as_json else [])
    if kind == "check":
        check = oracle.check_check(model, as_json, known_ibn=True)
    elif kind == "k0":
        check = oracle.k0_check(model, as_json)
    else:
        element = tuple(rng.randint(-3, 3) for _ in range(model.dim))
        argv.append(f"--element={_vec(element)}")  # may start with "-"
        check = oracle.k0_check(model, as_json, element)
    return Request(_encode(doc), (Call(tuple(argv), check),))


def _linalg_wide(rng, fresh) -> Iterator[Request]:
    """Light: every kind at 20-26 vertices.  Middle: Leavitt ``k0`` at
    40-42 vertices.  Heavy: Leavitt ``k0 --element`` at 54-56 vertices.
    Middle and heavy graphs have out-degree 2, the middle of 1-3, and a
    finite K0 (a little over half of them do)."""

    def make(band, i):
        if band == "light":
            return _linalg_request(rng, *_LINALG_LIGHT[i % 6], rng.randint(20, 26))
        kind, n = ("k0", rng.randint(40, 42)) if band == "mid" else ("element", rng.randint(54, 56))
        return _linalg_request(rng, kind, "leavitt", i % 2 == 1, n, (2, 2), torsion_k0=True)

    return _banded(make, fresh)


# -------------------------------------------------------------- small-session

SESSION_STATES, SESSION_MULTIPLE = 2000, 32
_SESSION_BUDGET = ("--max-states", str(SESSION_STATES), "--max-multiple", str(SESSION_MULTIPLE))
# Light sessions may expand at most this many search states.  Without a
# limit about one random session in fifty spends 10-20 s in torsion
# probes that all run out of budget; that cost is the rewrite kernel's,
# which kernel-deep measures.
SESSION_WORK_LIMIT = 2000


def _edges(pairs) -> list:
    return [{"name": n, "src": s, "tgt": t} for n, s, t in pairs]


def _two_block(m: int, n: int) -> dict:
    edges = _edges([(f"e{i}", "v", "w") for i in range(m)] + [(f"f{i}", "v", "w") for i in range(n)])
    partition = {"X": [f"e{i}" for i in range(m)], "Y": [f"f{i}" for i in range(n)]}
    return {"vertices": ["v", "w"], "edges": edges, "partition": partition, "lambda": ["X", "Y"]}


def _rose(n: int) -> dict:
    edges = _edges([(f"e{i}", "v", "v") for i in range(n)])
    return {"vertices": ["v"], "edges": edges, "partition": {"R": [e["name"] for e in edges]},
            "lambda": ["R"]}


def worked_examples() -> list[tuple[dict, dict]]:
    """(document, known answers) from the README and the acceptance suite."""
    toeplitz = {
        "vertices": ["v", "w"],
        "edges": _edges([("e", "v", "v"), ("f", "v", "w")]),
        "partition": {"E": ["e", "f"]},
        "lambda": ["E"],
    }
    cascade = {
        "vertices": ["a", "b", "c"],
        "edges": _edges([("p", "a", "b"), ("q", "a", "c"), ("r", "b", "c"), ("s", "b", "c")]),
        "partition": {"X": ["p", "q"], "Y": ["r", "s"]},
        "lambda": ["X", "Y"],
    }
    examples = [
        (toeplitz, {
            "ibn": True,
            "k0": (1, []),
            "corner": {
                "v": {"kind": "certified-ibn", "reason": "sufficient-test"},
                "w": {"kind": "certified-ibn", "reason": "isolated-support"},
            },
        }),
        (_two_block(2, 5), {
            "ibn": False, "type": (1, 2), "k0": (0, [3]),
            "corner": {"w": {"kind": "non-ibn", "type": [2, 5]}},
        }),
        (_two_block(2, 4), {"corner": {"v": {"kind": "non-ibn", "type": [1, 2]}}}),
        (cascade, {}),
    ]
    for n in range(2, 9):
        examples.append((_rose(n), {
            "ibn": False, "type": (1, n), "k0": (0, [n - 1] if n > 2 else []),
        }))
    return examples


def session(doc: dict, known: dict, screened) -> Request:
    model = Model(doc)
    unit = model.unit_sum(model.vertices)
    b, k = _SESSION_BUDGET, SESSION_MULTIPLE
    corners = known.get("corner", {})
    calls = [
        Call(("info", "-"), oracle.text_check(model.info_text(), oracle.EXIT_OK)),
        Call(("check", "-", "--json") + b,
             oracle.check_check(model, True, known.get("type"), known.get("ibn"))),
        Call(("k0", "-", "--json"), oracle.k0_check(model, True, known=known.get("k0"))),
        Call(("type", "-", "--json") + b, oracle.type_check(model, k, known.get("type"))),
    ]
    calls += [
        Call(("corner", "-", "--json", "--vertices", v) + b,
             oracle.corner_check(model, v, k, corners.get(v)))
        for v in model.vertices
    ]
    calls.append(Call(("monoid", "-", "--json", "--progenerator", _vec(unit)) + b,
                      oracle.progenerator_check(model, unit, k, screened)))
    if model.dim == 2:
        calls.append(Call(("render", "-", "--components"), oracle.render_check(model)))
    return Request(_encode(doc), tuple(calls))


def session_screen(model: Model, limit: int):
    """(probes, states, progenerator answers) the model predicts for a
    session, or None when the search states exceed ``limit``."""
    cap, k = SESSION_STATES, SESSION_MULTIPLE
    unit = model.unit_sum(model.vertices)
    probes = states = 0
    targets = [model.unit_sum([v]) for v in model.vertices]
    if k0_order(model.rows(), unit) is not None:
        targets += [unit, unit]  # not IBN: check and type both search
    for a in targets:
        work = model.torsion_work(a, cap, k, limit - states)
        if work is None:
            return None
        probes += work[0]
        states += work[1]
    screened = {}
    for g in model.generators:
        screened[g] = model.closure(unit, model.unit(g), cap, k)
        states += screened[g][3]
        if states > limit:
            return None
    return probes, states, screened


# (vertices, generators, relations, probes) of middle and heavy sessions:
# one block per vertex, and every corner runs all 496 probes.
_SESSION_SHAPES = {"mid": (3, 4, 3, 3 * 496), "heavy": (4, 5, 4, 4 * 496)}


def _session_for(rng, band: str) -> Request:
    while True:
        if band == "light":
            doc = _small_graph(rng, rng.randint(1, 5), 8)
            screen = session_screen(Model(doc), SESSION_WORK_LIMIT)
            if screen is not None and screen[0] <= 600:
                return session(doc, {}, screen[2])
            continue
        vertices, dim, relations, probes = _SESSION_SHAPES[band]
        doc = _small_graph(rng, vertices, 6)
        model = Model(doc)
        if (model.dim, len(model.relations)) != (dim, relations):
            continue
        screen = session_screen(model, 500)
        if screen is not None and screen[0] == probes:
            return session(doc, {}, screen[2])


def _small_session(rng, fresh) -> Iterator[Request]:
    for doc, known in worked_examples():
        req = session(doc, known, session_screen(Model(doc), float("inf"))[2])
        fresh(req)
        yield req
    yield from _banded(lambda band, i: _session_for(rng, band), fresh)


# ---------------------------------------------------------------- kernel-deep

DEEP_STATES, DEEP_MULTIPLE = 10_000, 4
_DEEP_BUDGET = ("--max-states", str(DEEP_STATES), "--max-multiple", str(DEEP_MULTIPLE))
# Middle and heavy requests run on graphs with this many generators and
# relations, so that a search state costs about the same in every one.
_DEEP_SHAPE = (6, 5)


def _deep_graph(rng, shape=None) -> tuple[dict, Model]:
    """A random separated graph with 3-8 generators, or exactly the
    (generators, relations) ``shape``; loops and cycles make many of its
    classes infinite."""
    while True:
        doc = _small_graph(rng, rng.randint(2, 5), 9)
        model = Model(doc)
        if shape:
            if (model.dim, len(model.relations)) == shape:
                return doc, model
        elif model.relations and 3 <= model.dim <= 8:
            return doc, model


def _dag_graph(rng) -> tuple[dict, Model]:
    """An acyclic graph with one block per vertex and 3-8 generators.

    Weights w(sink) = 1, w(v) = sum of w over its targets (plus 1 for a
    non-distinguished block, whose generator gets weight 1) are kept by
    every rewrite, so every class is finite: closure searches run to
    completion.
    """
    while True:
        n = rng.randint(3, 6)
        vertices = [f"u{i}" for i in range(n)]
        edges, partition = [], {}
        for i in range(n - 1):
            if i and rng.random() < 0.15:
                continue
            block = []
            for _ in range(rng.randint(1, 3)):
                block.append(f"e{len(edges)}")
                edges.append({"name": block[-1], "src": vertices[i],
                              "tgt": vertices[rng.randint(i + 1, n - 1)]})
            partition[f"B{len(partition)}"] = block
        lam = [b for b in partition if rng.random() < 0.7]
        doc = {"vertices": vertices, "edges": edges, "partition": partition, "lambda": lam}
        model = Model(doc)
        if 3 <= model.dim <= 8:
            return doc, model


def _small_vector(rng, dim: int, high: int) -> tuple:
    while True:
        v = tuple(rng.randint(0, high) for _ in range(dim))
        if any(v):
            return v


def _deep_class(rng) -> Request:
    """``--class`` on a class that fills the whole state budget, trying
    65000-85000 rewrites on the way."""
    while True:
        doc, model = _deep_graph(rng, _DEEP_SHAPE)
        x = _small_vector(rng, model.dim, 2)
        complete, members, expanded, rewrites = model.enumerate_class(x, DEEP_STATES)
        if not complete and 65_000 <= rewrites <= 85_000:
            text = oracle.class_text(model, x, complete, members, expanded)
            argv = ("monoid", "-", "--class", _vec(x)) + _DEEP_BUDGET
            return Request(_encode(doc), (Call(argv, oracle.text_check(text, oracle.EXIT_UNKNOWN)),))


def _deep_eq(rng, graph, low: int, high: int) -> Request:
    """``--eq X|Y`` on a pair joined by a random rewrite walk, so that
    both have the same K0 image and the search has to find the path; the
    search expands between ``low`` and ``high`` states."""
    while True:
        doc, model = graph(rng)
        for _ in range(20):
            x = _small_vector(rng, model.dim, 2)
            y = model.random_walk(rng, x, rng.randint(6, 30))
            if y != x and low <= model.meet(x, y, high + 1)[1] <= high:
                argv = ("monoid", "-", "--witness", "--eq", f"{_vec(x)}|{_vec(y)}")
                check = oracle.eq_check(model, x, y, DEEP_STATES)
                return Request(_encode(doc), (Call(argv + _DEEP_BUDGET, check),))


def _deep_closure(rng, progenerator: bool) -> Request:
    """``--closure`` or ``--progenerator`` on a finite-class graph, with
    100-400 states expanded."""
    k, low, high = DEEP_MULTIPLE, 100, 400
    while True:
        doc, model = _dag_graph(rng)
        for _ in range(10):
            a = _small_vector(rng, model.dim, 2)
            screened, total = {}, 0
            for g in model.generators:
                limit = high - total if progenerator else high
                screened[g] = model.closure(a, model.unit(g), DEEP_STATES, k, limit)
                if screened[g] is None:
                    if progenerator:
                        break
                    continue
                total += screened[g][3]
            else:
                if progenerator and total >= low:
                    argv = ("monoid", "-", "--json", "--progenerator", _vec(a))
                    check = oracle.progenerator_check(model, a, k, screened)
                    return Request(_encode(doc), (Call(argv + _DEEP_BUDGET, check),))
                fitting = [g for g, s in screened.items() if s and s[3] >= low]
                if fitting and not progenerator:
                    g = rng.choice(fitting)
                    y = model.unit(g)
                    argv = ("monoid", "-", "--closure", f"{_vec(a)}|{_vec(y)}")
                    check = oracle.closure_check(model, a, y, k, screened[g])
                    return Request(_encode(doc), (Call(argv + _DEEP_BUDGET, check),))


def _kernel_deep(rng, fresh) -> Iterator[Request]:
    """Light: ``--closure``, ``--progenerator`` and short ``--eq`` searches
    on finite-class graphs.  Middle: ``--eq`` searches of 500-1000 states.
    Heavy: ``--class`` on classes larger than the 10000-state budget."""

    def make(band, i):
        if band == "light":
            if i % 3 == 2:
                return _deep_eq(rng, _dag_graph, 30, 300)
            return _deep_closure(rng, progenerator=i % 3 == 1)
        if band == "mid":
            return _deep_eq(rng, lambda r: _deep_graph(r, _DEEP_SHAPE), 500, 1000)
        return _deep_class(rng)

    return _banded(make, fresh)


# ---------------------------------------------------------------- build-large

_BUILD_KINDS = (("info",), ("info", "--json"), ("monoid",), ("monoid", "--json"))


def _build_request(rng, kind, n: int, mode: str) -> Request:
    base = _digraph(rng, n, "cohn" if mode == "cohn" else "leavitt")
    doc = _separated(rng, base["vertices"], base["edges"]) if mode == "separated" else base
    model = Model(doc)
    if kind[0] == "info":
        text = model.info_json() if len(kind) > 1 else model.info_text()
    else:
        text = model.presentation_json() + "\n" if len(kind) > 1 else model.monoid_text()
    data = text.encode()
    check = oracle.digest_check(hashlib.sha256(data).hexdigest(), len(data))
    return Request(_encode(doc), (Call((kind[0], "-") + kind[1:], check),))


def _build_large(rng, fresh) -> Iterator[Request]:
    """Light: every kind and document form at 300-330 vertices.  Middle:
    text ``info`` at 560-580 vertices.  Heavy: ``monoid --json`` at
    840-860 vertices.  Middle and heavy documents use the default Leavitt
    separation, so the output width is the same in every one."""

    def make(band, i):
        if band == "light":
            mode = ("leavitt", "cohn", "separated")[i % 3]
            return _build_request(rng, _BUILD_KINDS[i % 4], rng.randint(300, 330), mode)
        if band == "mid":
            return _build_request(rng, _BUILD_KINDS[0], rng.randint(560, 580), "leavitt")
        return _build_request(rng, _BUILD_KINDS[3], rng.randint(840, 860), "leavitt")

    return _banded(make, fresh)


_GENERATORS = {
    "linalg-wide": _linalg_wide,
    "small-session": _small_session,
    "kernel-deep": _kernel_deep,
    "build-large": _build_large,
}
WORKLOADS = tuple(_GENERATORS)
