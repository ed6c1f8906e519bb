"""Shared builders, independent oracles, and randomized property cases.

The property-case functions each run one randomized check and report
whether the interesting premise was actually exercised, so the callers
can both run small smoke loops and drive the large acceptance suites
from the same code.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

import clk
from clk import (
    Budget,
    Equivalent,
    Finite,
    Inequivalent,
    Step,
    Torsion,
    build_presentation,
    class_enumerate,
    element_order_in_quotient,
    equivalent,
    full_unit_sum,
    graph_from_data,
    qspan_contains,
    relation_matrix,
    replay_witness,
    torsion_type,
    zspan_solve,
)
from clk.presentation import vec_add, vec_leq, vec_sub

# ---------------------------------------------------------------- documents


def toeplitz_doc() -> dict:
    return {
        "vertices": ["v", "w"],
        "edges": [
            {"name": "e", "src": "v", "tgt": "v"},
            {"name": "f", "src": "v", "tgt": "w"},
        ],
        "partition": {"E": ["e", "f"]},
        "lambda": ["E"],
    }


def two_block_doc(m: int, n: int) -> dict:
    """Two vertices, one block of m parallel edges and one of n, all v->w,
    both blocks distinguished."""
    edges = [{"name": f"e{i}", "src": "v", "tgt": "w"} for i in range(m)]
    edges += [{"name": f"f{i}", "src": "v", "tgt": "w"} for i in range(n)]
    return {
        "vertices": ["v", "w"],
        "edges": edges,
        "partition": {
            "X": [f"e{i}" for i in range(m)],
            "Y": [f"f{i}" for i in range(n)],
        },
        "lambda": ["X", "Y"],
    }


def rose_doc(n: int) -> dict:
    return {
        "vertices": ["v"],
        "edges": [{"name": f"e{i}", "src": "v", "tgt": "v"} for i in range(n)],
        "partition": {"R": [f"e{i}" for i in range(n)]},
        "lambda": ["R"],
    }


def edgeless_doc(k: int) -> dict:
    return {"vertices": [f"u{i}" for i in range(k)], "edges": []}


def cascade_doc(lam=("X", "Y")) -> dict:
    """Three vertices a -> b -> c with a second a -> c edge: relations
    a = b + c and b = 2c when both blocks are distinguished."""
    return {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"name": "p", "src": "a", "tgt": "b"},
            {"name": "q", "src": "a", "tgt": "c"},
            {"name": "r", "src": "b", "tgt": "c"},
            {"name": "s", "src": "b", "tgt": "c"},
        ],
        "partition": {"X": ["p", "q"], "Y": ["r", "s"]},
        "lambda": list(lam),
    }


def presentation_of(doc: dict):
    return build_presentation(graph_from_data(doc))


def child_env() -> dict:
    """Environment for a `python -m clk` child process.

    Everything is cleared except colour, a fixed PATH and the import path
    of the `clk` package this process imported, so the child runs the same
    code whether clk is installed or found through PYTHONPATH, and its
    output cannot depend on the caller's environment.
    """
    package_root = os.path.dirname(os.path.dirname(clk.__file__))
    return {
        "CLK_COLOR": "never",
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": package_root,
    }


# ----------------------------------------------------------------- oracles


def det(matrix) -> Fraction:
    """Determinant by exact rational elimination; independent of the
    package's integer routines."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return result


def row_combination(matrix, coeffs, width=None):
    if width is None:
        width = len(matrix[0]) if matrix else 0
    out = [0] * width
    for c, row in zip(coeffs, matrix):
        for j, a in enumerate(row):
            out[j] += c * a
    return tuple(out)


def brute_zspan(matrix, target, bound: int = 4):
    """Exhaustive small-coefficient search for an integer combination."""
    r = len(matrix)
    if r == 0:
        return () if not any(target) else None
    for c in product(range(-bound, bound + 1), repeat=r):
        if row_combination(matrix, c) == tuple(target):
            return c
    return None


# -------------------------------------------------------------- generators


def random_matrix(rng, max_rows=4, max_cols=4, lo=-9, hi=9):
    r = rng.randint(0, max_rows)
    c = rng.randint(1, max_cols)
    return (
        tuple(tuple(rng.randint(lo, hi) for _ in range(c)) for _ in range(r)),
        c,
    )


def random_vector(rng, dim, lo=0, hi=3, nonzero=False):
    while True:
        v = tuple(rng.randint(lo, hi) for _ in range(dim))
        if not nonzero or any(v):
            return v


def random_graph_doc(rng, max_vertices=4, max_edges=8, lam="random") -> dict:
    nv = rng.randint(1, max_vertices)
    vertices = [f"u{i}" for i in range(nv)]
    ne = rng.randint(0, max_edges)
    edges = [
        {"name": f"e{i}", "src": rng.choice(vertices), "tgt": rng.choice(vertices)}
        for i in range(ne)
    ]
    partition = {}
    count = 0
    for v in vertices:
        fiber = [e["name"] for e in edges if e["src"] == v]
        rng.shuffle(fiber)
        while fiber:
            size = rng.randint(1, len(fiber))
            partition[f"B{count}"] = fiber[:size]
            count += 1
            fiber = fiber[size:]
    names = list(partition)
    if lam == "all":
        lam_list = names
    elif lam == "empty":
        lam_list = []
    else:
        lam_list = [b for b in names if rng.random() < 0.6]
    return {
        "vertices": vertices,
        "edges": edges,
        "partition": partition,
        "lambda": lam_list,
    }


def random_presentation(rng, max_vertices=3, max_edges=5, lam="random"):
    return presentation_of(random_graph_doc(rng, max_vertices, max_edges, lam))


def large_graph_doc(rng, n: int, kind: str) -> dict:
    """A seeded n-vertex document for printing tests.

    About one vertex in ten is a sink; the others get 1-4 out-edges, with
    loops and parallel edges, and the edge list is shuffled so fibers
    interleave.  One vertex is named ``s(v1)``, the default name of v1's
    block.  ``kind`` is "leavitt" or "cohn" (no partition, the default
    separation in that mode) or "separated" (random blocks inside each
    fiber, random lambda).
    """
    vertices = [f"v{i}" for i in range(n)]
    vertices[n // 2] = "s(v1)"
    pairs = []
    for src in vertices:
        if rng.random() < 0.1:
            continue
        targets = [rng.choice(vertices) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            targets.append(src)
        if rng.random() < 0.2:
            targets.append(targets[0])
        pairs += [(src, tgt) for tgt in targets]
    rng.shuffle(pairs)
    edges = [
        {"name": f"e{i}", "src": src, "tgt": tgt} for i, (src, tgt) in enumerate(pairs)
    ]
    if kind != "separated":
        return {"vertices": vertices, "edges": edges, "mode": kind}
    fibers: dict[str, list[str]] = {}
    for e in edges:
        fibers.setdefault(e["src"], []).append(e["name"])
    partition = {}
    for fiber in fibers.values():
        rng.shuffle(fiber)
        while fiber:
            size = rng.randint(1, len(fiber))
            partition[f"B{len(partition)}"] = fiber[:size]
            fiber = fiber[size:]
    lam = [b for b in partition if rng.random() < 0.6]
    return {"vertices": vertices, "edges": edges, "partition": partition, "lambda": lam}


# --------------------------------------------------------- property cases
# Each runs one randomized check; the return value says whether the
# non-vacuous branch was exercised.


def box_components(p, bound: int):
    """Union-find over all nonzero vectors in [0, bound]^dim, joined by
    every in-box relation translate.  Independent of the search engine:
    box-connected vectors are certainly equivalent."""
    dim = p.dim
    nodes = [v for v in product(range(bound + 1), repeat=dim) if any(v)]
    parent = {n: n for n in nodes}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for rel in p.relations:
        if rel.lhs == rel.rhs:
            continue
        highs = [max(a, b) for a, b in zip(rel.lhs, rel.rhs)]
        ranges = [range(bound - h + 1) for h in highs]
        for t in product(*ranges):
            u = find(vec_add(rel.lhs, t))
            v = find(vec_add(rel.rhs, t))
            if u != v:
                parent[u] = v
    return {n: find(n) for n in nodes}


def engine_vs_box_case(rng, budget=Budget(3_000, 8)) -> bool:
    """The bounded union-find oracle and the search engine must agree:
    box-connected pairs are never called inequivalent, and inequivalent
    verdicts always show as disconnected in the box."""
    while True:
        p = random_presentation(rng, max_vertices=2, max_edges=4)
        if p.dim <= 3:
            break
    bound = 4
    roots = box_components(p, bound)
    nodes = sorted(roots)
    x = nodes[rng.randrange(len(nodes))]
    y = nodes[rng.randrange(len(nodes))]
    out = equivalent(p, x, y, budget)
    connected = roots[x] == roots[y]
    if connected:
        assert not isinstance(out, Inequivalent), (p.relations, x, y)
    if isinstance(out, Inequivalent):
        assert not connected, (p.relations, x, y)
    return connected and x != y


def snf_case(rng) -> bool:
    from clk import smith_normal_form

    matrix, cols = random_matrix(rng)
    res = smith_normal_form(matrix, cols=cols)
    r = len(matrix)
    # U M V == D is asserted inside; re-check shape facts and unimodularity.
    diag = res.diagonal
    nz = [d for d in diag if d]
    assert all(d >= 0 for d in diag)
    assert list(diag[: len(nz)]) == nz
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    assert res.cokernel_free_rank == cols - len(nz)
    if r:
        assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    # D really equals U @ M @ V.
    um = [
        [sum(res.U[i][k] * matrix[k][j] for k in range(r)) for j in range(cols)]
        for i in range(r)
    ]
    umv = [
        [sum(um[i][k] * res.V[k][j] for k in range(cols)) for j in range(cols)]
        for i in range(r)
    ]
    assert tuple(tuple(row) for row in umv) == res.D
    return True


def dichotomy_case(rng) -> bool:
    matrix, cols = random_matrix(rng, max_rows=3, max_cols=3, lo=-5, hi=5)
    z = random_vector(rng, cols, lo=-5, hi=5)
    contains = qspan_contains(matrix, z)
    order = element_order_in_quotient(matrix, z)
    assert contains == isinstance(order, Finite)
    if isinstance(order, Finite):
        k = order.order
        assert zspan_solve(matrix, tuple(k * t for t in z)) is not None
        if k <= 20:
            for j in range(1, k):
                assert zspan_solve(matrix, tuple(j * t for t in z)) is None
        return True
    return False


def zspan_cross_case(rng) -> bool:
    matrix, cols = random_matrix(rng, max_rows=3, max_cols=3, lo=-3, hi=3)
    z = random_vector(rng, cols, lo=-4, hi=4)
    got = zspan_solve(matrix, z)
    brute = brute_zspan(matrix, z, bound=3)
    if got is None:
        assert brute is None
        return False
    assert row_combination(matrix, got, len(z)) == tuple(z)
    return True


def soundness_case(rng, budget=Budget(2_000, 8)) -> bool:
    """Equivalent witnesses replay; inequivalence certificates re-verify."""
    p = random_presentation(rng)
    x = random_vector(rng, p.dim, nonzero=True)
    y = random_vector(rng, p.dim, nonzero=True)
    out = equivalent(p, x, y, budget)
    if isinstance(out, Equivalent):
        assert replay_witness(p, x, out.witness) == y
        assert zspan_solve(relation_matrix(p), vec_sub(x, y)) is not None
        assert isinstance(equivalent(p, y, x, budget), Equivalent)  # symmetry
        return True
    if isinstance(out, Inequivalent):
        if out.certificate == "k0-mismatch":
            assert zspan_solve(relation_matrix(p), vec_sub(x, y)) is None
        else:
            seed, other = (x, y) if out.complete_side == "left" else (y, x)
            enum = class_enumerate(p, seed, budget)
            assert enum.complete
            assert other not in enum.members
    return False


def translation_case(rng, budget=Budget(2_000, 8)) -> bool:
    p = random_presentation(rng)
    x = random_vector(rng, p.dim, nonzero=True)
    y = random_vector(rng, p.dim, nonzero=True)
    out = equivalent(p, x, y, budget)
    if not isinstance(out, Equivalent):
        return False
    t = random_vector(rng, p.dim, hi=2)
    xt, yt = vec_add(x, t), vec_add(y, t)
    shifted = tuple(
        Step(s.relation, s.forward, vec_add(s.result, t)) for s in out.witness
    )
    assert replay_witness(p, xt, shifted) == yt
    if any(t):
        assert not isinstance(equivalent(p, xt, yt, budget), Inequivalent)
    return True


def torsion_order_case(rng, budget=Budget(1_500, 6)) -> bool:
    p = random_presentation(rng)
    a = full_unit_sum(p) if rng.random() < 0.6 else random_vector(
        rng, p.dim, hi=2, nonzero=True
    )
    t = torsion_type(p, a, budget)
    if not isinstance(t, Torsion):
        return False
    order = element_order_in_quotient(relation_matrix(p), a)
    assert isinstance(order, Finite)
    assert (t.n - t.m) % order.order == 0
    if a == full_unit_sum(p) and not t.prior_unknown_probes:
        assert order.order == t.n - t.m
    return True


def lambda_pi_agreement_case(rng) -> bool:
    from clk import qspan_solve as qsolve

    p = random_presentation(rng, max_vertices=4, max_edges=8)
    lambda_rows = tuple(rel.row for rel in p.relations if rel.in_lambda)
    matrix = relation_matrix(p)
    verts = [v for v in p.graph.vertices if rng.random() < 0.7]
    if not verts:
        verts = [p.graph.vertices[0]]
    target = tuple(1 if g in verts else 0 for g in p.generators)
    assert (qsolve(matrix, target) is None) == (qsolve(lambda_rows, target) is None)
    return True


def closure_axioms_case(rng, budget=Budget(300, 4)) -> bool:
    """Closure axioms on the classes meeting a small window.

    Domination x <= (some member of class(s)) is decided by bounded
    enumeration; the case only counts when every query resolved.
    """
    while True:
        p = random_presentation(rng, max_vertices=2, max_edges=4)
        if p.dim <= 3:
            break
    window = [v for v in product(range(3), repeat=p.dim) if any(v)]
    cache = {}

    def enum(s):
        if s not in cache:
            cache[s] = class_enumerate(p, s, budget)
        return cache[s]

    def dominated(x, s):
        e = enum(s)
        if any(vec_leq(x, u) for u in e.members):
            return True
        return False if e.complete else None

    def closure(elements):
        out = set()
        for x in window:
            for s in elements:
                d = dominated(x, s)
                if d is None:
                    return None
                if d:
                    out.add(x)
                    break
        return out

    a_set = {window[rng.randrange(len(window))] for _ in range(rng.randint(1, 3))}
    b_set = {window[rng.randrange(len(window))] for _ in range(rng.randint(1, 3))}
    cl_a = closure(a_set)
    cl_b = closure(b_set)
    cl_ab = closure(a_set | b_set)
    if cl_a is None or cl_b is None or cl_ab is None:
        return False
    assert a_set <= cl_a                      # extensive
    cl_cl_a = closure(cl_a)
    if cl_cl_a is None:
        return False
    assert cl_cl_a == cl_a                    # idempotent
    assert cl_ab == cl_a | cl_b               # distributes over union
    return True
