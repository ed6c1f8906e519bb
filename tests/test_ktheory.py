from __future__ import annotations

import random
from fractions import Fraction

import pytest

from clk import (
    Budget,
    Finite,
    Infinite,
    NoTorsionUpTo,
    QSpanExcluded,
    QSpanMember,
    Torsion,
    algebra_type,
    corner_report,
    ibn_of_algebra,
    k0_report,
)
from clk.ktheory import corner_to_data, ibn_verdict_to_data, k0_to_data
from clk.linalg import SNFResult

from helpers import (
    cascade_doc,
    edgeless_doc,
    lambda_pi_agreement_case,
    presentation_of,
    random_graph_doc,
    random_presentation,
    rose_doc,
    toeplitz_doc,
    two_block_doc,
)


@pytest.fixture(scope="module")
def toeplitz():
    return presentation_of(toeplitz_doc())


@pytest.fixture(scope="module")
def l25():
    return presentation_of(two_block_doc(2, 5))


def test_ibn_examples(toeplitz, l25):
    assert ibn_of_algebra(toeplitz) == type(ibn_of_algebra(toeplitz))(
        True, QSpanExcluded()
    )
    verdict = ibn_of_algebra(l25)
    assert not verdict.ibn
    assert verdict.certificate == QSpanMember((Fraction(2), Fraction(-1)))


def test_any_empty_lambda_is_ibn():
    rng = random.Random(41)
    for _ in range(50):
        p = presentation_of(random_graph_doc(rng, lam="empty"))
        assert ibn_of_algebra(p).ibn


def test_k0_examples(toeplitz, l25):
    r = k0_report(toeplitz)
    assert (r.free_rank, r.invariant_factors) == (1, ())
    assert r.unit_order == Infinite()

    r = k0_report(l25)
    assert (r.free_rank, r.invariant_factors) == (0, (3,))
    assert r.unit_order == Finite(1)

    r = k0_report(presentation_of(edgeless_doc(3)))
    assert (r.free_rank, r.invariant_factors) == (3, ())
    assert r.unit_order == Infinite()


def test_algebra_type_examples(toeplitz, l25):
    t = algebra_type(l25)
    assert isinstance(t, Torsion)
    assert (t.m, t.n) == (1, 2)

    t = algebra_type(toeplitz)
    assert isinstance(t, NoTorsionUpTo)
    assert t.bound is None
    assert t.certificate == "qspan-excluded"

    t = algebra_type(presentation_of(rose_doc(4)))
    assert isinstance(t, Torsion)
    assert (t.m, t.n) == (1, 4)
    rose_k0 = k0_report(presentation_of(rose_doc(4)))
    assert rose_k0.invariant_factors == (3,)


def test_cascade_graph_hand_derived_values():
    # relations a = b + c, b = 2c over (a, b, c):
    #   (1,1,1) = x(1,-1,-1) + y(0,1,-2) forces x = 1, y = 2, but the third
    #   coordinate gives -5, so the unit sum escapes the span: IBN.
    p = presentation_of(cascade_doc())
    from clk import relation_matrix

    assert relation_matrix(p) == ((1, -1, -1), (0, 1, -2))
    assert ibn_of_algebra(p).ibn
    r = k0_report(p)
    assert (r.free_rank, r.invariant_factors) == (1, ())
    assert r.unit_order == Infinite()
    for corner in (["a"], ["b"], ["c"], ["b", "c"], ["a", "b", "c"]):
        report = corner_report(p, corner, Budget(2000, 6))
        assert report.verdict == "certified-ibn"
        assert report.sufficient_test_passed

    # making Y ordinary adds a block generator and keeps IBN
    p2 = presentation_of(cascade_doc(lam=("X",)))
    assert p2.generators == ("a", "b", "c", "Y")
    assert relation_matrix(p2) == ((1, -1, -1, 0), (0, 1, -2, -1))
    assert ibn_of_algebra(p2).ibn
    assert k0_report(p2).free_rank == 2


def test_single_loop_degenerate_relation():
    # one distinguished loop gives the relation v = v: the algebra is the
    # Laurent polynomial ring, which has IBN and K0 isomorphic to Z
    p = presentation_of(rose_doc(1))
    assert p.relations[0].lhs == p.relations[0].rhs == (1,)
    assert ibn_of_algebra(p).ibn
    r = k0_report(p)
    assert (r.free_rank, r.invariant_factors) == (1, ())
    assert corner_report(p, ["v"]).verdict == "certified-ibn"


def test_corner_reports_toeplitz(toeplitz):
    r = corner_report(toeplitz, ["v"])
    assert r.verdict == "certified-ibn"
    assert r.reason == "sufficient-test"
    assert r.sufficient_test_passed

    r = corner_report(toeplitz, ["w"])
    assert r.verdict == "certified-ibn"
    assert r.reason == "isolated-support"
    assert not r.sufficient_test_passed
    assert r.isolated_support_holds


def test_corner_report_l24_v():
    p = presentation_of(two_block_doc(2, 4))
    r = corner_report(p, ["v"])
    assert r.verdict == "non-ibn"
    assert r.corner_type == (1, 2)


def test_corner_report_l25_w(l25):
    r = corner_report(l25, ["w"])
    assert r.verdict == "non-ibn"
    assert r.corner_type == (2, 5)
    # with a tiny multiple budget the search cannot reach n = 5
    r = corner_report(l25, ["w"], Budget(max_states=1000, max_multiple=1))
    assert r.verdict == "unknown"


def test_ibn_iff_infinite_unit_order():
    rng = random.Random(43)
    for _ in range(200):
        p = presentation_of(random_graph_doc(rng))
        assert ibn_of_algebra(p).ibn == isinstance(
            k0_report(p).unit_order, Infinite
        )


def test_algebra_type_matches_unit_order():
    rng = random.Random(47)
    hits = 0
    for _ in range(150):
        p = presentation_of(random_graph_doc(rng, max_vertices=3, max_edges=5))
        t = algebra_type(p, Budget(1500, 6))
        if isinstance(t, Torsion) and not t.prior_unknown_probes:
            order = k0_report(p).unit_order
            assert order == Finite(t.n - t.m)
            hits += 1
    assert hits > 15


def test_lambda_vs_full_span_agreement():
    rng = random.Random(53)
    for _ in range(300):
        lambda_pi_agreement_case(rng)


def test_corner_never_non_ibn_with_empty_lambda():
    rng = random.Random(59)
    for _ in range(60):
        p = presentation_of(
            random_graph_doc(rng, max_vertices=3, max_edges=5, lam="empty")
        )
        verts = [v for v in p.graph.vertices if rng.random() < 0.5]
        if not verts:
            verts = [p.graph.vertices[0]]
        r = corner_report(p, verts, Budget(800, 5))
        assert r.verdict != "non-ibn"
        # the sufficient test always fires for these graphs
        assert r.verdict == "certified-ibn"
        assert r.sufficient_test_passed


def test_corner_verdicts_never_contradict():
    rng = random.Random(61)
    seen = set()
    for _ in range(120):
        p = presentation_of(random_graph_doc(rng, max_vertices=3, max_edges=5))
        verts = [v for v in p.graph.vertices if rng.random() < 0.5]
        if not verts:
            verts = [p.graph.vertices[0]]
        r = corner_report(p, verts, Budget(800, 5))
        seen.add(r.verdict)
        if r.verdict == "non-ibn":
            assert not r.sufficient_test_passed
            assert not r.isolated_support_holds
            assert isinstance(r.torsion, Torsion)
        if r.verdict == "certified-ibn":
            assert r.sufficient_test_passed or r.isolated_support_holds
            assert not isinstance(r.torsion, Torsion)
    assert {"certified-ibn", "non-ibn"} <= seen


def test_verdict_serialization_shapes(toeplitz, l25):
    data = ibn_verdict_to_data(ibn_of_algebra(toeplitz))
    assert data == {
        "ibn": True,
        "certificate": {"kind": "qspan-excluded"},
        "type": None,
    }
    data = ibn_verdict_to_data(ibn_of_algebra(l25))
    assert data["certificate"] == {
        "kind": "qspan-member",
        "coefficients": ["2", "-1"],
    }
    assert k0_to_data(k0_report(l25)) == {
        "free_rank": 0,
        "invariant_factors": [3],
        "unit_order": {"finite": 1},
    }
    data = corner_to_data(corner_report(toeplitz, ["w"]))
    assert data["sufficient_test"] == "inconclusive"
    assert data["isolated_support"] == "holds"
    assert data["verdict"] == {"kind": "certified-ibn", "reason": "isolated-support"}


def test_span_routes_cross_check_each_other(monkeypatch, toeplitz, l25):
    original = SNFResult.in_qspan
    monkeypatch.setattr(SNFResult, "in_qspan", lambda self, t: not original(self, t))
    for p in (toeplitz, l25):
        with pytest.raises(AssertionError, match="span tests disagree"):
            ibn_of_algebra(p)


def test_order_cross_checked_by_gaussian_route(monkeypatch, toeplitz, l25):
    import clk.linalg

    original = clk.linalg.qspan_contains
    monkeypatch.setattr(clk.linalg, "qspan_contains", lambda m, t: not original(m, t))
    for p in (toeplitz, l25):
        with pytest.raises(AssertionError, match="routes disagree"):
            k0_report(p)


def test_presentation_smith_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(57)
    torsion_seen = 0
    for _ in range(200):
        p = random_presentation(rng, max_vertices=4, max_edges=7)
        rows = [list(rel.row) for rel in p.relations]
        want = []
        if any(any(row) for row in rows):
            d = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            want = [abs(int(d[i, i])) for i in range(min(d.shape)) if d[i, i]]
        assert sorted(p.smith.invariant_factors) == sorted(want)
        assert p.smith is p.smith
        torsion_seen += bool(p.smith.cokernel_torsion)
    assert torsion_seen
