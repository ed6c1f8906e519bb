from __future__ import annotations

import json
import random

import pytest

from clk import (
    Budget,
    Equivalent,
    Inequivalent,
    NoTorsionUpTo,
    Torsion,
    Unknown,
    applicable_steps,
    class_enumerate,
    closure_contains,
    equivalent,
    is_progenerator,
    isolated_support,
    replay_witness,
    torsion_type,
)
from clk.cli import main
from clk.presentation import Relation, vec_sub
from clk.semigroup import _compile_moves

from helpers import (
    cascade_doc,
    closure_axioms_case,
    engine_vs_box_case,
    presentation_of,
    random_presentation,
    soundness_case,
    toeplitz_doc,
    torsion_order_case,
    translation_case,
    two_block_doc,
)


@pytest.fixture(scope="module")
def toeplitz():
    return presentation_of(toeplitz_doc())


@pytest.fixture(scope="module")
def l25():
    return presentation_of(two_block_doc(2, 5))


@pytest.fixture(scope="module")
def l24():
    return presentation_of(two_block_doc(2, 4))


def test_applicable_steps_toeplitz(toeplitz):
    steps = applicable_steps(toeplitz, (1, 0))
    assert [(rel.name, fwd, res) for rel, fwd, res in steps] == [
        ("E", True, (1, 1))
    ]
    assert applicable_steps(toeplitz, (0, 3)) == []


def test_applicable_steps_l25(l25):
    steps = applicable_steps(l25, (0, 5))
    assert [(rel.name, fwd, res) for rel, fwd, res in steps] == [
        ("X", False, (1, 3)),
        ("Y", False, (1, 0)),
    ]


def test_applicable_steps_rejects_zero(toeplitz):
    with pytest.raises(ValueError):
        applicable_steps(toeplitz, (0, 0))


def test_class_enumerate_singleton(toeplitz):
    enum = class_enumerate(toeplitz, (0, 1))
    assert enum.complete
    assert enum.members == ((0, 1),)
    assert enum.visited == 1


def test_class_enumerate_partial_on_infinite_class(toeplitz):
    enum = class_enumerate(toeplitz, (1, 0), Budget(max_states=10))
    assert not enum.complete
    assert (1, 0) in enum.members
    assert enum.visited == 10


def test_budget_cut_mid_layer_keeps_class_partial(toeplitz, tmp_path, capsys):
    # From (1,1) the second layer is (1,0), (1,2).  Two expansions stop
    # after (1,0); the unexpanded (1,2) must keep the class partial.
    enum = class_enumerate(toeplitz, (1, 1), Budget(max_states=2))
    assert not enum.complete
    assert enum.members == ((1, 0), (1, 1), (1, 2))
    assert enum.visited == 2

    path = tmp_path / "toeplitz.json"
    path.write_text(json.dumps(toeplitz_doc()), encoding="utf-8")
    assert main(["monoid", str(path), "--class", "1,1", "--max-states", "2"]) == 5
    assert "partial" in capsys.readouterr().out


def test_budget_cut_mid_layer_keeps_equivalence_unknown(l25):
    # A search that dropped the rest of a layer cut by the budget would
    # call this pair inequivalent by complete-class-excludes.
    assert equivalent(l25, (1, 0), (2, 1), Budget(3)) == Unknown(visited=3)
    out = equivalent(l25, (1, 0), (2, 1))
    assert isinstance(out, Equivalent)
    assert len(out.witness) == 3
    assert replay_witness(l25, (1, 0), out.witness) == (2, 1)


def test_class_enumerate_l25_component(l25):
    enum = class_enumerate(l25, (1, 0), Budget(max_states=200))
    assert (0, 2) in enum.members
    assert (0, 5) in enum.members


def test_equivalent_witness_three_forward_steps(toeplitz):
    out = equivalent(toeplitz, (1, 0), (1, 3))
    assert isinstance(out, Equivalent)
    assert len(out.witness) == 3
    assert all(step.forward for step in out.witness)
    assert replay_witness(toeplitz, (1, 0), out.witness) == (1, 3)


def test_equivalent_complete_class_certificate(toeplitz):
    out = equivalent(toeplitz, (0, 1), (0, 2))
    assert isinstance(out, Inequivalent)
    assert out.certificate == "complete-class-excludes"
    # the K0 test alone cannot see this pair: w - 2w is in the row span
    from clk import zspan_solve
    from clk.presentation import relation_matrix, vec_sub

    assert zspan_solve(relation_matrix(toeplitz), vec_sub((0, 1), (0, 2))) is not None


def test_equivalent_k0_mismatch(l25):
    out = equivalent(l25, (0, 2), (0, 4))
    assert isinstance(out, Inequivalent)
    assert out.certificate == "k0-mismatch"


def test_equivalent_reflexive_and_unknown(toeplitz):
    assert equivalent(toeplitz, (2, 1), (2, 1)) == Equivalent(())
    # (1,0) ~ (1,50) but the witness needs 50 steps; tiny budgets give up
    out = equivalent(toeplitz, (1, 0), (1, 50), Budget(max_states=5))
    assert isinstance(out, Unknown)
    assert out.visited == 5


def test_equivalent_symmetry(toeplitz, l25):
    for p, x, y in [
        (toeplitz, (1, 0), (1, 3)),
        (toeplitz, (0, 1), (0, 2)),
        (l25, (0, 2), (0, 5)),
        (l25, (0, 2), (0, 4)),
    ]:
        a = equivalent(p, x, y)
        b = equivalent(p, y, x)
        assert type(a) is type(b)


def test_equivalent_transitivity_by_concatenation(l25):
    a = equivalent(l25, (1, 0), (0, 2))
    b = equivalent(l25, (0, 2), (0, 5))
    assert isinstance(a, Equivalent) and isinstance(b, Equivalent)
    assert replay_witness(l25, (1, 0), a.witness + b.witness) == (0, 5)


def test_cascade_class_of_a_is_three_elements():
    # a ~ b + c ~ 3c and nothing else: a closed class of size three
    p = presentation_of(cascade_doc())
    enum = class_enumerate(p, (1, 0, 0))
    assert enum.complete
    assert enum.members == ((0, 0, 3), (0, 1, 1), (1, 0, 0))
    out = equivalent(p, (1, 0, 0), (0, 0, 3))
    assert isinstance(out, Equivalent)
    assert replay_witness(p, (1, 0, 0), out.witness) == (0, 0, 3)
    out = equivalent(p, (1, 0, 0), (0, 0, 2))
    assert isinstance(out, Inequivalent)


def test_torsion_type_l25_corner_w(l25):
    t = torsion_type(l25, (0, 1))
    assert isinstance(t, Torsion)
    assert (t.m, t.n) == (2, 5)
    assert t.prior_unknown_probes == ()
    assert replay_witness(l25, (0, 5), t.witness) == (0, 2)


def test_torsion_type_l24_corner_v(l24):
    t = torsion_type(l24, (1, 0))
    assert isinstance(t, Torsion)
    assert (t.m, t.n) == (1, 2)


def test_torsion_type_toeplitz_corner_w_certified_absent(toeplitz):
    t = torsion_type(toeplitz, (0, 1), Budget(max_states=1000, max_multiple=10))
    assert isinstance(t, NoTorsionUpTo)
    assert t.bound == 10
    assert t.certified
    assert t.unknown_probes == ()


def test_closure_examples(l25, toeplitz):
    out = closure_contains(l25, (1, 0), (0, 1))
    assert out.status == "yes"
    assert (out.multiple, out.dominating) == (1, (0, 2))

    out = closure_contains(toeplitz, (0, 1), (1, 0), Budget(1000, 8))
    assert out.status == "no-up-to-bound"
    assert out.bound == 8

    out = closure_contains(toeplitz, (2, 1), (2, 1))
    assert out.status == "yes"
    assert (out.multiple, out.dominating) == (1, (2, 1))


def test_progenerator_examples(l25, toeplitz):
    assert is_progenerator(l25, (0, 1)).status == "yes"
    assert is_progenerator(l25, (1, 0)).status == "yes"
    report = is_progenerator(toeplitz, (0, 1), Budget(1000, 8))
    assert report.status == "no-up-to-bound"
    by_gen = dict(report.per_generator)
    assert by_gen["v"].status == "no-up-to-bound"
    assert by_gen["w"].status == "yes"


def test_isolated_support(toeplitz, l25):
    assert isolated_support(toeplitz, ["w"])
    assert not isolated_support(toeplitz, ["v"])
    assert not isolated_support(toeplitz, ["v", "w"])
    assert not isolated_support(l25, ["w"])  # rhs supports live on w


def test_witness_soundness_random():
    rng = random.Random(301)
    hits = 0
    for _ in range(250):
        if soundness_case(rng):
            hits += 1
    assert hits > 20


def test_translation_invariance_random():
    rng = random.Random(307)
    hits = 0
    for _ in range(250):
        if translation_case(rng):
            hits += 1
    assert hits > 20


def test_torsion_implies_k0_order_divides_random():
    rng = random.Random(311)
    hits = 0
    for _ in range(250):
        if torsion_order_case(rng):
            hits += 1
    assert hits > 20


def test_closure_axioms_random():
    rng = random.Random(313)
    certified = 0
    for _ in range(150):
        if closure_axioms_case(rng):
            certified += 1
    assert certified > 60


def test_engine_agrees_with_union_find_oracle():
    rng = random.Random(317)
    hits = 0
    for _ in range(200):
        if engine_vs_box_case(rng):
            hits += 1
    assert hits > 20


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_states=0)
    with pytest.raises(ValueError):
        Budget(max_multiple=-1)


def test_dimension_and_zero_errors(toeplitz):
    with pytest.raises(ValueError):
        equivalent(toeplitz, (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        equivalent(toeplitz, (0, 0), (1, 0))
    with pytest.raises(ValueError):
        torsion_type(toeplitz, (0, 0))
    with pytest.raises(ValueError):
        closure_contains(toeplitz, (1, 0), (0, 0))


def test_replay_rejects_corrupted_witness(toeplitz):
    from clk import Step

    out = equivalent(toeplitz, (1, 0), (1, 2))
    assert isinstance(out, Equivalent)
    bad_result = tuple(
        Step(s.relation, s.forward, (9, 9)) for s in out.witness
    )
    with pytest.raises(ValueError, match="lands on"):
        replay_witness(toeplitz, (1, 0), bad_result)
    bad_rel = tuple(Step("ghost", True, s.result) for s in out.witness)
    with pytest.raises(ValueError, match="ghost"):
        replay_witness(toeplitz, (1, 0), bad_rel)
    # backward step that does not apply at the start
    inapplicable = (Step("E", False, (1, 0)),)
    with pytest.raises(ValueError, match="does not apply"):
        replay_witness(toeplitz, (1, 0), inapplicable)


def test_move_table_reads_needs_from_the_relation_terms():
    rng = random.Random(41)
    for _ in range(200):
        p = random_presentation(rng, max_vertices=4, max_edges=8)
        forward = [(r, True, r.lhs_terms, vec_sub(r.rhs, r.lhs)) for r in p.relations]
        backward = [(r, False, r.rhs_terms, vec_sub(r.lhs, r.rhs)) for r in p.relations]
        moves = _compile_moves(p)
        assert moves == forward + backward
        for rel, fwd, need, _ in moves:
            assert need is (rel.lhs_terms if fwd else rel.rhs_terms)


def test_searches_build_no_dense_relation_sides(monkeypatch):
    p = presentation_of(cascade_doc())
    built = []

    def counting(name):
        view = getattr(Relation, name).fget

        def dense(rel):
            built.append(name)
            return view(rel)

        return property(dense)

    for name in ("lhs", "rhs", "row"):
        monkeypatch.setattr(Relation, name, counting(name))
    assert class_enumerate(p, (0, 0, 3)).complete
    assert closure_contains(p, (1, 0, 0), (0, 1, 0)).status == "yes"
    assert not isolated_support(p, ["c"])
    assert built == []
