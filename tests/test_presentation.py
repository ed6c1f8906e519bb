from __future__ import annotations

import random

import pytest

from clk import (
    GraphError,
    build_presentation,
    graph_from_data,
    relation_matrix,
    unit_sum,
)
from clk.presentation import format_vector, parse_vector, presentation_to_data

from helpers import (
    presentation_of,
    random_graph_doc,
    toeplitz_doc,
    two_block_doc,
)


def toeplitz_cohn_doc():
    doc = toeplitz_doc()
    doc["lambda"] = []
    return doc


def test_toeplitz_presentation():
    p = presentation_of(toeplitz_doc())
    assert p.generators == ("v", "w")
    (rel,) = p.relations
    assert rel.lhs == (1, 0)
    assert rel.rhs == (1, 1)
    assert rel.in_lambda


def test_two_block_presentation():
    p = presentation_of(two_block_doc(2, 5))
    assert p.generators == ("v", "w")
    assert [(r.lhs, r.rhs) for r in p.relations] == [
        ((1, 0), (0, 2)),
        ((1, 0), (0, 5)),
    ]


def test_cohn_toeplitz_gets_block_generator():
    p = presentation_of(toeplitz_cohn_doc())
    assert p.generators == ("v", "w", "E")
    (rel,) = p.relations
    assert rel.lhs == (1, 0, 0)
    assert rel.rhs == (1, 1, 1)
    assert not rel.in_lambda


def test_relation_matrix_examples():
    assert relation_matrix(presentation_of(toeplitz_doc())) == ((0, -1),)
    assert relation_matrix(presentation_of(two_block_doc(2, 5))) == (
        (1, -2),
        (1, -5),
    )
    assert relation_matrix(presentation_of(toeplitz_cohn_doc())) == ((0, -1, -1),)


def test_unit_sum_examples():
    p = presentation_of(toeplitz_doc())
    assert unit_sum(p, ["v", "w"]) == (1, 1)
    assert unit_sum(p, ["w"]) == (0, 1)
    pc = presentation_of(toeplitz_cohn_doc())
    assert unit_sum(pc, ["v"]) == (1, 0, 0)
    with pytest.raises(GraphError, match="nonempty"):
        unit_sum(p, [])
    with pytest.raises(GraphError, match="ghost"):
        unit_sum(p, ["ghost"])


def test_mixed_lambda_blocks_on_one_vertex():
    # v's fiber splits into a distinguished block and an ordinary one
    doc = two_block_doc(2, 5)
    doc["lambda"] = ["X"]
    p = presentation_of(doc)
    assert p.generators == ("v", "w", "Y")
    assert [(r.name, r.in_lambda) for r in p.relations] == [
        ("X", True),
        ("Y", False),
    ]
    assert p.relations[1].rhs == (0, 5, 1)


def test_block_name_colliding_with_vertex_rejected():
    doc = {
        "vertices": ["v", "w"],
        "edges": [{"name": "e", "src": "v", "tgt": "w"}],
        "partition": {"w": ["e"]},
        "lambda": [],
    }
    with pytest.raises(GraphError, match="w"):
        build_presentation(graph_from_data(doc))


def test_unknown_generator_lookup_message():
    p = presentation_of(toeplitz_cohn_doc())
    assert [p.index(name) for name in ("v", "w", "E")] == [0, 1, 2]
    with pytest.raises(GraphError) as exc:
        p.index("x")
    assert str(exc.value) == "unknown generator 'x'"
    with pytest.raises(GraphError, match="unknown vertex 'E'"):
        unit_sum(p, ["E"])


def test_vector_parse_and_format():
    p = presentation_of(two_block_doc(2, 5))
    assert parse_vector(p, "1, 0") == (1, 0)
    assert format_vector(p, (0, 3)) == "3·w"
    assert format_vector(p, (1, 1)) == "v + w"
    assert format_vector(p, (0, 0)) == "0"
    with pytest.raises(GraphError):
        parse_vector(p, "1,2,3")
    with pytest.raises(GraphError):
        parse_vector(p, "1,x")
    with pytest.raises(GraphError):
        parse_vector(p, "1,-2")


def test_presentation_serialization_shape():
    data = presentation_to_data(presentation_of(toeplitz_doc()))
    assert data == {
        "generators": ["v", "w"],
        "relations": [
            {"name": "E", "lhs": [1, 0], "rhs": [1, 1], "in_lambda": True}
        ],
    }


def test_structural_invariants_on_random_graphs():
    rng = random.Random(23)
    for _ in range(300):
        doc = random_graph_doc(rng)
        g = graph_from_data(doc)
        p = build_presentation(g)
        lam = g.lambda_set
        assert len(p.relations) == len(g.partition)
        assert p.dim == len(g.vertices) + sum(
            1 for b in g.partition if b.name not in lam
        )
        if lam == {b.name for b in g.partition}:
            assert p.generators == g.vertices
        n_vertices = len(g.vertices)
        for rel in p.relations:
            # lhs is a unit vector on a vertex coordinate
            assert sum(rel.lhs) == 1
            assert rel.lhs.index(1) < n_vertices
            assert any(rel.rhs)
            block_coords = rel.rhs[n_vertices:]
            if rel.in_lambda:
                assert not any(block_coords)
            else:
                own = p.index(rel.name) - n_vertices
                assert block_coords[own] == 1
                assert sum(block_coords) == 1
