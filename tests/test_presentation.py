from __future__ import annotations

import json
import random

import pytest

from clk import (
    GraphError,
    build_presentation,
    graph_from_data,
    relation_matrix,
    unit_sum,
)
from clk.presentation import (
    format_terms,
    format_vector,
    parse_int,
    parse_vector,
    presentation_json,
    presentation_to_data,
)

from helpers import (
    large_graph_doc,
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


def test_block_generator_named_like_a_vertex_is_rejected():
    doc = toeplitz_cohn_doc()
    doc["vertices"].append("F")
    doc["edges"].append({"name": "g", "src": "w", "tgt": "F"})
    doc["partition"] = {"w": ["e", "f"], "F": ["g"]}
    with pytest.raises(GraphError) as exc:
        build_presentation(graph_from_data(doc))
    assert str(exc.value) == (
        "block 'w' outside lambda collides with a vertex name; rename one of them"
    )


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


def _reference_sides(g, p):
    """Dense (lhs, rhs) of each block relation, counted edge by edge."""
    index = {name: i for i, name in enumerate(p.generators)}
    edges = {e.name: e for e in g.edges}
    sides = []
    for block in g.partition:
        lhs, rhs = [0] * p.dim, [0] * p.dim
        lhs[index[edges[block.edges[0]].src]] = 1
        for name in block.edges:
            rhs[index[edges[name].tgt]] += 1
        if block.name not in g.lambda_blocks:
            rhs[index[block.name]] = 1
        sides.append((tuple(lhs), tuple(rhs)))
    return sides


def _assert_sparse(terms):
    indices = [i for i, _ in terms]
    assert indices == sorted(set(indices)), terms
    assert all(c > 0 for _, c in terms), terms


def test_relation_terms_are_sparse_and_match_the_dense_sides():
    rng = random.Random(31)
    docs = [random_graph_doc(rng, max_vertices=5, max_edges=10) for _ in range(300)]
    docs += [
        large_graph_doc(random.Random(seed), 300, kind)
        for seed, kind in enumerate(("leavitt", "cohn", "separated"), 1)
    ]
    for doc in docs:
        g = graph_from_data(doc)
        p = build_presentation(g)
        reference = _reference_sides(g, p)
        for rel, (lhs, rhs) in zip(p.relations, reference, strict=True):
            _assert_sparse(rel.lhs_terms)
            _assert_sparse(rel.rhs_terms)
            assert rel.dim == p.dim
            assert rel.lhs_terms == tuple((i, c) for i, c in enumerate(lhs) if c)
            assert rel.rhs_terms == tuple((i, c) for i, c in enumerate(rhs) if c)
            assert (rel.lhs, rel.rhs) == (lhs, rhs)
            assert rel.row == tuple(a - b for a, b in zip(lhs, rhs))
            assert format_terms(p, rel.rhs_terms) == format_vector(p, rhs)
        assert relation_matrix(p) == tuple(
            tuple(a - b for a, b in zip(lhs, rhs)) for lhs, rhs in reference
        )
        assert [(r["lhs"], r["rhs"]) for r in presentation_to_data(p)["relations"]] == [
            (list(lhs), list(rhs)) for lhs, rhs in reference
        ]


def test_parallel_edges_add_up_and_a_loop_sits_on_both_sides():
    doc = {
        "vertices": ["v", "w"],
        "edges": [
            {"name": "e", "src": "v", "tgt": "w"},
            {"name": "f", "src": "v", "tgt": "v"},
            {"name": "g", "src": "v", "tgt": "w"},
        ],
        "partition": {"X": ["e", "f", "g"]},
        "lambda": ["X"],
    }
    (rel,) = presentation_of(doc).relations
    assert rel.lhs_terms == ((0, 1),)
    assert rel.rhs_terms == ((0, 1), (1, 2))
    assert (rel.lhs, rel.rhs, rel.row) == ((1, 0), (1, 2), (0, -2))

    doc["lambda"] = []
    p = presentation_of(doc)
    (rel,) = p.relations
    assert p.generators == ("v", "w", "X")
    assert rel.rhs_terms == ((0, 1), (1, 2), (2, 1))
    assert format_terms(p, rel.rhs_terms) == "v + 2·w + X"


def test_format_terms():
    p = presentation_of(two_block_doc(2, 5))
    assert format_terms(p, ()) == "0"
    assert format_terms(p, ((0, 1), (1, 3))) == "v + 3·w"
    assert format_terms(p, ((1, -1),)) == "-1·w"
    assert [format_terms(p, rel.rhs_terms) for rel in p.relations] == ["2·w", "5·w"]


@pytest.mark.parametrize(
    "text", ["1_0,0", "١,٢", "１,2", "0x1,0", "1e0,0", "+-1,0", "1 0,0"]
)
def test_parse_vector_rejects_all_but_ascii_decimal_integers(text):
    p = presentation_of(toeplitz_doc())
    with pytest.raises(GraphError, match="malformed vector"):
        parse_vector(p, text)


def test_parse_int_takes_a_sign_and_ascii_digits():
    texts = ("0", " +7 ", "-12", "\t3\n", "007")
    assert [parse_int(s) for s in texts] == [0, 7, -12, 3, 7]
    for text in ("", "+", "1_0", "٣", "３", "²", "0b1", "1.0"):
        with pytest.raises(ValueError):
            parse_int(text)
    p = presentation_of(toeplitz_doc())
    assert parse_vector(p, " +1 , 0", signed=True) == (1, 0)


def _oracle_json(p) -> str:
    data = presentation_to_data(p)
    return json.dumps(data, separators=(",", ":"), ensure_ascii=False)


# Characters that JSON escapes or writes as non-ASCII text, and one plain letter.
ODD = ['"', "\\", "\n", "\x01", "\u2028", "ψ", "\U0001d54a", "a"]


def _odd_names(rng, doc: dict) -> dict:
    """``doc`` with every vertex, edge and block renamed around ODD characters."""

    def rename(names, tag):
        # The trailing tag and index keep the names distinct.
        return {
            name: "".join(rng.choices(ODD, k=rng.randint(0, 3))) + f"{tag}{i}"
            for i, name in enumerate(names)
        }

    v = rename(doc["vertices"], "v")
    e = rename([edge["name"] for edge in doc["edges"]], "e")
    b = rename(doc["partition"], "B")
    return {
        "vertices": [v[name] for name in doc["vertices"]],
        "edges": [
            {"name": e[edge["name"]], "src": v[edge["src"]], "tgt": v[edge["tgt"]]}
            for edge in doc["edges"]
        ],
        "partition": {
            b[name]: [e[x] for x in xs] for name, xs in doc["partition"].items()
        },
        "lambda": [b[name] for name in doc["lambda"]],
    }


def _edge_doc(targets, lam) -> dict:
    """One block X holding an edge from v to each of ``targets``."""
    vertices = sorted({"v", *targets})
    edges = [{"name": f"e{i}", "src": "v", "tgt": t} for i, t in enumerate(targets)]
    partition = {"X": [edge["name"] for edge in edges]}
    return {"vertices": vertices, "edges": edges, "partition": partition, "lambda": lam}


def test_presentation_json_matches_the_dense_oracle():
    rng = random.Random(41)
    docs = [
        large_graph_doc(random.Random(seed), 300, kind)
        for seed, kind in enumerate(("leavitt", "cohn", "separated"), 1)
    ]
    docs += [
        _odd_names(rng, random_graph_doc(rng, max_vertices=5, max_edges=10))
        for _ in range(300)
    ]
    docs += [
        # parallel edges counted to 12 and 10 loops, in and outside lambda
        _edge_doc(["w"] * 12 + ["v"] * 10, ["X"]),
        _edge_doc(["w"] * 12 + ["v"] * 10, []),
        # dim 1: one vertex with 11 loops, then no edge at all
        _edge_doc(["v"] * 11, ["X"]),
        {"vertices": ["v"], "edges": []},
        # every vertex a sink: no relations
        {"vertices": ["a", "b", "c"], "edges": [], "mode": "cohn"},
    ]
    dims, texts = set(), []
    for doc in docs:
        p = presentation_of(doc)
        dims.add(p.dim)
        texts.append(presentation_json(p))
        assert texts[-1] == _oracle_json(p), doc
    assert 1 in dims
    every = "".join(texts)
    for written in ('\\"', "\\\\", "\\n", "\\u0001", "\u2028", "ψ", "\U0001d54a"):
        assert written in every
    assert presentation_json(presentation_of(docs[-2])) == (
        '{"generators":["v"],"relations":[]}'
    )
    assert '"rhs":[10,12,1]' in presentation_json(presentation_of(docs[-4]))
