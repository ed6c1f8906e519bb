from __future__ import annotations

import json
import random

import pytest

from clk import (
    GraphError,
    default_separation,
    graph_from_data,
    parse_graph,
    serialize_graph,
)
from clk.graphs import Edge

from helpers import large_graph_doc, random_graph_doc, toeplitz_doc


def test_parse_toeplitz_document():
    g = parse_graph(json.dumps(toeplitz_doc()))
    assert g.vertices == ("v", "w")
    assert [e.name for e in g.edges] == ["e", "f"]
    assert len(g.partition) == 1
    assert g.partition[0].edges == ("e", "f")
    assert g.lambda_blocks == ("E",)


def test_unknown_edge_lookup_message():
    g = parse_graph(json.dumps(toeplitz_doc()))
    assert g.edge("f") == Edge("f", "v", "w")
    with pytest.raises(GraphError) as exc:
        g.edge("x")
    assert str(exc.value) == "unknown edge 'x'"


def test_mixed_source_block_rejected():
    doc = {
        "vertices": ["v", "w"],
        "edges": [
            {"name": "e1", "src": "v", "tgt": "w"},
            {"name": "f1", "src": "w", "tgt": "w"},
        ],
        "partition": {"A": ["e1", "f1"]},
        "lambda": [],
    }
    with pytest.raises(GraphError, match="A"):
        graph_from_data(doc)


def test_mode_defaults_blocks_to_fibers():
    doc = {
        "vertices": ["v", "w"],
        "edges": [
            {"name": "e", "src": "v", "tgt": "v"},
            {"name": "f", "src": "v", "tgt": "w"},
        ],
        "mode": "leavitt",
    }
    g = graph_from_data(doc)
    assert len(g.partition) == 1
    assert set(g.partition[0].edges) == {"e", "f"}
    assert g.lambda_blocks == (g.partition[0].name,)
    # cohn mode: same blocks, nothing distinguished
    g2 = graph_from_data({**doc, "mode": "cohn"})
    assert [b.edges for b in g2.partition] == [b.edges for b in g.partition]
    assert g2.lambda_blocks == ()


def test_default_separation_document_validated_once(monkeypatch):
    import clk.graphs

    calls = []
    original = clk.graphs.validate_graph

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(clk.graphs, "validate_graph", counting)
    doc = toeplitz_doc()
    del doc["partition"], doc["lambda"]
    graph_from_data(doc)
    assert len(calls) == 1


def test_default_separation_skips_sinks_and_isolated():
    g = default_separation(
        ["v", "w", "u"], [Edge("e", "v", "w")], "leavitt"
    )
    assert len(g.partition) == 1
    assert g.block_source(g.partition[0]) == "v"
    assert g.sinks() == ("w", "u")


def test_default_separation_keeps_fiber_order_of_interleaved_edges():
    edges = [
        Edge("a", "u", "w"),
        Edge("b", "v", "w"),
        Edge("c", "u", "v"),
        Edge("d", "v", "u"),
        Edge("e", "u", "u"),
    ]
    g = default_separation(["w", "u", "v"], edges, "leavitt")
    assert [(b.name, b.edges) for b in g.partition] == [
        ("s(u)", ("a", "c", "e")),
        ("s(v)", ("b", "d")),
    ]
    for seed, mode in ((1, "leavitt"), (2, "cohn")):
        g = graph_from_data(large_graph_doc(random.Random(seed), 300, mode))
        fibers = [tuple(e.name for e in g.edges if e.src == v) for v in g.vertices]
        assert [b.edges for b in g.partition] == [f for f in fibers if f]


def test_default_block_names_avoid_collisions():
    g = default_separation(
        ["s(v)", "v"], [Edge("a", "v", "v"), Edge("b", "s(v)", "v")], "cohn"
    )
    names = [b.name for b in g.partition]
    assert len(set(names)) == 2
    assert all(n not in g.vertices for n in names)


def test_round_trip_is_identity():
    for doc in (toeplitz_doc(), {"vertices": ["a"], "edges": []}):
        g = parse_graph(json.dumps(doc))
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert serialize_graph(parse_graph(text)) == text


def test_unknown_keys_rejected():
    doc = {**toeplitz_doc(), "extra": 1}
    with pytest.raises(GraphError, match="extra"):
        graph_from_data(doc)


def test_edge_object_keys_are_exact():
    doc = toeplitz_doc()
    doc["edges"][0] = {"name": "e", "src": "v", "tgt": "v", "weight": 2}
    with pytest.raises(GraphError, match="weight|name/src/tgt"):
        graph_from_data(doc)


def test_bom_rejected():
    text = json.dumps(toeplitz_doc())
    with pytest.raises(GraphError, match="BOM"):
        parse_graph(b"\xef\xbb\xbf" + text.encode())
    with pytest.raises(GraphError, match="BOM"):
        parse_graph("﻿" + text)


def test_duplicate_json_keys_rejected():
    text = '{"vertices": ["v"], "vertices": ["w"], "edges": []}'
    with pytest.raises(GraphError, match="vertices"):
        parse_graph(text)


def test_syntax_error_reports_position():
    with pytest.raises(GraphError, match=r"line 1 column"):
        parse_graph("{nope}")


def test_mode_plus_explicit_partition_and_lambda_rejected():
    doc = {**toeplitz_doc(), "mode": "cohn"}
    with pytest.raises(GraphError, match="mode"):
        graph_from_data(doc)


def test_lambda_without_partition_rejected():
    doc = toeplitz_doc()
    del doc["partition"]
    with pytest.raises(GraphError, match="partition"):
        graph_from_data(doc)


def test_empty_vertex_list_rejected():
    with pytest.raises(GraphError, match="vertices"):
        graph_from_data({"vertices": [], "edges": []})


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d["edges"].append({"name": "e", "src": "v", "tgt": "w"}), "e"),
        (lambda d: d["edges"].append({"name": "g", "src": "v", "tgt": "zz"}), "zz"),
        (lambda d: d["vertices"].append("v"), "v"),
        (lambda d: d["partition"].update({"F": []}), "F"),
        (lambda d: d["partition"].update({"F": ["e"]}), "e"),
        (lambda d: d["partition"].update({"F": ["ghost"]}), "ghost"),
        (lambda d: d["lambda"].append("missing"), "missing"),
        (lambda d: d["lambda"].append("E"), "E"),
        (lambda d: d.update(partition={"E": ["e"]}), "f"),
    ],
)
def test_validation_names_the_offender(mutate, needle):
    doc = toeplitz_doc()
    mutate(doc)
    with pytest.raises(GraphError) as exc_info:
        graph_from_data(doc)
    assert needle in str(exc_info.value)


def test_random_documents_validate_and_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        doc = random_graph_doc(rng)
        g = graph_from_data(doc)
        assert parse_graph(serialize_graph(g)) == g
        # leavitt default always validates on the bare digraph
        default_separation(g.vertices, g.edges, "leavitt")


def test_fuzzed_mutations_never_pass_silently():
    rng = random.Random(11)
    rejected = 0
    for _ in range(300):
        doc = random_graph_doc(rng)
        mutation = rng.randrange(4)
        if mutation == 0 and doc["edges"]:
            victim = rng.choice(doc["edges"])
            victim["tgt"] = "nowhere"
            needle = "nowhere"
        elif mutation == 1 and doc["partition"]:
            name = rng.choice(list(doc["partition"]))
            doc["partition"][name] = []
            needle = name
        elif mutation == 2:
            doc["lambda"] = list(doc["lambda"]) + ["missing-block"]
            needle = "missing-block"
        else:
            doc["vertices"] = list(doc["vertices"]) + [doc["vertices"][0]]
            needle = doc["vertices"][0]
        with pytest.raises(GraphError) as exc_info:
            graph_from_data(doc)
        assert needle in str(exc_info.value)
        rejected += 1
    assert rejected == 300


@pytest.mark.parametrize(
    "what, document",
    [
        ("vertices", '{"vertices": ["v", "\\ud800"], "edges": []}'),
        (
            "edges",
            '{"vertices": ["v"],'
            ' "edges": [{"name": "\\udfff", "src": "v", "tgt": "v"}]}',
        ),
        (
            "blocks",
            '{"vertices": ["v"], "edges": [{"name": "e", "src": "v", "tgt": "v"}],'
            ' "partition": {"X\\ud800": ["e"]}, "lambda": []}',
        ),
        (
            "lambda",
            '{"vertices": ["v"], "edges": [{"name": "e", "src": "v", "tgt": "v"}],'
            ' "partition": {"X": ["e"]}, "lambda": ["X", "\\udbff"]}',
        ),
    ],
)
def test_names_that_are_not_utf8_rejected(what, document):
    # A JSON \u escape can decode to a lone surrogate, which no output encodes.
    with pytest.raises(GraphError) as exc_info:
        parse_graph(document)
    message = str(exc_info.value)
    assert message.startswith(f"{what} entry '") and "\\ud" in message
    assert message.endswith("' is not valid UTF-8")
