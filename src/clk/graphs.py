"""Separated-graph input model: parsing, validation, canonical serialization.

A separated graph is a finite digraph together with a partition of its edge
set into named blocks, each block contained in the outgoing-edge fiber of a
single vertex, plus a distinguished subset ("lambda") of the block names.
Sinks and isolated vertices carry no blocks.

Canonical JSON document::

    {
      "vertices": ["v", "w"],
      "edges": [{"name": "e", "src": "v", "tgt": "v"},
                {"name": "f", "src": "v", "tgt": "w"}],
      "partition": {"X": ["e", "f"]},     // optional
      "lambda": ["X"],                    // optional, requires "partition"
      "mode": "leavitt" | "cohn"          // only when partition/lambda omitted
    }

Unknown keys are rejected, as are duplicate names and dangling references.
When "partition" is omitted it defaults to the outgoing-edge fibers of the
non-sink vertices; "lambda" then defaults to all blocks ("leavitt") or to
none ("cohn").  Declaration order is semantic: it fixes the coordinate
order used by every downstream matrix and diagram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    """Invalid document or graph; the message names the offending item."""


@dataclass(frozen=True)
class Edge:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Block:
    """A named partition block: a nonempty set of same-source edge names."""

    name: str
    edges: tuple[str, ...]


@dataclass(frozen=True)
class SeparatedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    partition: tuple[Block, ...]
    lambda_blocks: tuple[str, ...]

    @cached_property
    def lambda_set(self) -> frozenset[str]:
        return frozenset(self.lambda_blocks)

    @cached_property
    def _edges_by_name(self) -> dict[str, Edge]:
        # Reversed, so a repeated name keeps its first edge.
        return {e.name: e for e in reversed(self.edges)}

    def edge(self, name: str) -> Edge:
        try:
            return self._edges_by_name[name]
        except KeyError:
            raise GraphError(f"unknown edge {name!r}") from None

    def block_source(self, block: Block) -> str:
        return self.edge(block.edges[0]).src

    def sinks(self) -> tuple[str, ...]:
        with_out = {e.src for e in self.edges}
        return tuple(v for v in self.vertices if v not in with_out)


_MODES = ("leavitt", "cohn")
_TOP_KEYS = {"vertices", "edges", "partition", "lambda", "mode"}
_EDGE_KEYS = {"name", "src", "tgt"}


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise GraphError(f"duplicate key {key!r} in JSON object")
        seen.add(key)
    return dict(pairs)


def _check_name_list(items, what) -> tuple[str, ...]:
    if not isinstance(items, list):
        raise GraphError(f"{what} must be a list")
    seen = set()
    for name in items:
        if not isinstance(name, str) or not name:
            raise GraphError(f"{what} entries must be nonempty strings, got {name!r}")
        if name in seen:
            raise GraphError(f"duplicate name {name!r} in {what}")
        seen.add(name)
        try:
            name.encode("utf-8")  # fails on a lone surrogate such as "\ud800"
        except UnicodeEncodeError:
            raise GraphError(f"{what} entry {name!r} is not valid UTF-8") from None
    return tuple(items)


def validate_graph(g: SeparatedGraph) -> SeparatedGraph:
    """Check every structural invariant; return ``g`` unchanged on success."""
    vset = set(_check_name_list(list(g.vertices), "vertices"))
    if not vset:
        raise GraphError("vertices must be nonempty")

    _check_name_list([e.name for e in g.edges], "edges")
    for e in g.edges:
        if e.src not in vset:
            raise GraphError(f"edge {e.name!r} has unknown source vertex {e.src!r}")
        if e.tgt not in vset:
            raise GraphError(f"edge {e.name!r} has unknown target vertex {e.tgt!r}")
    src_of = {e.name: e.src for e in g.edges}

    covered: set[str] = set()
    block_names = set(_check_name_list([b.name for b in g.partition], "blocks"))
    for block in g.partition:
        if not block.edges:
            raise GraphError(f"block {block.name!r} is empty")
        sources = set()
        for name in block.edges:
            if name not in src_of:
                raise GraphError(f"block {block.name!r} lists unknown edge {name!r}")
            if name in covered:
                raise GraphError(f"edge {name!r} appears in more than one block")
            covered.add(name)
            sources.add(src_of[name])
        if len(sources) > 1:
            raise GraphError(
                f"block {block.name!r} mixes edges from sources "
                f"{sorted(sources)!r}; blocks must sit inside one fiber"
            )
    missing = src_of.keys() - covered
    if missing:
        raise GraphError(f"edges not covered by any block: {sorted(missing)!r}")

    for name in _check_name_list(list(g.lambda_blocks), "lambda"):
        if name not in block_names:
            raise GraphError(f"lambda references unknown block {name!r}")
    return g


def default_separation(vertices, edges, mode: str = "leavitt") -> SeparatedGraph:
    """Complete a bare digraph: blocks are the outgoing fibers of non-sinks.

    "leavitt" marks every block distinguished, "cohn" marks none.  Block
    names are derived as ``s(<vertex>)`` and nudged with primes until they
    collide with nothing.
    """
    if mode not in _MODES:
        raise GraphError(f"mode must be one of {_MODES}, got {mode!r}")
    edges = tuple(edges)
    vertices = tuple(vertices)
    taken = set(vertices) | {e.name for e in edges}
    fibers: dict[str, list[str]] = {}
    for e in edges:
        fibers.setdefault(e.src, []).append(e.name)
    blocks = []
    for v in vertices:
        fiber = tuple(fibers.get(v, ()))
        if not fiber:
            continue  # sinks and isolated vertices carry no block
        name = f"s({v})"
        while name in taken:
            name += "'"
        taken.add(name)
        blocks.append(Block(name, fiber))
    lam = tuple(b.name for b in blocks) if mode == "leavitt" else ()
    return validate_graph(SeparatedGraph(vertices, edges, tuple(blocks), lam))


def graph_from_data(data) -> SeparatedGraph:
    """Build and validate a SeparatedGraph from a decoded JSON document."""
    if not isinstance(data, dict):
        raise GraphError("document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise GraphError(f"unknown keys: {sorted(unknown)!r}")
    if "vertices" not in data or "edges" not in data:
        raise GraphError("document requires 'vertices' and 'edges'")

    vertices = _check_name_list(data["vertices"], "vertices")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("edges must be a list")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict):
            raise GraphError(f"edge entries must be objects, got {item!r}")
        if set(item) != _EDGE_KEYS:
            raise GraphError(
                f"edge object must have exactly keys name/src/tgt, got {sorted(item)!r}"
            )
        if not all(isinstance(item[k], str) and item[k] for k in _EDGE_KEYS):
            raise GraphError(f"edge fields must be nonempty strings: {item!r}")
        edges.append(Edge(item["name"], item["src"], item["tgt"]))
    edges = tuple(edges)

    has_partition = "partition" in data
    has_lambda = "lambda" in data
    mode = data.get("mode")
    if mode is not None and mode not in _MODES:
        raise GraphError(f"mode must be one of {_MODES}, got {mode!r}")

    if not has_partition:
        if has_lambda:
            raise GraphError("'lambda' requires an explicit 'partition'")
        return default_separation(vertices, edges, mode or "leavitt")

    raw_partition = data["partition"]
    if not isinstance(raw_partition, dict):
        raise GraphError("partition must be an object mapping block name to edges")
    partition = tuple(
        Block(name, _check_name_list(members, f"block {name!r} edges"))
        for name, members in raw_partition.items()
    )

    if has_lambda:
        if mode is not None:
            raise GraphError(
                "'mode' has no effect when 'partition' and 'lambda' are both given"
            )
        lam = _check_name_list(data["lambda"], "lambda")
    elif (mode or "leavitt") == "leavitt":
        lam = tuple(b.name for b in partition)
    else:
        lam = ()
    return validate_graph(SeparatedGraph(vertices, edges, partition, lam))


def parse_graph(text) -> SeparatedGraph:
    """Parse a UTF-8 JSON document (str or bytes) into a validated graph."""
    if isinstance(text, bytes):
        if text.startswith(b"\xef\xbb\xbf"):
            raise GraphError("document must be UTF-8 without BOM")
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"document is not valid UTF-8: {exc}") from exc
    elif text.startswith("﻿"):
        raise GraphError("document must be UTF-8 without BOM")
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise GraphError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise GraphError("document is nested too deeply") from None
    return graph_from_data(data)


def graph_to_data(g: SeparatedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"name": e.name, "src": e.src, "tgt": e.tgt} for e in g.edges],
        "partition": {b.name: list(b.edges) for b in g.partition},
        "lambda": list(g.lambda_blocks),
    }


def serialize_graph(g: SeparatedGraph) -> str:
    """Canonical document text; ``parse_graph`` round-trips it exactly."""
    return json.dumps(graph_to_data(g), ensure_ascii=False, indent=2) + "\n"
