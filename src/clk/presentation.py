"""Commutative-semigroup presentations attached to separated graphs.

The generator list is the vertex list followed by the non-distinguished
block names, both in declaration order.  Each block contributes one
relation between formal sums of generators:

* distinguished block X with source v and edges e_1..e_k:
      v  =  t(e_1) + ... + t(e_k)
* ordinary block X:
      v  =  X + t(e_1) + ... + t(e_k)

Elements of the free commutative monoid are dense count vectors over the
generator list ("multivecs"), stored as plain int tuples; the semigroup
itself consists of the nonzero vectors modulo the rewriting closure of the
relations (see :mod:`clk.semigroup`).  Relation sides are sparse terms;
subtracting each relation's sides gives a dense integer matrix whose
cokernel is the K0 group of the associated path algebra.  The JSON text
of ``presentation_to_data`` is written from the terms by ``presentation_json``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .graphs import GraphError, SeparatedGraph
from .linalg import SNFResult, smith_normal_form

Vec = tuple[int, ...]
# Sparse vector: (index, count) pairs sorted by index, with no zero counts.
Terms = tuple[tuple[int, int], ...]

_INTEGER = re.compile(r"[+-]?[0-9]+")
# json.dumps(data, separators=(",", ":"), ensure_ascii=False), encoder built once.
compact_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(k: int, v: Vec) -> Vec:
    return tuple(k * a for a in v)


def vec_leq(u: Vec, v: Vec) -> bool:
    """Componentwise u <= v."""
    return all(a <= b for a, b in zip(u, v))


def is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def vec_from_terms(plus: Terms, dim: int, minus: Terms = ()) -> Vec:
    """The dense vector of ``plus`` minus ``minus``, both sparse terms."""
    counts = [0] * dim
    for i, c in plus:
        counts[i] += c
    for i, c in minus:
        counts[i] -= c
    return tuple(counts)


@dataclass(frozen=True)
class Relation:
    """One block relation, each side kept as sparse terms over ``dim`` generators.

    The rewriting engine reads the terms; ``lhs``, ``rhs`` and the signed
    difference ``row`` that linear algebra needs are dense, built on access.
    """

    name: str
    lhs_terms: Terms
    rhs_terms: Terms
    in_lambda: bool
    dim: int

    @property
    def lhs(self) -> Vec:
        return vec_from_terms(self.lhs_terms, self.dim)

    @property
    def rhs(self) -> Vec:
        return vec_from_terms(self.rhs_terms, self.dim)

    @property
    def row(self) -> Vec:
        return vec_from_terms(self.lhs_terms, self.dim, self.rhs_terms)


@dataclass(frozen=True)
class Presentation:
    graph: SeparatedGraph
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]

    @property
    def dim(self) -> int:
        return len(self.generators)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.generators)}

    @cached_property
    def smith(self) -> SNFResult:
        """The Smith form of the relation matrix, computed on first use.

        Every integer span, element order and K0 read of this
        presentation comes from this one factorization.
        """
        return smith_normal_form(relation_matrix(self), cols=self.dim)

    def index(self, generator: str) -> int:
        try:
            return self._positions[generator]
        except KeyError:
            raise GraphError(f"unknown generator {generator!r}") from None

    def unit(self, generator: str) -> Vec:
        return vec_from_terms(((self.index(generator), 1),), self.dim)


def build_presentation(g: SeparatedGraph) -> Presentation:
    """Generators and block relations of ``g``, in declaration order."""
    lam = g.lambda_set
    block_gens = tuple(b.name for b in g.partition if b.name not in lam)
    vertices = set(g.vertices)
    for name in block_gens:
        if name in vertices:
            raise GraphError(
                f"block {name!r} outside lambda collides with a vertex name; "
                "rename one of them"
            )
    generators = g.vertices + block_gens
    index = {name: i for i, name in enumerate(generators)}
    dim = len(generators)

    relations = []
    for block in g.partition:
        lhs = ((index[g.block_source(block)], 1),)
        rhs = Counter(index[g.edge(name).tgt] for name in block.edges)
        in_lambda = block.name in lam
        if not in_lambda:
            rhs[index[block.name]] = 1
        rhs_terms = tuple(sorted(rhs.items()))
        relations.append(Relation(block.name, lhs, rhs_terms, in_lambda, dim))
    return Presentation(g, generators, tuple(relations))


def relation_matrix(p: Presentation) -> tuple[Vec, ...]:
    """One signed row (lhs - rhs) per relation, in relation order."""
    return tuple(rel.row for rel in p.relations)


def unit_sum(p: Presentation, vertices) -> Vec:
    """The 0/1 vector with a single count on each vertex of ``vertices``.

    Passing every vertex yields the distinguished element representing the
    rank-one free module class.
    """
    vertices = tuple(vertices)
    if not vertices:
        raise GraphError("vertex subset must be nonempty")
    counts = [0] * p.dim
    for v in vertices:
        # Vertices come first among the generators.
        i = p._positions.get(v, p.dim)
        if i >= len(p.graph.vertices):
            raise GraphError(f"unknown vertex {v!r}")
        if counts[i]:
            raise GraphError(f"duplicate vertex {v!r}")
        counts[i] = 1
    return tuple(counts)


def full_unit_sum(p: Presentation) -> Vec:
    return unit_sum(p, p.graph.vertices)


def parse_vector(p: Presentation, text: str, signed: bool = False) -> Vec:
    """Comma-separated counts in generator order.

    Semigroup elements are nonnegative; pass ``signed=True`` for group
    elements (arbitrary integers).
    """
    try:
        counts = tuple(parse_int(s) for s in text.split(","))
    except ValueError:
        raise GraphError(f"malformed vector {text!r}") from None
    if len(counts) != p.dim:
        raise GraphError(
            f"vector {text!r} has {len(counts)} entries, expected {p.dim} "
            f"(generators: {', '.join(p.generators)})"
        )
    if not signed and any(c < 0 for c in counts):
        raise GraphError(f"vector {text!r} has negative counts")
    return counts


def parse_int(text: str) -> int:
    """An optional sign and ASCII digits, surrounding whitespace allowed."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def format_terms(p: Presentation, terms) -> str:
    """Render (index, count) terms as a formal sum, e.g. ``v + 2·w``."""
    names = p.generators
    parts = [names[i] if c == 1 else f"{c}·{names[i]}" for i, c in terms if c]
    return " + ".join(parts) if parts else "0"


def format_vector(p: Presentation, v: Vec) -> str:
    """Render a count vector as a formal sum, e.g. ``v + 2·w``."""
    return format_terms(p, zip(range(p.dim), v))


def presentation_to_data(p: Presentation) -> dict:
    return {
        "generators": list(p.generators),
        "relations": [
            {
                "name": rel.name,
                "lhs": list(rel.lhs),
                "rhs": list(rel.rhs),
                "in_lambda": rel.in_lambda,
            }
            for rel in p.relations
        ],
    }


def presentation_json(p: Presentation) -> str:
    """``compact_json(presentation_to_data(p))``, with no dense side built.

    Each side splices its terms into one shared ``0,0,...,0`` string, in
    which generator i sits at offset 2i.
    """
    zeros = ",".join("0" * p.dim)

    def side(terms: Terms) -> str:
        parts, at = ["["], 0
        for i, c in terms:
            parts += (zeros[at : 2 * i], str(c))
            at = 2 * i + 1
        return "".join(parts) + zeros[at:] + "]"

    relations = ",".join(
        f'{{"name":{compact_json(rel.name)},"lhs":{side(rel.lhs_terms)},"rhs":'
        f'{side(rel.rhs_terms)},"in_lambda":{("false", "true")[rel.in_lambda]}}}'
        for rel in p.relations
    )
    generators = compact_json(list(p.generators))
    return f'{{"generators":{generators},"relations":[{relations}]}}'
