from __future__ import annotations

import random
from collections import Counter

import pytest

from clk import (
    Window,
    build_diagram,
    equivalent,
    render_dot,
    render_svg,
    render_window,
    window_components,
)
from clk.diagrams import FULL, MAX_WINDOW_NODES, NATURAL

from helpers import (
    edgeless_doc,
    presentation_of,
    random_graph_doc,
    toeplitz_doc,
    two_block_doc,
)


@pytest.fixture(scope="module")
def toeplitz():
    return presentation_of(toeplitz_doc())


@pytest.fixture(scope="module")
def l25():
    return presentation_of(two_block_doc(2, 5))


def brute_edges(p, w):
    """Independent translate enumeration over a padded parameter box."""
    (x0, x1), (y0, y1) = w.x, w.y
    pad = 8
    edges = set()
    for index, rel in enumerate(p.relations):
        a, b = rel.lhs, rel.rhs
        if a == b:
            continue
        for tx in range(x0 - pad, x1 + pad + 1):
            for ty in range(y0 - pad, y1 + pad + 1):
                if w.domain == NATURAL and (tx < 0 or ty < 0):
                    continue
                pa = (a[0] + tx, a[1] + ty)
                pb = (b[0] + tx, b[1] + ty)
                if all(
                    x0 <= q[0] <= x1 and y0 <= q[1] <= y1 for q in (pa, pb)
                ):
                    edges.add((pa, pb, index))
    return edges


def test_l25_window_edge_counts(l25):
    d = build_diagram(l25, Window((0, 4), (0, 5)))
    counts = Counter(e.color_index for e in d.edges)
    assert counts[0] == 16  # first relation, drawn blue
    assert counts[1] == 4   # second relation, drawn red


def test_toeplitz_natural_window(toeplitz):
    d = build_diagram(toeplitz, Window((0, 4), (0, 4)))
    assert len(d.edges) == 16
    assert sorted({e.a[0] for e in d.edges}) == [1, 2, 3, 4]
    assert all(e.a[0] == e.b[0] for e in d.edges)  # all segments vertical
    assert (0, 0) not in d.nodes
    assert len(d.nodes) == 24


def test_toeplitz_full_lattice_window(toeplitz):
    d = build_diagram(toeplitz, Window((-1, 3), (-2, 4), FULL))
    assert sorted({e.a[0] for e in d.edges}) == [-1, 0, 1, 2, 3]
    assert (0, 0) in d.nodes


def test_edge_translates_match_brute_enumeration():
    rng = random.Random(61)
    checked = 0
    while checked < 60:
        doc = random_graph_doc(rng, max_vertices=2, max_edges=5)
        p = presentation_of(doc)
        if p.dim != 2:
            continue
        window = Window(
            (0, rng.randint(0, 4)),
            (0, rng.randint(0, 4)),
        )
        if rng.random() < 0.3:
            window = Window(
                (rng.randint(-3, 0), rng.randint(1, 3)),
                (rng.randint(-3, 0), rng.randint(1, 3)),
                FULL,
            )
        d = build_diagram(p, window)
        got = {(e.a, e.b, e.color_index) for e in d.edges}
        want = {
            (a, b, idx % 8) for a, b, idx in brute_edges(p, window)
        }
        assert got == want
        checked += 1


def test_toeplitz_components(toeplitz):
    lab = window_components(toeplitz, Window((0, 4), (0, 4)))
    assert len(lab.components) == 8
    sizes = sorted(len(c.nodes) for c in lab.components)
    assert sizes == [1, 1, 1, 1, 5, 5, 5, 5]


def test_l25_component_of_v(l25):
    lab = window_components(l25, Window((0, 4), (0, 5)))
    of = {}
    for i, comp in enumerate(lab.components):
        for node in comp.nodes:
            of[node] = i
    assert of[(1, 0)] == of[(0, 2)] == of[(0, 5)]


def test_edgeless_every_node_isolated():
    p = presentation_of(edgeless_doc(2))
    lab = window_components(p, Window((0, 2), (0, 2)))
    assert all(len(c.nodes) == 1 for c in lab.components)
    assert len(lab.components) == 8  # 9 lattice points minus the origin


def test_same_label_implies_equivalent(toeplitz, l25):
    for p in (toeplitz, l25):
        lab = window_components(p, Window((0, 3), (0, 4)))
        for comp in lab.components:
            anchor = comp.nodes[0]
            for node in comp.nodes[1:]:
                out = equivalent(p, anchor, node)
                assert out.__class__.__name__ == "Equivalent"


def test_label_partition_matches_equivalence_on_worked_examples(toeplitz, l25):
    # same label always implies equivalent; the converse is only promised
    # for components that stay clear of the window border (a component
    # touching the border may merge with others outside the window)
    for p, window in (
        (toeplitz, Window((0, 4), (0, 4))),
        (l25, Window((0, 4), (0, 5))),
    ):
        lab = window_components(p, window)
        of = {}
        interior = {}
        for i, comp in enumerate(lab.components):
            for node in comp.nodes:
                of[node] = i
                interior[node] = not comp.touches_boundary
        nodes = sorted(of)
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                out = equivalent(p, a, b)
                same = out.__class__.__name__ == "Equivalent"
                if of[a] == of[b]:
                    assert same, (a, b)
                elif interior[a] and interior[b]:
                    assert not same, (a, b)


def test_higher_rank_is_an_error():
    doc = toeplitz_doc()
    doc["lambda"] = []  # block generator pushes the rank to 3
    p = presentation_of(doc)
    with pytest.raises(ValueError, match="2 generators"):
        build_diagram(p, Window((0, 2), (0, 2)))


def test_window_validation():
    with pytest.raises(ValueError):
        Window((3, 1), (0, 2))
    with pytest.raises(ValueError):
        Window((-1, 1), (0, 2), NATURAL)
    with pytest.raises(ValueError):
        Window((0, 1), (0, 2), "diagonal")
    with pytest.raises(ValueError):
        window_components(
            presentation_of(toeplitz_doc()), Window((0, 1), (0, 1), FULL)
        )


def test_window_node_cap():
    Window((0, MAX_WINDOW_NODES - 1), (0, 0))  # exactly at the cap
    Window((1, 2), (1, MAX_WINDOW_NODES // 2), FULL)
    with pytest.raises(ValueError, match="lattice points"):
        Window((0, MAX_WINDOW_NODES), (0, 0))
    with pytest.raises(ValueError, match="lattice points"):
        Window((-100_000, 100_000), (-100_000, 100_000), FULL)


def test_svg_is_byte_deterministic(toeplitz):
    a = render_window(toeplitz, Window((0, 4), (0, 4)), "svg", components=True)
    b = render_window(toeplitz, Window((0, 4), (0, 4)), "svg", components=True)
    assert a == b
    assert a.startswith("<?xml")
    assert "<svg" in a and a.rstrip().endswith("</svg>")


def test_svg_edge_colors(l25):
    svg = render_window(l25, Window((0, 4), (0, 5)), "svg")
    assert svg.count('stroke="blue"') == 16
    assert svg.count('stroke="red"') == 4


def test_dot_output_pins_positions(toeplitz):
    dot = render_dot(build_diagram(toeplitz, Window((0, 2), (0, 2))))
    assert dot.startswith("graph lattice_window {")
    assert '"1,0" [pos="1,0!"];' in dot
    assert '"1,0" -- "1,1" [color="blue"' in dot
    assert dot == render_dot(build_diagram(toeplitz, Window((0, 2), (0, 2))))


def test_component_coloring_marks_nodes(toeplitz):
    plain = render_svg(build_diagram(toeplitz, Window((0, 3), (0, 3))))
    colored = render_window(toeplitz, Window((0, 3), (0, 3)), "svg", components=True)
    assert plain.count('fill="black"') > 0
    assert colored.count('fill="black"') == 0  # every node got a component color
