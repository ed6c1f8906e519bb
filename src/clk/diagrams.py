"""Lattice-window diagrams of two-generator presentations.

The picture: lattice points are monoid elements, and every relation
contributes the segment joining its two sides plus all of that segment's
translates.  Restricted to the natural quadrant (origin excluded) the
path components are the semigroup's elements; over the full integer
lattice they present its Grothendieck group instead.

Only presentations with exactly two generators are drawable; higher rank
is an error rather than a misleading projection.  Output is a
self-contained SVG document or a DOT graph with pinned coordinates, byte
deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation

NATURAL = "natural"
FULL = "full"

# Most lattice points a window may hold; a 100000-node picture already
# renders to about 12 MB of SVG.
MAX_WINDOW_NODES = 100_000

EDGE_PALETTE = (
    "blue",
    "red",
    "green",
    "orange",
    "purple",
    "brown",
    "magenta",
    "teal",
)

COMPONENT_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

Point = tuple[int, int]


@dataclass(frozen=True)
class Window:
    """Inclusive per-axis bounds plus the lattice domain.

    "natural": nonnegative quadrant with the origin node omitted;
    "full": the whole integer lattice.
    """

    x: tuple[int, int]
    y: tuple[int, int]
    domain: str = NATURAL

    def __post_init__(self):
        if self.domain not in (NATURAL, FULL):
            raise ValueError(f"domain must be {NATURAL!r} or {FULL!r}")
        for lo, hi in (self.x, self.y):
            if lo > hi:
                raise ValueError(f"window bounds out of order: {lo}:{hi}")
            if self.domain == NATURAL and lo < 0:
                raise ValueError("natural-domain windows need bounds >= 0")
        nodes = (self.x[1] - self.x[0] + 1) * (self.y[1] - self.y[0] + 1)
        if nodes > MAX_WINDOW_NODES:
            raise ValueError(
                f"window has {nodes} lattice points, more than {MAX_WINDOW_NODES}"
            )


@dataclass(frozen=True)
class DiagramEdge:
    a: Point
    b: Point
    relation: str
    color_index: int


@dataclass(frozen=True)
class Diagram:
    window: Window
    axis_labels: tuple[str, str]
    nodes: tuple[Point, ...]
    edges: tuple[DiagramEdge, ...]


@dataclass(frozen=True)
class Component:
    nodes: tuple[Point, ...]
    touches_boundary: bool


@dataclass(frozen=True)
class ComponentLabeling:
    components: tuple[Component, ...]
    boundary: bool


def _require_planar(p: Presentation):
    if p.dim != 2:
        raise ValueError(
            f"diagrams need exactly 2 generators, presentation has {p.dim}"
        )


def build_diagram(p: Presentation, w: Window) -> Diagram:
    """All in-window nodes and all in-window relation translates."""
    _require_planar(p)
    (x0, x1), (y0, y1) = w.x, w.y
    nodes = tuple(
        (x, y)
        for x in range(x0, x1 + 1)
        for y in range(y0, y1 + 1)
        if not (w.domain == NATURAL and x == 0 and y == 0)
    )
    edges = []
    for index, rel in enumerate(p.relations):
        a, b = rel.lhs, rel.rhs
        if a == b:
            continue  # degenerate relation, no segment
        color = index % len(EDGE_PALETTE)
        ranges = []
        for axis, (lo, hi) in enumerate((w.x, w.y)):
            low_c = min(a[axis], b[axis])
            high_c = max(a[axis], b[axis])
            t_lo = lo - low_c
            if w.domain == NATURAL:
                t_lo = max(0, t_lo)  # translates stay in the quadrant
            t_hi = hi - high_c
            ranges.append(range(t_lo, t_hi + 1))
        for tx in ranges[0]:
            for ty in ranges[1]:
                edges.append(
                    DiagramEdge(
                        (a[0] + tx, a[1] + ty),
                        (b[0] + tx, b[1] + ty),
                        rel.name,
                        color,
                    )
                )
    return Diagram(w, (p.generators[0], p.generators[1]), nodes, tuple(edges))


def window_components(p: Presentation, w: Window) -> ComponentLabeling:
    """Union-find over in-window nodes and edges.

    A component touching the window border may continue outside it, so
    its label says nothing about elements beyond the window; the flags
    record that caveat.
    """
    return _label_components(build_diagram(p, w))


def _label_components(diagram: Diagram) -> ComponentLabeling:
    if diagram.window.domain != NATURAL:
        raise ValueError("component labelling needs a natural-domain window")
    parent: dict[Point, Point] = {n: n for n in diagram.nodes}

    def find(a: Point) -> Point:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for edge in diagram.edges:
        ra, rb = find(edge.a), find(edge.b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[Point, list[Point]] = {}
    for node in diagram.nodes:
        groups.setdefault(find(node), []).append(node)

    (x0, x1), (y0, y1) = diagram.window.x, diagram.window.y

    def on_border(n: Point) -> bool:
        return n[0] in (x0, x1) or n[1] in (y0, y1)

    components = tuple(
        Component(tuple(sorted(groups[root])), any(on_border(n) for n in groups[root]))
        for root in sorted(groups)
    )
    return ComponentLabeling(
        components, any(c.touches_boundary for c in components)
    )


def _component_color_of(labeling: ComponentLabeling) -> dict[Point, str]:
    colors = {}
    for i, comp in enumerate(labeling.components):
        for node in comp.nodes:
            colors[node] = COMPONENT_PALETTE[i % len(COMPONENT_PALETTE)]
    return colors


_SCALE = 40
_MARGIN = 40


def render_svg(diagram: Diagram, labeling: ComponentLabeling | None = None) -> str:
    (x0, x1), (y0, y1) = diagram.window.x, diagram.window.y
    width = (x1 - x0) * _SCALE + 2 * _MARGIN
    height = (y1 - y0) * _SCALE + 2 * _MARGIN

    def px(x: int) -> int:
        return _MARGIN + (x - x0) * _SCALE

    def py(y: int) -> int:
        return height - _MARGIN - (y - y0) * _SCALE

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        '<g font-family="sans-serif" font-size="12">',
    ]
    for x in range(x0, x1 + 1):
        out.append(
            f'<line x1="{px(x)}" y1="{py(y0)}" x2="{px(x)}" y2="{py(y1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for y in range(y0, y1 + 1):
        out.append(
            f'<line x1="{px(x0)}" y1="{py(y)}" x2="{px(x1)}" y2="{py(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for edge in diagram.edges:
        color = EDGE_PALETTE[edge.color_index]
        out.append(
            f'<line x1="{px(edge.a[0])}" y1="{py(edge.a[1])}" '
            f'x2="{px(edge.b[0])}" y2="{py(edge.b[1])}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
    node_colors = _component_color_of(labeling) if labeling else {}
    for node in diagram.nodes:
        fill = node_colors.get(node, "black")
        out.append(
            f'<circle cx="{px(node[0])}" cy="{py(node[1])}" r="3" fill="{fill}"/>'
        )
    for x in range(x0, x1 + 1):
        out.append(
            f'<text x="{px(x)}" y="{height - _MARGIN + 18}" '
            f'text-anchor="middle">{x}</text>'
        )
    for y in range(y0, y1 + 1):
        out.append(
            f'<text x="{_MARGIN - 10}" y="{py(y) + 4}" '
            f'text-anchor="end">{y}</text>'
        )
    xlabel, ylabel = diagram.axis_labels
    out.append(
        f'<text x="{width - 12}" y="{height - _MARGIN + 18}" '
        f'text-anchor="middle" font-style="italic">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="{_MARGIN - 10}" y="14" text-anchor="end" '
        f'font-style="italic">{_escape(ylabel)}</text>'
    )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(diagram: Diagram, labeling: ComponentLabeling | None = None) -> str:
    def node_id(n: Point) -> str:
        return _dot_quote(f"{n[0]},{n[1]}")

    node_colors = _component_color_of(labeling) if labeling else {}
    out = [
        "graph lattice_window {",
        "  node [shape=point, width=0.1];",
        f"  // axes: x = {diagram.axis_labels[0]}, y = {diagram.axis_labels[1]}",
    ]
    for n in diagram.nodes:
        attrs = [f'pos="{n[0]},{n[1]}!"']
        if n in node_colors:
            attrs.append(f'color="{node_colors[n]}"')
        out.append(f"  {node_id(n)} [{', '.join(attrs)}];")
    for edge in diagram.edges:
        color = EDGE_PALETTE[edge.color_index]
        out.append(
            f"  {node_id(edge.a)} -- {node_id(edge.b)} "
            f'[color="{color}", comment={_dot_quote(edge.relation)}];'
        )
    out.append("}")
    return "\n".join(out) + "\n"


def render_window(
    p: Presentation,
    w: Window,
    fmt: str = "svg",
    components: bool = False,
) -> str:
    """One-call renderer: build the diagram, optionally label components."""
    diagram = build_diagram(p, w)
    labeling = _label_components(diagram) if components else None
    if fmt == "svg":
        return render_svg(diagram, labeling)
    if fmt == "dot":
        return render_dot(diagram, labeling)
    raise ValueError(f"format must be 'svg' or 'dot', got {fmt!r}")
