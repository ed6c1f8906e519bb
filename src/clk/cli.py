"""Command-line front end.

Subcommands: check, k0, type, corner, monoid, render, info.  Input is a
positional document path or ``-`` for stdin.  Exit codes are uniform
across subcommands: 0 positive verdict, 3 negative verdict, 4 input
error, 5 inconclusive.  ``--json`` switches to compact, schema-stable
JSON; identical invocations produce byte-identical output.  Set
CLK_COLOR=never to suppress ANSI colors (default: auto, tty only).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .diagrams import FULL, NATURAL, Window, render_window
from .graphs import GraphError, SeparatedGraph, graph_to_data, parse_graph
from .ktheory import (
    QSpanMember,
    algebra_type,
    corner_report,
    corner_to_data,
    ibn_of_algebra,
    ibn_verdict_to_data,
    k0_report,
    k0_to_data,
    order_to_data,
)
from .linalg import Finite
from .presentation import (
    Presentation,
    build_presentation,
    compact_json,
    format_terms,
    format_vector,
    full_unit_sum,
    parse_int,
    parse_vector,
    presentation_json,
)
from .semigroup import (
    Budget,
    Equivalent,
    Inequivalent,
    Torsion,
    class_enumerate,
    closure_contains,
    closure_to_data,
    eq_outcome_to_data,
    equivalent,
    is_progenerator,
    torsion_to_data,
    torsion_type,
)

EXIT_OK = 0
EXIT_NEGATIVE = 3
EXIT_INPUT = 4
EXIT_UNKNOWN = 5
_STATUS_EXIT = {"yes": EXIT_OK, "no-up-to-bound": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}
_CORNER_EXIT = {"certified-ibn": EXIT_OK, "non-ibn": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}

_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _color_enabled() -> bool:
    if os.environ.get("CLK_COLOR", "auto") == "never":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _green(text: str) -> str:
    return _paint(text, "32")


def _red(text: str) -> str:
    return _paint(text, "31")


def _yellow(text: str) -> str:
    return _paint(text, "33")


def _read_document(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _load(args) -> tuple[SeparatedGraph, Presentation]:
    graph = parse_graph(_read_document(args.input))
    return graph, build_presentation(graph)


def _budget(args) -> Budget:
    try:
        return Budget(args.max_states, args.max_multiple)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc


def _emit_json(data) -> None:
    print(compact_json(data))


def _group_string(free_rank: int, factors) -> str:
    parts = [f"ℤ/{d}" for d in factors]
    if free_rank == 1:
        parts.append("ℤ")
    elif free_rank > 1:
        parts.append("ℤ" + str(free_rank).translate(_SUPERSCRIPT))
    return " ⊕ ".join(parts) if parts else "0"


def _order_string(order) -> str:
    if isinstance(order, Finite):
        return f"order {order.order}"
    return "infinite order"


def _torsion_line(t) -> str:
    if isinstance(t, Torsion):
        return f"torsion of type ({t.m},{t.n}), witness of {len(t.witness)} steps"
    if t.bound is None:
        return f"no torsion (certificate: {t.certificate})"
    if t.certified:
        return f"no torsion found up to {t.bound} (all probes certified)"
    return (
        f"no torsion found up to {t.bound} "
        f"({len(t.unknown_probes)} probes unresolved)"
    )


def _relation_line(p: Presentation, rel) -> str:
    lhs, rhs = (format_terms(p, terms) for terms in (rel.lhs_terms, rel.rhs_terms))
    return f"{rel.name}: {lhs} = {rhs}"


def _print_witness(start, witness) -> None:
    print("  start " + ",".join(str(c) for c in start))
    for step in witness:
        direction = "forward" if step.forward else "backward"
        to = ",".join(str(c) for c in step.result)
        print(f"  {step.relation} {direction} -> {to}")


def cmd_check(args) -> int:
    _, p = _load(args)
    verdict = ibn_of_algebra(p)
    if not verdict.ibn:
        ttype = torsion_type(p, full_unit_sum(p), _budget(args))
        if isinstance(ttype, Torsion):
            verdict = replace(verdict, type_if_known=(ttype.m, ttype.n))
    if args.json:
        _emit_json(ibn_verdict_to_data(verdict))
    elif verdict.ibn:
        print(f"IBN: {_green('yes')} (Σv ∉ ℚ-span)")
        print("certificate: qspan-excluded")
    else:
        if verdict.type_if_known:
            m, n = verdict.type_if_known
            print(f"IBN: {_red('no')}; type ({m},{n})")
        else:
            print(f"IBN: {_red('no')}; type not determined within budget")
        cert = verdict.certificate
        assert isinstance(cert, QSpanMember)
        coeffs = ", ".join(str(c) for c in cert.coefficients)
        print(f"certificate: qspan-member; coefficients: {coeffs}")
    return EXIT_OK if verdict.ibn else EXIT_NEGATIVE


def cmd_k0(args) -> int:
    _, p = _load(args)
    report = k0_report(p)
    element = None
    element_order = None
    if args.element is not None:
        element = parse_vector(p, args.element, signed=True)
        element_order = p.smith.order(element)
    if args.json:
        data = k0_to_data(report)
        if element is not None:
            data["element"] = list(element)
            data["element_order"] = order_to_data(element_order)
        _emit_json(data)
    else:
        group = _group_string(report.free_rank, report.invariant_factors)
        print(f"K₀ ≅ {group}; [L] has {_order_string(report.unit_order)}")
        if element is not None:
            print(
                f"[{format_vector(p, element)}] has {_order_string(element_order)}"
            )
    return EXIT_OK


def cmd_type(args) -> int:
    _, p = _load(args)
    ttype = algebra_type(p, _budget(args))
    if args.json:
        _emit_json(torsion_to_data(ttype))
    else:
        print(f"type: {_torsion_line(ttype)}")
    if isinstance(ttype, Torsion):
        return EXIT_NEGATIVE
    if ttype.bound is None:
        return EXIT_OK
    return EXIT_UNKNOWN


def cmd_corner(args) -> int:
    _, p = _load(args)
    vertices = [v.strip() for v in args.vertices.split(",") if v.strip()]
    report = corner_report(p, vertices, _budget(args))
    if args.json:
        _emit_json(corner_to_data(report))
    else:
        label = "{" + ", ".join(report.vertices) + "}"
        if report.verdict == "certified-ibn":
            print(f"corner {label}: {_green('certified IBN')} ({report.reason})")
        elif report.verdict == "non-ibn":
            m, n = report.corner_type
            print(f"corner {label}: {_red('non-IBN')} of type ({m},{n})")
        else:
            print(f"corner {label}: {_yellow('unknown')}")
        passed = "passed" if report.sufficient_test_passed else "inconclusive"
        holds = "holds" if report.isolated_support_holds else "fails"
        print(f"sufficient test: {passed}")
        print(f"isolated support: {holds}")
        print(f"torsion: {_torsion_line(report.torsion)}")
    return _CORNER_EXIT[report.verdict]


def _split_pair(text: str, what: str) -> tuple[str, str]:
    parts = text.split("|")
    if len(parts) != 2:
        raise GraphError(f"{what} wants 'VECTOR|VECTOR', got {text!r}")
    return parts[0], parts[1]


def cmd_monoid(args) -> int:
    _, p = _load(args)
    budget = _budget(args)

    if args.eq is not None:
        left_text, right_text = _split_pair(args.eq, "--eq")
        x = parse_vector(p, left_text)
        y = parse_vector(p, right_text)
        out = equivalent(p, x, y, budget)
        if args.json:
            _emit_json(eq_outcome_to_data(out))
        elif isinstance(out, Equivalent):
            print(f"{_green('equivalent')} ({len(out.witness)} steps)")
            if args.witness:
                _print_witness(x, out.witness)
        elif isinstance(out, Inequivalent):
            detail = out.certificate
            if out.complete_side is not None:
                detail += (
                    f"; {out.complete_side} class complete, "
                    f"{out.class_size} members"
                )
            print(f"{_red('inequivalent')} ({detail})")
        else:
            print(f"{_yellow('unknown')} (visited {out.visited} states)")
        if isinstance(out, Equivalent):
            return EXIT_OK
        if isinstance(out, Inequivalent):
            return EXIT_NEGATIVE
        return EXIT_UNKNOWN

    if args.cls is not None:
        x = parse_vector(p, args.cls)
        enumeration = class_enumerate(p, x, budget)
        if args.json:
            _emit_json(
                {
                    "complete": enumeration.complete,
                    "visited": enumeration.visited,
                    "members": [list(v) for v in enumeration.members],
                }
            )
        else:
            status = "complete" if enumeration.complete else "partial"
            print(
                f"class of {format_vector(p, x)}: {status}, "
                f"{len(enumeration.members)} members, "
                f"{enumeration.visited} states visited"
            )
            shown = enumeration.members[:50]
            for member in shown:
                print("  " + ",".join(str(c) for c in member))
            rest = len(enumeration.members) - len(shown)
            if rest:
                print(f"  ... and {rest} more")
        return EXIT_OK if enumeration.complete else EXIT_UNKNOWN

    if args.closure is not None:
        a_text, y_text = _split_pair(args.closure, "--closure")
        a = parse_vector(p, a_text)
        y = parse_vector(p, y_text)
        out = closure_contains(p, a, y, budget)
        if args.json:
            _emit_json(closure_to_data(out))
        elif out.status == "yes":
            dom = ",".join(str(c) for c in out.dominating)
            print(
                f"{_green('yes')}: dominated by {dom} "
                f"in the class of {out.multiple}·a"
            )
        elif out.status == "no-up-to-bound":
            print(f"{_red('no')} up to multiple {out.bound} (all classes complete)")
        else:
            print(f"{_yellow('unknown')} up to multiple {out.bound}")
        return _STATUS_EXIT[out.status]

    if args.progenerator is not None:
        a = parse_vector(p, args.progenerator)
        report = is_progenerator(p, a, budget)
        if args.json:
            _emit_json(
                {
                    "status": report.status,
                    "per_generator": {
                        g: closure_to_data(out) for g, out in report.per_generator
                    },
                }
            )
        else:
            word = {
                "yes": _green("yes"),
                "no-up-to-bound": _red("no (up to bound)"),
                "unknown": _yellow("unknown"),
            }[report.status]
            print(f"progenerator: {word}")
            for g, out in report.per_generator:
                print(f"  {g}: {out.status}")
        return _STATUS_EXIT[report.status]

    # No query flag: emit the presentation itself.
    if args.json:
        print(presentation_json(p))
    else:
        print("generators: " + ", ".join(p.generators))
        for rel in p.relations:
            mark = " (distinguished)" if rel.in_lambda else ""
            print(f"  {_relation_line(p, rel)}{mark}")
    return EXIT_OK


def cmd_render(args) -> int:
    _, p = _load(args)
    try:
        window = _parse_window(args.window, args.domain)
        document = render_window(p, window, args.format, args.components)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
    else:
        sys.stdout.write(document)
    return EXIT_OK


def _parse_window(text: str, domain_flag: str) -> Window:
    try:
        xpart, ypart = text.split(",")
        x0, x1 = (parse_int(s) for s in xpart.split(":"))
        y0, y1 = (parse_int(s) for s in ypart.split(":"))
    except ValueError:
        raise GraphError(
            f"--window wants 'X0:X1,Y0:Y1', got {text!r}"
        ) from None
    domain = NATURAL if domain_flag == "n" else FULL
    return Window((x0, x1), (y0, y1), domain)


def cmd_info(args) -> int:
    graph, p = _load(args)
    if args.json:
        graph_json = compact_json(graph_to_data(graph))
        print(f'{{"graph":{graph_json},"presentation":{presentation_json(p)}}}')
        return EXIT_OK
    print(f"vertices ({len(graph.vertices)}): " + ", ".join(graph.vertices))
    print(f"edges ({len(graph.edges)}):")
    for e in graph.edges:
        print(f"  {e.name}: {e.src} -> {e.tgt}")
    sinks = graph.sinks()
    if sinks:
        print("sinks: " + ", ".join(sinks))
    print(f"blocks ({len(graph.partition)}):")
    for b in graph.partition:
        mark = " ∈ Λ" if b.name in graph.lambda_set else ""
        print(f"  {b.name}{mark}: {{{', '.join(b.edges)}}}")
    print("generators: " + ", ".join(p.generators))
    print("relations:")
    for rel in p.relations:
        print(f"  {_relation_line(p, rel)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="graph document path, or - for stdin")
    common.add_argument("--json", action="store_true", help="emit compact JSON")
    common.add_argument(
        "--max-states",
        type=int,
        default=100_000,
        metavar="N",
        help="BFS node budget per search (default 100000)",
    )
    common.add_argument(
        "--max-multiple",
        type=int,
        default=64,
        metavar="K",
        help="largest multiple probed by torsion/closure searches (default 64)",
    )

    parser = argparse.ArgumentParser(
        prog="clk",
        description=(
            "Invariant-basis-number verdicts, K0 invariants, and graph-"
            "semigroup searches for separated Cohn-Leavitt path algebras."
        ),
    )
    parser.add_argument("--version", action="version", version=f"clk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", parents=[common], help="decide whether the algebra has IBN"
    )
    p_check.set_defaults(func=cmd_check)

    p_k0 = sub.add_parser(
        "k0", parents=[common], help="K0 invariants of the relation matrix"
    )
    p_k0.add_argument(
        "--element",
        metavar="VEC",
        help="also report the K0 order of this vector "
        "(comma-separated integers, negatives allowed)",
    )
    p_k0.set_defaults(func=cmd_k0)

    p_type = sub.add_parser(
        "type", parents=[common], help="torsion type of the unit-sum element"
    )
    p_type.set_defaults(func=cmd_type)

    p_corner = sub.add_parser(
        "corner", parents=[common], help="IBN verdict for a corner idempotent"
    )
    p_corner.add_argument(
        "--vertices", required=True, metavar="V1,V2,...",
        help="vertex subset carrying the idempotent",
    )
    p_corner.set_defaults(func=cmd_corner)

    p_monoid = sub.add_parser(
        "monoid", parents=[common], help="word-problem queries in the semigroup"
    )
    group = p_monoid.add_mutually_exclusive_group()
    group.add_argument("--eq", metavar="X|Y", help="are two vectors equivalent?")
    group.add_argument(
        "--class", dest="cls", metavar="X", help="enumerate the class of a vector"
    )
    group.add_argument(
        "--closure", metavar="A|Y", help="is y below some multiple of a?"
    )
    group.add_argument(
        "--progenerator", metavar="A", help="does a dominate every generator?"
    )
    p_monoid.add_argument(
        "--witness", action="store_true", help="print rewrite witnesses"
    )
    p_monoid.set_defaults(func=cmd_monoid)

    p_render = sub.add_parser(
        "render", parents=[common], help="draw the lattice window diagram"
    )
    p_render.add_argument(
        "--window", default="0:4,0:4", metavar="X0:X1,Y0:Y1",
        help="inclusive bounds per axis (default 0:4,0:4)",
    )
    p_render.add_argument(
        "--domain", choices=("n", "z"), default="n",
        help="n: natural quadrant without origin; z: full integer lattice",
    )
    p_render.add_argument("--format", choices=("svg", "dot"), default="svg")
    p_render.add_argument(
        "--components", action="store_true",
        help="color nodes by in-window path component (natural domain only)",
    )
    p_render.add_argument("--output", metavar="FILE", help="write here, not stdout")
    p_render.set_defaults(func=cmd_render)

    p_info = sub.add_parser(
        "info", parents=[common], help="summarize the graph and its presentation"
    )
    p_info.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
