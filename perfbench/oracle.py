"""Checks of clk's answers that do not use clk.

Each ``*_check`` function returns ``check(code, out)``, which raises
``Mismatch`` when the exit code or stdout is wrong.  Checks that need exact
lattice arithmetic return a zero-argument thunk instead of finishing: the
benchmark runs those after the timed loop, so that sympy is neither timed
nor counted in the workload's peak memory.

K0 answers are compared with sympy's Smith form.  The order of t in
Z^n / rowspan(M) is prod(factors of M) / prod(factors of M with t
appended), infinite when appending t raises the rank; rational span
membership is the same rank test.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from model import Mismatch, Model, expect, leq, scale

EXIT_OK, EXIT_NEGATIVE, EXIT_UNKNOWN = 0, 3, 5

_FROM_SUPERSCRIPT = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


class Lattice:
    """The row lattice of a model's relation matrix, via sympy."""

    def __init__(self, model: Model):
        self.rows = model.rows()
        self.dim = model.dim
        self._factors = None

    @staticmethod
    def _nonzero_factors(rows) -> list[int]:
        if not any(any(row) for row in rows):
            return []
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import invariant_factors

        return [abs(int(f)) for f in invariant_factors(Matrix(rows), domain=ZZ) if f]

    @property
    def factors(self) -> list[int]:
        if self._factors is None:
            self._factors = self._nonzero_factors(self.rows)
        return self._factors

    def group(self) -> tuple[int, list[int]]:
        """(free rank, nontrivial invariant factors) of the cokernel."""
        return self.dim - len(self.factors), [d for d in self.factors if d > 1]

    def order(self, t) -> int | None:
        """Order of t in the cokernel; None when it is infinite."""
        grown = self._nonzero_factors(self.rows + [list(t)])
        if len(grown) > len(self.factors):
            return None
        return math.prod(self.factors) // math.prod(grown)


# ------------------------------------------------------------------ parsing


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from None


def _codes(code: int, allowed) -> None:
    expect(code in allowed, f"exit code {code}, expected one of {sorted(allowed)}")


def _order_data(order: int | None) -> dict:
    return {"infinite": True} if order is None else {"finite": order}


def _parse_group(text: str) -> tuple[int, list[int]]:
    if text == "0":
        return 0, []
    free, torsion = 0, []
    for part in text.split(" ⊕ "):
        if part.startswith("ℤ/"):
            torsion.append(int(part[2:]))
        elif part == "ℤ":
            free = 1
        else:
            expect(part.startswith("ℤ"), f"unreadable group part {part!r}")
            free = int(part[1:].translate(_FROM_SUPERSCRIPT))
    return free, torsion


def _parse_order(text: str) -> int | None:
    if text == "infinite order":
        return None
    expect(text.startswith("order "), f"unreadable order {text!r}")
    return int(text[len("order "):])


def _steps(witness) -> list:
    return [
        (s["relation"], s["direction"] == "forward", tuple(s["to"])) for s in witness
    ]


# --------------------------------------------------------------- K0 and IBN


def k0_check(model: Model, as_json: bool, element=None, known=None):
    """``k0`` (optionally with ``--element``) against sympy; ``known`` is
    a worked example's (free rank, factors)."""

    def check(code, out):
        _codes(code, {EXIT_OK})
        unit = model.unit_sum(model.vertices)
        if as_json:
            data = _json(out)
            got = (data["free_rank"], data["invariant_factors"])
            orders = [data["unit_order"]]
            if element is not None:
                expect(data["element"] == list(element), "element echoed wrongly")
                orders.append(data["element_order"])
        else:
            lines = out.splitlines()
            expect(len(lines) == (1 if element is None else 2), "k0 line count")
            head, _, unit_part = lines[0].partition("; [L] has ")
            expect(head.startswith("K₀ ≅ "), f"unreadable k0 line {lines[0]!r}")
            got = _parse_group(head[len("K₀ ≅ "):])
            orders = [_order_data(_parse_order(unit_part))]
            if element is not None:
                sparse = [(i, c) for i, c in enumerate(element) if c]
                echo = f"[{model.format_vector(sparse)}] has "
                expect(lines[1].startswith(echo), "element echoed wrongly")
                orders.append(_order_data(_parse_order(lines[1][len(echo):])))
        if known is not None:
            expect(tuple(got) == tuple(known), f"K0 {got}, known {known}")

        def deferred():
            lattice = Lattice(model)
            free, torsion = lattice.group()
            expect(tuple(got) == (free, torsion), f"K0 {got}, sympy {free, torsion}")
            targets = [unit] + ([element] if element is not None else [])
            for t, o in zip(targets, orders):
                want = _order_data(lattice.order(t))
                expect(o == want, f"order of {t}: {o}, sympy {want}")

        return deferred

    return check


def _check_ibn_data(model: Model, data: dict, known_type=None):
    """An IBN verdict object; returns its deferred lattice part."""
    unit = model.unit_sum(model.vertices)
    cert = data["certificate"]
    if known_type is not None:
        expect(data["type"] == list(known_type), f"type {data['type']}, known {known_type}")
    if data["ibn"]:
        expect(cert == {"kind": "qspan-excluded"}, f"IBN certificate {cert}")
        expect(data["type"] is None, "IBN verdict carries a type")
        return lambda: expect(
            Lattice(model).order(unit) is None, "Σv is in the ℚ-span after all"
        )
    expect(cert["kind"] == "qspan-member", f"non-IBN certificate {cert}")
    coeffs = [Fraction(c) for c in cert["coefficients"]]
    expect(len(coeffs) == len(model.relations), "one coefficient per relation")
    combo = [Fraction(0)] * model.dim
    for c, row, rel in zip(coeffs, model.rows(), model.relations):
        expect(rel[3] or c == 0, f"ordinary relation {rel[0]} has coefficient {c}")
        for j, a in enumerate(row):
            combo[j] += c * a
    expect(combo == list(unit), "qspan-member coefficients do not recombine to Σv")
    if data["type"] is None:
        return None
    m, n = data["type"]

    def deferred():
        order = Lattice(model).order(unit)
        expect(
            order is not None and (n - m) % order == 0,
            f"type ({m},{n}) but Σv has K0 order {order}",
        )

    return deferred


def check_check(model: Model, as_json: bool, known_type=None, known_ibn=None):
    """``check`` verdict; Cohn documents are known to have IBN."""

    def check(code, out):
        if as_json:
            data = _json(out)
        else:
            expect(
                out == "IBN: yes (Σv ∉ ℚ-span)\ncertificate: qspan-excluded\n",
                f"unexpected check text {out!r}",
            )
            data = {"ibn": True, "certificate": {"kind": "qspan-excluded"}, "type": None}
        _codes(code, {EXIT_OK} if data["ibn"] else {EXIT_NEGATIVE})
        if known_ibn is not None:
            expect(data["ibn"] == known_ibn, f"IBN {data['ibn']}, known {known_ibn}")
        return _check_ibn_data(model, data, known_type)

    return check


# ------------------------------------------------------------ torsion/corner


def _check_torsion(model: Model, a: tuple, t: dict, max_multiple: int):
    if t["kind"] == "torsion":
        m, n = t["m"], t["n"]
        expect(1 <= m < n <= max_multiple, f"torsion type ({m},{n}) out of range")
        end = model.replay(scale(n, a), _steps(t["witness"]))
        expect(end == scale(m, a), f"torsion witness ends at {end}, not {m}·a")
        return None
    if t["certificate"] == "qspan-excluded":
        expect(t["bound"] is None and t["certified"], "qspan-excluded certificate form")
        return lambda: expect(Lattice(model).order(a) is None, "a has finite order")
    expect(t["bound"] == max_multiple, f"no-torsion bound {t['bound']}")
    expect(t["certified"] == (not t["unknown_probes"]), "certified flag disagrees")
    return None


def type_check(model: Model, max_multiple: int, known_type=None):
    def check(code, out):
        t = _json(out)
        unit = model.unit_sum(model.vertices)
        if t["kind"] == "torsion":
            _codes(code, {EXIT_NEGATIVE})
        else:
            _codes(code, {EXIT_OK} if t["bound"] is None else {EXIT_UNKNOWN})
        if known_type is not None:
            expect(
                t["kind"] == "torsion" and (t["m"], t["n"]) == tuple(known_type),
                f"type {t}, known {known_type}",
            )
        return _check_torsion(model, unit, t, max_multiple)

    return check


def corner_check(model: Model, vertex: str, max_multiple: int, known=None):
    def check(code, out):
        data = _json(out)
        alpha = model.unit_sum([vertex])
        verdict = data["verdict"]
        torsion = data["torsion"]
        isolated = data["isolated_support"] == "holds"
        passed = data["sufficient_test"] == "passed"
        expect(isolated == model.isolated_support([vertex]), "isolated support")
        if verdict["kind"] == "non-ibn":
            _codes(code, {EXIT_NEGATIVE})
            expect(torsion["kind"] == "torsion", "non-IBN corner without torsion")
            expect(verdict["type"] == [torsion["m"], torsion["n"]], "corner type")
        elif verdict["kind"] == "certified-ibn":
            _codes(code, {EXIT_OK})
            expect(passed or isolated, "certified IBN without a certificate")
            want = "sufficient-test" if passed else "isolated-support"
            expect(verdict["reason"] == want, f"reason {verdict['reason']}")
        else:
            _codes(code, {EXIT_UNKNOWN})
            expect(not (passed or isolated), "unknown corner with a certificate")
        if known is not None:
            expect(verdict == known, f"corner verdict {verdict}, known {known}")
        rest = _check_torsion(model, alpha, torsion, max_multiple)

        def deferred():
            excluded = Lattice(model).order(alpha) is None
            expect(passed == excluded, f"sufficient test {passed}, sympy {excluded}")
            if rest is not None:
                rest()

        return deferred

    return check


# ------------------------------------------------------------ semigroup


# Budget for confirming a closure answer, well above any budget the
# workloads give clk, so that confirmation does not depend on how clk
# spends its own budget.
CONFIRM_CAP = 50_000


def verify_closure(model: Model, a, y, got, max_multiple: int, screened) -> None:
    """Confirm clk's closure answer ``got`` = (status, k, dominating).

    ``screened`` is the model's own (status, k, hits, expanded) for the
    same question, computed while the corpus was generated.
    """
    status, k, dom = got
    own_status, own_k, hits, _ = screened
    if status == "yes":
        expect(leq(y, dom), f"{dom} does not dominate {y}")
        if own_status == "yes" and own_k == k and dom in hits:
            return
        outcome, _ = model.meet(scale(k, a), dom, CONFIRM_CAP)
        expect(outcome == "equivalent", f"{dom} is not in the class of {k}·a")
    elif status == "no-up-to-bound":
        expect(own_status != "yes", "the model found a dominating member")
        if own_status == "no-up-to-bound":
            return
        for j in range(1, max_multiple + 1):
            complete, members, _, _ = model.enumerate_class(scale(j, a), CONFIRM_CAP)
            expect(complete, f"class of {j}·a is not finite within the check budget")
            expect(not any(leq(y, m) for m in members), f"class of {j}·a dominates")


def progenerator_check(model: Model, a: tuple, max_multiple: int, screened):
    """``monoid --progenerator A --json``; ``screened`` maps each
    generator to the model's own closure answer."""
    code_of = {"yes": EXIT_OK, "no-up-to-bound": EXIT_NEGATIVE, "unknown": EXIT_UNKNOWN}

    def check(code, out):
        data = _json(out)
        per = data["per_generator"]
        expect(list(per) == model.generators, "generator order")
        statuses = {got["status"] for got in per.values()}
        if statuses == {"yes"}:
            overall = "yes"
        elif "no-up-to-bound" in statuses:
            overall = "no-up-to-bound"
        else:
            overall = "unknown"
        expect(data["status"] == overall, f"overall {data['status']} from {statuses}")
        _codes(code, {code_of[overall]})
        for g, got in per.items():
            if got["status"] == "yes":
                answer = ("yes", got["multiple"], tuple(got["dominating"]))
            else:
                expect(got["bound"] == max_multiple, f"{g}: bound {got['bound']}")
                answer = (got["status"], None, None)
            verify_closure(model, a, model.unit(g), answer, max_multiple, screened[g])
        return None

    return check


def closure_check(model: Model, a: tuple, y: tuple, max_multiple: int, screened):
    """``monoid --closure A|Y`` text."""

    def check(code, out):
        head = "yes: dominated by "
        if out.startswith(head):
            _codes(code, {EXIT_OK})
            dom_text, _, rest = out[len(head):].partition(" in the class of ")
            expect(rest.endswith("·a\n"), f"closure {out!r}")
            answer = ("yes", int(rest[:-3]), tuple(int(c) for c in dom_text.split(",")))
        elif out == f"no up to multiple {max_multiple} (all classes complete)\n":
            _codes(code, {EXIT_NEGATIVE})
            answer = ("no-up-to-bound", None, None)
        else:
            expect(out == f"unknown up to multiple {max_multiple}\n", f"closure {out!r}")
            _codes(code, {EXIT_UNKNOWN})
            answer = ("unknown", None, None)
        verify_closure(model, a, y, answer, max_multiple, screened)
        return None

    return check


def class_text(model: Model, x: tuple, complete: bool, members, expanded: int) -> str:
    """The exact text of ``monoid --class`` for a finished enumeration."""
    members = sorted(members)
    sparse = tuple((i, c) for i, c in enumerate(x) if c)
    lines = [
        f"class of {model.format_vector(sparse)}: "
        f"{'complete' if complete else 'partial'}, {len(members)} members, "
        f"{expanded} states visited"
    ]
    lines += ["  " + ",".join(map(str, m)) for m in members[:50]]
    if len(members) > 50:
        lines.append(f"  ... and {len(members) - 50} more")
    return "\n".join(lines) + "\n"


def text_check(expected_text: str, code_expected: int):
    def check(code, out):
        _codes(code, {code_expected})
        expect(out == expected_text, "stdout differs from the model's text")
        return None

    return check


def digest_check(digest: str, size: int):
    """Compare a large stdout by length and sha256 only."""
    import hashlib

    def check(code, out):
        _codes(code, {EXIT_OK})
        data = out.encode("utf-8")
        expect(len(data) == size, f"stdout has {len(data)} bytes, model {size}")
        expect(hashlib.sha256(data).hexdigest() == digest, "stdout digest differs")
        return None

    return check


def eq_check(model: Model, x: tuple, y: tuple, cap: int):
    """``monoid --eq X|Y --witness`` for a pair known to be equivalent."""

    def check(code, out):
        lines = out.splitlines()
        if lines and lines[0].startswith("unknown"):
            _codes(code, {EXIT_UNKNOWN})
            expect(lines == [f"unknown (visited {cap} states)"], f"eq {lines}")
            return None
        _codes(code, {EXIT_OK})
        expect(lines[0] == f"equivalent ({len(lines) - 2} steps)", f"eq {lines[0]!r}")
        expect(lines[1] == "  start " + ",".join(map(str, x)), "witness start")
        steps = []
        for line in lines[2:]:
            name, direction, _, to = line.strip().split(" ")
            steps.append((name, direction == "forward", tuple(map(int, to.split(",")))))
        expect(model.replay(x, steps) == y, "witness does not end at y")
        return None

    return check


def render_check(model: Model):
    """``render --components`` on the default natural window 0:4,0:4."""
    palette = ("blue", "red", "green", "orange", "purple", "brown", "magenta", "teal")
    nodes = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    strokes: dict[str, int] = {}
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for index, (_, lhs, rhs, _) in enumerate(model.relations):
        a, b = model.dense(lhs), model.dense(rhs)
        if a == b:
            continue
        lo = [max(0, -min(a[k], b[k])) for k in range(2)]
        hi = [4 - max(a[k], b[k]) for k in range(2)]
        for tx in range(lo[0], hi[0] + 1):
            for ty in range(lo[1], hi[1] + 1):
                color = palette[index % len(palette)]
                strokes[color] = strokes.get(color, 0) + 1
                u, v = find((a[0] + tx, a[1] + ty)), find((b[0] + tx, b[1] + ty))
                parent[max(u, v)] = min(u, v)
    components = len({find(n) for n in nodes})

    def check(code, out):
        _codes(code, {EXIT_OK})
        expect(out.startswith("<?xml") and out.endswith("</svg>\n"), "not an SVG")
        expect(out.count("<circle ") == len(nodes), "node count")
        for color in palette:
            got = out.count(f'stroke="{color}"')
            expect(got == strokes.get(color, 0), f"{color} strokes {got}")
        fills = {part.split('"')[0] for part in out.split('fill="')[1:]}
        expect(len(fills) == min(components, 10), f"{len(fills)} component colors")
        return None

    return check
