"""The benchmark's own model of a clk document: presentation, rewrites,
searches and output formatting.

Nothing here imports clk.  The presentation is rebuilt from the document
by the formula in the README (generators are the vertices followed by the
non-distinguished blocks; each block X with source v gives v = t(e_1) +
... + t(e_k), plus X itself when X is not distinguished).  Searches follow
clk's documented contract (breadth-first, each layer in lexicographic
order, a state budget counted in expansions), so an honest answer from clk
can be confirmed exactly, and corpus generation can tell how much search
a request will need before clk ever sees it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from operator import add


class Mismatch(Exception):
    """clk gave an answer that the benchmark's own model rejects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def scale(k: int, v: tuple) -> tuple:
    return tuple(k * a for a in v)


def leq(u: tuple, v: tuple) -> bool:
    return all(a <= b for a, b in zip(u, v))


def fibers(vertices, edges) -> dict[str, list[str]]:
    """Outgoing edge names of each vertex, in edge order."""
    out: dict[str, list[str]] = {v: [] for v in vertices}
    for name, src, _ in edges:
        out[src].append(name)
    return out


def _default_blocks(vertices, edges):
    taken = set(vertices) | {name for name, _, _ in edges}
    blocks = []
    for v, fiber in fibers(vertices, edges).items():
        if not fiber:
            continue
        name = f"s({v})"
        while name in taken:
            name += "'"
        taken.add(name)
        blocks.append((name, fiber))
    return blocks


class Model:
    """A separated graph and its semigroup presentation, from a document."""

    def __init__(self, doc: dict):
        self.vertices = list(doc["vertices"])
        self.edges = [(e["name"], e["src"], e["tgt"]) for e in doc["edges"]]
        mode = doc.get("mode", "leavitt")
        if "partition" in doc:
            self.blocks = [(name, list(es)) for name, es in doc["partition"].items()]
        else:
            self.blocks = _default_blocks(self.vertices, self.edges)
        if "lambda" in doc:
            self.lambda_blocks = list(doc["lambda"])
        elif mode == "leavitt":
            self.lambda_blocks = [name for name, _ in self.blocks]
        else:
            self.lambda_blocks = []
        lam = set(self.lambda_blocks)
        self.generators = self.vertices + [b for b, _ in self.blocks if b not in lam]
        self.dim = len(self.generators)
        index = {g: i for i, g in enumerate(self.generators)}
        src_of = {name: src for name, src, _ in self.edges}
        tgt_of = {name: tgt for name, _, tgt in self.edges}
        # Relations as (name, lhs, rhs, in_lambda) with sparse sides:
        # sorted tuples of (generator index, count).
        self.relations = []
        for name, es in self.blocks:
            rhs: dict[int, int] = {}
            for e in es:
                t = index[tgt_of[e]]
                rhs[t] = rhs.get(t, 0) + 1
            if name not in lam:
                rhs[index[name]] = 1
            lhs = ((index[src_of[es[0]]], 1),)
            self.relations.append((name, lhs, tuple(sorted(rhs.items())), name in lam))
        self._moves = None

    # ------------------------------------------------------------ vectors

    def dense(self, sparse) -> tuple:
        out = [0] * self.dim
        for i, c in sparse:
            out[i] += c
        return tuple(out)

    def rows(self) -> list[list[int]]:
        """Signed relation rows lhs - rhs, in relation order."""
        out = []
        for _, lhs, rhs, _ in self.relations:
            row = [0] * self.dim
            for i, c in lhs:
                row[i] += c
            for i, c in rhs:
                row[i] -= c
            out.append(row)
        return out

    def unit_sum(self, vertices) -> tuple:
        chosen = set(vertices)
        return tuple(int(g in chosen) for g in self.generators)

    def unit(self, generator: str) -> tuple:
        return self.unit_sum([generator])

    # ------------------------------------------------------------ rewrites

    @property
    def moves(self):
        """(name, forward, need, delta) for every rewrite, forward first."""
        if self._moves is None:
            moves = []
            for forward in (True, False):
                for name, lhs, rhs, _ in self.relations:
                    need, give = (lhs, rhs) if forward else (rhs, lhs)
                    delta = tuple(
                        b - a for a, b in zip(self.dense(need), self.dense(give))
                    )
                    moves.append((name, forward, need, delta))
            self._moves = moves
        return self._moves

    def successors(self, x: tuple) -> list[tuple]:
        out = []
        for _, _, need, delta in self.moves:
            for i, c in need:
                if x[i] < c:
                    break
            else:
                out.append(tuple(map(add, x, delta)))
        return out

    def random_walk(self, rng, x: tuple, steps: int) -> tuple:
        for _ in range(steps):
            options = self.successors(x)
            if not options:
                break
            x = rng.choice(options)
        return x

    def replay(self, start: tuple, witness) -> tuple:
        """Apply (relation, forward, result) steps; each must apply and
        land where it says."""
        by_name = {name: (lhs, rhs) for name, lhs, rhs, _ in self.relations}
        cur = start
        for name, forward, result in witness:
            expect(name in by_name, f"witness names unknown relation {name!r}")
            lhs, rhs = by_name[name]
            need, give = (lhs, rhs) if forward else (rhs, lhs)
            expect(
                all(cur[i] >= c for i, c in need),
                f"step {name} does not apply at {cur}",
            )
            nxt = list(cur)
            for i, c in need:
                nxt[i] -= c
            for i, c in give:
                nxt[i] += c
            cur = tuple(nxt)
            expect(cur == tuple(result), f"step {name} lands on {cur}, not {result}")
        return cur

    def enumerate_class(self, x: tuple, cap: int):
        """(complete, members, expanded, rewrites) of the layered search
        from x; rewrites counts every rewrite tried, seen or not."""
        seen = {x}
        frontier = [x]
        expanded = rewrites = 0
        while frontier:
            layer = sorted(frontier)
            frontier = []
            for state in layer:
                if expanded >= cap:
                    return False, seen, expanded, rewrites
                expanded += 1
                results = self.successors(state)
                rewrites += len(results)
                for res in results:
                    if res not in seen:
                        seen.add(res)
                        frontier.append(res)
        return True, seen, expanded, rewrites

    def closure(self, a: tuple, y: tuple, cap: int, max_multiple: int, limit=None):
        """Is y below some member of the class of k*a, k = 1..max_multiple?

        Returns (status, k, hits, expanded): hits are the dominating
        members first found at multiple k, and expanded counts the states
        the whole search expanded.  Returns None once more than ``limit``
        states have been expanded.
        """
        all_complete = True
        total = 0
        for k in range(1, max_multiple + 1):
            target = scale(k, a)
            if leq(y, target):
                return "yes", k, {target}, total
            seen = {target}
            frontier = [target]
            expanded = 0
            complete = True
            while frontier and complete:
                layer = sorted(frontier)
                frontier = []
                for state in layer:
                    if expanded >= cap:
                        complete = False
                        break
                    expanded += 1
                    if limit is not None and total + expanded > limit:
                        return None
                    fresh = []
                    for res in self.successors(state):
                        if res not in seen:
                            seen.add(res)
                            fresh.append(res)
                    hits = {r for r in fresh if leq(y, r)}
                    if hits:
                        return "yes", k, hits, total + expanded
                    frontier.extend(fresh)
            total += expanded
            all_complete = all_complete and complete
        return ("no-up-to-bound" if all_complete else "unknown"), None, set(), total

    def meet(self, x: tuple, y: tuple, cap: int):
        """Bidirectional layered search, expanding the side with the
        smaller frontier: ("equivalent" | "complete" | "unknown", expanded)."""
        if x == y:
            return "equivalent", 0
        sides = [({x}, [x]), ({y}, [y])]
        expanded = 0
        while sides[0][1] and sides[1][1]:
            s = 0 if len(sides[0][1]) <= len(sides[1][1]) else 1
            seen, frontier = sides[s]
            other = sides[1 - s][0]
            layer = sorted(frontier)
            frontier.clear()
            for state in layer:
                if expanded >= cap:
                    return "unknown", expanded
                expanded += 1
                for res in self.successors(state):
                    if res not in seen:
                        if res in other:
                            return "equivalent", expanded
                        seen.add(res)
                        frontier.append(res)
        return "complete", expanded

    def torsion_work(self, a: tuple, cap: int, max_multiple: int, limit: int):
        """(probes, states) of clk's torsion search on a, or None once the
        states expanded exceed ``limit``.  Probes with (n - m) not a
        multiple of the K0 order of a fail clk's K0 test without search."""
        order = k0_order(self.rows(), a)
        probes = states = 0
        for n in range(2, max_multiple + 1):
            for m in range(1, n):
                probes += 1
                if order is None or (n - m) % order:
                    continue
                outcome, expanded = self.meet(scale(n, a), scale(m, a), cap)
                states += expanded
                if states > limit:
                    return None
                if outcome == "equivalent":
                    return probes, states
        return probes, states

    def isolated_support(self, vertices) -> bool:
        idx = {self.generators.index(v) for v in vertices}
        for _, lhs, rhs, _ in self.relations:
            if {i for i, _ in lhs} <= idx or {i for i, _ in rhs} <= idx:
                return False
        return True

    # ------------------------------------------------------------ output

    def format_vector(self, sparse) -> str:
        terms = []
        for i, c in sparse:
            name = self.generators[i]
            terms.append(name if c == 1 else f"{c}·{name}")
        return " + ".join(terms) if terms else "0"

    def info_text(self) -> str:
        lam = set(self.lambda_blocks)
        out = [f"vertices ({len(self.vertices)}): " + ", ".join(self.vertices)]
        out.append(f"edges ({len(self.edges)}):")
        out += [f"  {name}: {src} -> {tgt}" for name, src, tgt in self.edges]
        with_out = {src for _, src, _ in self.edges}
        sinks = [v for v in self.vertices if v not in with_out]
        if sinks:
            out.append("sinks: " + ", ".join(sinks))
        out.append(f"blocks ({len(self.blocks)}):")
        for name, es in self.blocks:
            mark = " ∈ Λ" if name in lam else ""
            out.append(f"  {name}{mark}: {{{', '.join(es)}}}")
        out.append("generators: " + ", ".join(self.generators))
        out.append("relations:")
        for name, lhs, rhs, _ in self.relations:
            out.append(
                f"  {name}: {self.format_vector(lhs)} = {self.format_vector(rhs)}"
            )
        return "\n".join(out) + "\n"

    def monoid_text(self) -> str:
        out = ["generators: " + ", ".join(self.generators)]
        for name, lhs, rhs, in_lambda in self.relations:
            mark = " (distinguished)" if in_lambda else ""
            out.append(
                f"  {name}: {self.format_vector(lhs)} = "
                f"{self.format_vector(rhs)}{mark}"
            )
        return "\n".join(out) + "\n"

    def presentation_json(self) -> str:
        def ints(sparse):
            parts = ["0"] * self.dim
            for i, c in sparse:
                parts[i] = str(c)
            return "[" + ",".join(parts) + "]"

        rels = ",".join(
            f'{{"name":{_js(name)},"lhs":{ints(lhs)},"rhs":{ints(rhs)},'
            f'"in_lambda":{"true" if lam else "false"}}}'
            for name, lhs, rhs, lam in self.relations
        )
        return f'{{"generators":{_js(self.generators)},"relations":[{rels}]}}'

    def graph_json(self) -> str:
        edges = [{"name": n, "src": s, "tgt": t} for n, s, t in self.edges]
        return (
            f'{{"vertices":{_js(self.vertices)},"edges":{_js(edges)},'
            f'"partition":{_js(dict(self.blocks))},"lambda":{_js(self.lambda_blocks)}}}'
        )

    def info_json(self) -> str:
        return f'{{"graph":{self.graph_json()},"presentation":{self.presentation_json()}}}\n'


def _echelon(rows) -> list[list[int]]:
    """A row-echelon basis of the integer lattice spanned by ``rows``."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while rows and col < len(rows[0]):
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot, reduced = live[0], [live[0]]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                (reduced if r[col] else rest).append(r)
            live = reduced
        basis += live
        rows = [r for r in rest if any(r)]
        col += 1
    return basis


def k0_order(rows, t) -> int | None:
    """Order of t in Z^n / rowspan(rows), None when infinite.

    t = sum c_i h_i over the echelon basis h is solved by forward
    substitution; k*t is in the lattice iff every k*c_i is an integer.
    """
    residual = [Fraction(a) for a in t]
    denominators = [1]
    for h in _echelon(rows):
        pivot = next(j for j, a in enumerate(h) if a)
        c = residual[pivot] / h[pivot]
        if c:
            residual = [r - c * a for r, a in zip(residual, h)]
            denominators.append(c.denominator)
    if any(residual):
        return None
    return math.lcm(*denominators)


def _js(value) -> str:
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)
