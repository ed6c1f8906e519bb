"""Bounded rewriting search in the graph semigroup.

The semigroup lives on the nonzero count vectors: two vectors are
equivalent when one can be rewritten into the other by repeatedly
replacing an embedded relation side with the opposite side.  Viewed
geometrically, the vectors are lattice points and each rewrite crosses a
translated copy of a relation segment; equivalence classes are the path
components of that picture.

There is no terminating decision procedure for equivalence in general, so
every search here is budgeted and every non-"unknown" answer carries a
machine-checkable certificate:

* ``Equivalent`` holds a step-by-step witness that replays exactly;
* ``Inequivalent`` holds either a K0 obstruction (the difference vector
  has no integer solution against the relation matrix, which equivalence
  would force) or a fully enumerated class that omits the other element.

Every search runs on one engine, ``_Search``: breadth-first from a seed
over a table of rewrite moves compiled from the relations, layer by layer,
each layer in lexicographic order, so witnesses are reproducible byte for
byte.  The budget counts expanded states.  When it runs out partway
through a layer, the rest of that layer stays on the frontier, so a search
is complete only when its frontier is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .presentation import (
    Presentation,
    Relation,
    Vec,
    is_zero,
    vec_add,
    vec_from_terms,
    vec_leq,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class Budget:
    """Search limits: BFS node expansions, and the largest multiple k*a
    probed by the torsion and closure searches."""

    max_states: int = 100_000
    max_multiple: int = 64

    def __post_init__(self):
        if self.max_states < 1 or self.max_multiple < 1:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class Step:
    """One rewrite: apply ``relation`` forward (lhs -> rhs) or backward,
    landing on ``result``."""

    relation: str
    forward: bool
    result: Vec


@dataclass(frozen=True)
class Equivalent:
    witness: tuple[Step, ...]


@dataclass(frozen=True)
class Inequivalent:
    certificate: str  # "k0-mismatch" | "complete-class-excludes"
    complete_side: str | None = None
    class_size: int | None = None


@dataclass(frozen=True)
class Unknown:
    visited: int


EqOutcome = Equivalent | Inequivalent | Unknown


@dataclass(frozen=True)
class ClassEnumeration:
    complete: bool
    members: tuple[Vec, ...]
    visited: int


@dataclass(frozen=True)
class Torsion:
    """n*a ~ m*a; the witness replays from n*a down to m*a.

    (m, n) is minimal in probe order among *resolved* probes; it is the
    true minimal type exactly when ``prior_unknown_probes`` is empty.
    """

    m: int
    n: int
    witness: tuple[Step, ...]
    prior_unknown_probes: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class NoTorsionUpTo:
    """No multiple collapse found.  ``bound`` is the largest n probed, or
    None when the absence of torsion is certified outright (infinite
    order shown without search)."""

    bound: int | None
    certified: bool
    unknown_probes: tuple[tuple[int, int], ...] = ()
    certificate: str | None = None


TorsionType = Torsion | NoTorsionUpTo


@dataclass(frozen=True)
class ClosureOutcome:
    """Tri-state answer to "is y below some multiple of a?".

    "yes" carries the witness pair: y is dominated by ``dominating``,
    a member of the class of ``multiple * a``.
    """

    status: str  # "yes" | "no-up-to-bound" | "unknown"
    multiple: int | None = None
    dominating: Vec | None = None
    bound: int | None = None


@dataclass(frozen=True)
class ProgeneratorReport:
    status: str  # "yes" | "no-up-to-bound" | "unknown"
    per_generator: tuple[tuple[str, ClosureOutcome], ...]


def _check_element(p: Presentation, v) -> Vec:
    v = tuple(v)
    if len(v) != p.dim:
        raise ValueError(f"vector has {len(v)} entries, expected {p.dim}")
    if any(a < 0 for a in v):
        raise ValueError(f"semigroup elements need nonnegative counts: {v}")
    if is_zero(v):
        raise ValueError("the zero vector is not a semigroup element")
    return v


def _compile_moves(p: Presentation) -> list[tuple]:
    """The move table: every forward move in relation order, then every
    backward move, each as (relation, forward, need, delta).  ``need`` is
    the replaced side's (index, count) terms, which must fit under a
    state; ``delta`` is the dense change the rewrite makes."""
    moves = []
    for forward in (True, False):
        for rel in p.relations:
            need = rel.lhs_terms if forward else rel.rhs_terms
            give = rel.rhs_terms if forward else rel.lhs_terms
            moves.append((rel, forward, need, vec_from_terms(give, p.dim, need)))
    return moves


def _successors(moves: list[tuple], x: Vec):
    """(relation, forward, result) for each move that applies at x, in order."""
    for rel, forward, need, delta in moves:
        for i, c in need:
            if x[i] < c:
                break
        else:
            yield rel, forward, tuple(map(add, x, delta))


def applicable_steps(p: Presentation, x) -> list[tuple[Relation, bool, Vec]]:
    """All single rewrites at x: forward where lhs fits under x, backward
    where rhs does.  Results are automatically nonzero."""
    return list(_successors(_compile_moves(p), _check_element(p, x)))


def replay_witness(p: Presentation, start, witness) -> Vec:
    """Re-apply a witness step by step with exact applicability checks.

    Raises ValueError if any step does not apply or lands elsewhere than
    recorded; returns the final vector.
    """
    by_name = {rel.name: rel for rel in p.relations}
    cur = _check_element(p, start)
    for step in witness:
        rel = by_name.get(step.relation)
        if rel is None:
            raise ValueError(f"witness uses unknown relation {step.relation!r}")
        src, dst = (rel.lhs, rel.rhs) if step.forward else (rel.rhs, rel.lhs)
        if not vec_leq(src, cur):
            raise ValueError(f"step {step} does not apply at {cur}")
        cur = vec_add(vec_sub(cur, src), dst)
        if cur != step.result:
            raise ValueError(f"step {step} lands on {cur}, not {step.result}")
    return cur


class _Search:
    """Layered breadth-first search from one seed over a move table.

    ``parents`` maps every state reached to the state it was first reached
    from (the seed to None); ``frontier`` holds the reached states not yet
    expanded, and ``expanded`` counts the states expanded so far.  The
    search is complete exactly when the frontier is empty.
    """

    __slots__ = ("moves", "parents", "frontier", "expanded")

    def __init__(self, moves: list[tuple], seed: Vec):
        self.moves = moves
        self.parents: dict[Vec, Vec | None] = {seed: None}
        self.frontier: list[Vec] = [seed]
        self.expanded = 0

    def step(self, allowance: int, goal=None) -> Vec | None:
        """Expand at most ``allowance`` states of the next layer, in
        lexicographic order; the rest of the layer stays on the frontier.
        Returns the first newly reached state that satisfies ``goal``, if
        any; such a hit ends the search."""
        layer = sorted(self.frontier)
        self.frontier = frontier = layer[allowance:]
        for state in layer[:allowance]:
            self.expanded += 1
            for _, _, res in _successors(self.moves, state):
                if res not in self.parents:
                    self.parents[res] = state
                    frontier.append(res)
                    if goal is not None and goal(res):
                        return res
        return None

    def run(self, max_states: int, goal=None) -> Vec | None:
        """Expand layers until the frontier empties, ``max_states`` states
        are expanded or a newly reached state satisfies ``goal``."""
        while self.frontier and self.expanded < max_states:
            if (hit := self.step(max_states - self.expanded, goal)) is not None:
                return hit
        return None

    def links(self, state: Vec):
        """(previous, relation, forward, state) links from ``state`` back to the
        seed; each is the first move in table order, the one ``step`` took."""
        while (prev := self.parents[state]) is not None:
            rel, forward = next(
                (r, f) for r, f, res in _successors(self.moves, prev) if res == state
            )
            yield prev, rel, forward, state
            state = prev


def class_enumerate(p: Presentation, x, budget: Budget | None = None) -> ClassEnumeration:
    """Breadth-first closure of x under rewrites in both directions.

    Complete iff the frontier empties before the node budget runs out;
    otherwise the members seen so far are returned as a partial class.
    """
    budget = budget or DEFAULT_BUDGET
    search = _Search(_compile_moves(p), _check_element(p, x))
    search.run(budget.max_states)
    return ClassEnumeration(
        not search.frontier, tuple(sorted(search.parents)), search.expanded
    )


def equivalent(p: Presentation, x, y, budget: Budget | None = None) -> EqOutcome:
    """Decide x ~ y within budget.

    The K0 test runs first: equivalence forces x - y into the integer row
    span of the relation matrix, so a difference that the presentation's
    Smith form cannot solve is a sound inequivalence certificate.  Then
    both ends are searched breadth-first; meeting yields a replayable
    witness, and a side whose class closes without meeting certifies
    inequivalence.
    """
    budget = budget or DEFAULT_BUDGET
    x = _check_element(p, x)
    y = _check_element(p, y)
    if x == y:
        return Equivalent(())
    if p.smith.solve(vec_sub(x, y)) is None:
        return Inequivalent("k0-mismatch")

    moves = _compile_moves(p)
    left, right = _Search(moves, x), _Search(moves, y)
    while True:
        for name, search in (("left", left), ("right", right)):
            if not search.frontier:
                size = len(search.parents)
                return Inequivalent("complete-class-excludes", name, size)
        expanded = left.expanded + right.expanded
        if expanded >= budget.max_states:
            return Unknown(expanded)
        # Grow the smaller frontier; the stable sort keeps left first on a tie.
        side, other = sorted((left, right), key=lambda s: len(s.frontier))
        meet = side.step(budget.max_states - expanded, other.parents.__contains__)
        if meet is not None:
            # x to the meeting state, then back from it to y, each step reversed.
            there = [Step(r.name, f, s) for _, r, f, s in left.links(meet)]
            back = [Step(r.name, not f, prev) for prev, r, f, _ in right.links(meet)]
            witness = tuple(reversed(there)) + tuple(back)
            assert replay_witness(p, x, witness) == y
            return Equivalent(witness)


def torsion_type(p: Presentation, a, budget: Budget | None = None) -> TorsionType:
    """Least n with n*a ~ m*a for some m < n, probing n then m upward.

    Probes that certify inequivalence are conclusive; if any probe came
    back unknown the NoTorsionUpTo result says so.
    """
    budget = budget or DEFAULT_BUDGET
    a = _check_element(p, a)
    unknowns: list[tuple[int, int]] = []
    for n in range(2, budget.max_multiple + 1):
        na = vec_scale(n, a)
        for m in range(1, n):
            out = equivalent(p, na, vec_scale(m, a), budget)
            if isinstance(out, Equivalent):
                return Torsion(m, n, out.witness, tuple(unknowns))
            if isinstance(out, Unknown):
                unknowns.append((n, m))
    return NoTorsionUpTo(
        bound=budget.max_multiple,
        certified=not unknowns,
        unknown_probes=tuple(unknowns),
    )


def closure_contains(p: Presentation, a, y, budget: Budget | None = None) -> ClosureOutcome:
    """Is y dominated by some multiple of a (y + z ~ k*a, z >= 0)?

    Searches k = 1..max_multiple; within each k the class of k*a is
    enumerated breadth-first looking for a member >= y componentwise.
    "no-up-to-bound" requires every one of those classes to have been
    enumerated completely.
    """
    budget = budget or DEFAULT_BUDGET
    a = _check_element(p, a)
    y = _check_element(p, y)
    moves = _compile_moves(p)
    all_complete = True
    for k in range(1, budget.max_multiple + 1):
        target = vec_scale(k, a)
        if vec_leq(y, target):
            return ClosureOutcome("yes", multiple=k, dominating=target)
        search = _Search(moves, target)
        hit = search.run(budget.max_states, lambda s: vec_leq(y, s))
        if hit is not None:
            return ClosureOutcome("yes", multiple=k, dominating=hit)
        all_complete = all_complete and not search.frontier
    status = "no-up-to-bound" if all_complete else "unknown"
    return ClosureOutcome(status, bound=budget.max_multiple)


def is_progenerator(p: Presentation, a, budget: Budget | None = None) -> ProgeneratorReport:
    """Does every generator fall below some multiple of a?

    Sums of dominated generators are dominated by sums of multiples, so
    generator domination suffices for the whole semigroup.  A certified
    "no" for any generator makes the overall answer "no-up-to-bound";
    otherwise any unresolved generator makes it "unknown".
    """
    budget = budget or DEFAULT_BUDGET
    a = _check_element(p, a)
    results = []
    for g in p.generators:
        results.append((g, closure_contains(p, a, p.unit(g), budget)))
    statuses = {outcome.status for _, outcome in results}
    if statuses == {"yes"}:
        overall = "yes"
    elif "no-up-to-bound" in statuses:
        overall = "no-up-to-bound"
    else:
        overall = "unknown"
    return ProgeneratorReport(overall, tuple(results))


def isolated_support(p: Presentation, vertices) -> bool:
    """True when no relation side fits inside the given vertex support.

    Then no rewrite ever applies to any multiple of the corresponding
    unit sum: each such class is a singleton and the element has infinite
    order in the semigroup.
    """
    idx = {p.index(v) for v in vertices}
    return not any(
        all(i in idx for i, _ in need) for _, _, need, _ in _compile_moves(p)
    )


def step_to_data(step: Step) -> dict:
    return {
        "relation": step.relation,
        "direction": "forward" if step.forward else "backward",
        "to": list(step.result),
    }


def eq_outcome_to_data(out: EqOutcome) -> dict:
    if isinstance(out, Equivalent):
        return {
            "status": "equivalent",
            "witness": [step_to_data(s) for s in out.witness],
        }
    if isinstance(out, Inequivalent):
        data = {"status": "inequivalent", "certificate": out.certificate}
        if out.complete_side is not None:
            data["complete_side"] = out.complete_side
            data["class_size"] = out.class_size
        return data
    return {"status": "unknown", "visited": out.visited}


def torsion_to_data(t: TorsionType) -> dict:
    if isinstance(t, Torsion):
        return {
            "kind": "torsion",
            "m": t.m,
            "n": t.n,
            "witness": [step_to_data(s) for s in t.witness],
            "prior_unknown_probes": [list(pair) for pair in t.prior_unknown_probes],
        }
    return {
        "kind": "no-torsion",
        "bound": t.bound,
        "certified": t.certified,
        "unknown_probes": [list(pair) for pair in t.unknown_probes],
        "certificate": t.certificate,
    }


def closure_to_data(out: ClosureOutcome) -> dict:
    data: dict = {"status": out.status}
    if out.status == "yes":
        data["multiple"] = out.multiple
        data["dominating"] = list(out.dominating)
    else:
        data["bound"] = out.bound
    return data
