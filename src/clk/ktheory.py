"""Top-level verdicts: IBN of the algebra, K0 report, corner reports.

The algebra attached to a separated graph has invariant basis number
exactly when the all-vertices unit sum stays outside the rational span of
the distinguished relation rows.  Testing against all rows must give the
same answer (ordinary relations carry a block generator that the target
cannot touch).  Every call runs both by independent routes and compares
them: a Gaussian solve over the distinguished rows, which yields the
printed coefficients, and a read of the presentation's Smith form over
all rows.  The K0 report reads that same Smith form.

Corner verdicts for an idempotent supported on a vertex subset H combine
three independent diagnostics:

* the sufficient rational-span test on the unit sum of H,
* the isolated-support certificate (no relation side fits inside H, so
  the class of every multiple is a singleton), and
* a budgeted torsion search, whose certified hit pins down the non-IBN
  type (m, n).

The first two certify IBN; the third certifies non-IBN; anything else is
an honest "unknown".  The K0 order of the corner element is reported but
never used as an IBN test: it can vanish while the corner keeps IBN.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import ElementOrder, Finite, qspan_solve
from .presentation import Presentation, Vec, full_unit_sum, unit_sum
from .semigroup import (
    Budget,
    NoTorsionUpTo,
    Torsion,
    TorsionType,
    isolated_support,
    torsion_type,
)


@dataclass(frozen=True)
class QSpanExcluded:
    """The target is outside the rational span of the relation rows."""


@dataclass(frozen=True)
class QSpanMember:
    """Rational coefficients, one per relation in relation order, that
    combine the relation rows into the target; ordinary (non-lambda)
    relations always carry coefficient zero."""

    coefficients: tuple[Fraction, ...]


IbnCertificate = QSpanExcluded | QSpanMember


@dataclass(frozen=True)
class IbnVerdict:
    ibn: bool
    certificate: IbnCertificate
    type_if_known: tuple[int, int] | None = None


@dataclass(frozen=True)
class K0Report:
    free_rank: int
    invariant_factors: tuple[int, ...]  # nontrivial factors only
    unit_order: ElementOrder


@dataclass(frozen=True)
class CornerReport:
    vertices: tuple[str, ...]
    sufficient_test_passed: bool
    isolated_support_holds: bool
    torsion: TorsionType
    verdict: str  # "certified-ibn" | "non-ibn" | "unknown"
    reason: str | None = None
    corner_type: tuple[int, int] | None = None


def _span_excluded(p: Presentation, target: Vec):
    """(excluded, full coefficient vector or None) for the two span tests.

    Solves over the distinguished rows by Gaussian elimination and reads
    membership over all rows off the presentation's Smith form; the
    answers must agree.  Disagreement is an internal bug, not an input
    error.
    """
    lambda_rows = tuple(rel.row for rel in p.relations if rel.in_lambda)
    lambda_coeffs = qspan_solve(lambda_rows, target)
    if p.smith.in_qspan(target) != (lambda_coeffs is not None):
        raise AssertionError(
            "distinguished-row and all-row span tests disagree; "
            "this is a bug, please report it"
        )
    if lambda_coeffs is None:
        return True, None
    lam_iter = iter(lambda_coeffs)
    full = tuple(
        next(lam_iter) if rel.in_lambda else Fraction(0) for rel in p.relations
    )
    combo = [Fraction(0)] * p.dim
    for coeff, rel in zip(full, p.relations):
        for j, entry in enumerate(rel.row):
            combo[j] += coeff * entry
    assert tuple(combo) == tuple(Fraction(t) for t in target)
    return False, full


def ibn_of_algebra(p: Presentation) -> IbnVerdict:
    """IBN holds iff the all-vertices unit sum escapes the rational span
    of the relations; membership comes with verifying coefficients."""
    excluded, coeffs = _span_excluded(p, full_unit_sum(p))
    if excluded:
        return IbnVerdict(True, QSpanExcluded())
    return IbnVerdict(False, QSpanMember(coeffs))


def k0_report(p: Presentation) -> K0Report:
    """Cokernel invariants of the relation matrix plus the order of the
    distinguished unit-sum element in it, all from the presentation's
    Smith form."""
    snf = p.smith
    order = snf.order(full_unit_sum(p))
    return K0Report(snf.cokernel_free_rank, snf.cokernel_torsion, order)


def algebra_type(p: Presentation, budget: Budget | None = None) -> TorsionType:
    """Torsion type of the all-vertices unit sum.

    When the algebra is IBN the span certificate already rules out any
    collapse of multiples, so no search is run.
    """
    if ibn_of_algebra(p).ibn:
        return NoTorsionUpTo(bound=None, certified=True, certificate="qspan-excluded")
    return torsion_type(p, full_unit_sum(p), budget)


def corner_report(p: Presentation, vertices, budget: Budget | None = None) -> CornerReport:
    """All three corner diagnostics for the idempotent summing ``vertices``.

    CertifiedIBN needs the sufficient test or the isolated-support
    certificate; non-IBN needs a certified torsion witness.  The two can
    never fire together; if they do, something is deeply wrong and we
    refuse to answer.
    """
    vertices = tuple(vertices)
    alpha = unit_sum(p, vertices)
    excluded, _ = _span_excluded(p, alpha)
    isolated = isolated_support(p, vertices)
    torsion = torsion_type(p, alpha, budget)

    verdict, reason, corner_type = "unknown", None, None
    if isinstance(torsion, Torsion):
        if excluded or isolated:
            raise AssertionError(
                "corner certificates contradict each other; "
                "this is a bug, please report it"
            )
        verdict, reason = "non-ibn", "certified-torsion"
        corner_type = (torsion.m, torsion.n)
    elif excluded or isolated:
        verdict = "certified-ibn"
        reason = "sufficient-test" if excluded else "isolated-support"
    return CornerReport(
        vertices,
        sufficient_test_passed=excluded,
        isolated_support_holds=isolated,
        torsion=torsion,
        verdict=verdict,
        reason=reason,
        corner_type=corner_type,
    )


def ibn_verdict_to_data(v: IbnVerdict) -> dict:
    if isinstance(v.certificate, QSpanExcluded):
        cert = {"kind": "qspan-excluded"}
    else:
        cert = {
            "kind": "qspan-member",
            "coefficients": [str(c) for c in v.certificate.coefficients],
        }
    return {
        "ibn": v.ibn,
        "certificate": cert,
        "type": list(v.type_if_known) if v.type_if_known else None,
    }


def order_to_data(order: ElementOrder) -> dict:
    if isinstance(order, Finite):
        return {"finite": order.order}
    return {"infinite": True}


def k0_to_data(r: K0Report) -> dict:
    return {
        "free_rank": r.free_rank,
        "invariant_factors": list(r.invariant_factors),
        "unit_order": order_to_data(r.unit_order),
    }


def corner_to_data(r: CornerReport) -> dict:
    from .semigroup import torsion_to_data

    if r.verdict == "non-ibn":
        verdict = {"kind": "non-ibn", "type": list(r.corner_type)}
    elif r.verdict == "certified-ibn":
        verdict = {"kind": "certified-ibn", "reason": r.reason}
    else:
        verdict = {"kind": "unknown"}
    return {
        "vertices": list(r.vertices),
        "sufficient_test": "passed" if r.sufficient_test_passed else "inconclusive",
        "isolated_support": "holds" if r.isolated_support_holds else "fails",
        "torsion": torsion_to_data(r.torsion),
        "verdict": verdict,
    }
