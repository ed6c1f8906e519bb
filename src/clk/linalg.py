"""Exact integer and rational linear algebra over relation matrices.

Everything here is arbitrary-precision and float-free: rational work uses
``fractions.Fraction``, integer work uses Python ints.  The two
primitives are

* rational span membership (Gaussian elimination, returning the verifying
  coefficients when membership holds), and
* Smith normal form with unimodular certificates U, V satisfying
  ``U @ M @ V == D`` exactly.

One factorization answers every question about the rows of M through
``target @ V``: integer span solving (``SNFResult.solve``), the order of a
vector's image in the cokernel ``Z^n / rowspan(M)`` in closed form
(``SNFResult.order``) and rational span membership
(``SNFResult.in_qspan``).  ``zspan_solve`` and
``element_order_in_quotient`` factorize once and then ask.

Matrices are tuples/lists of equal-length int rows.  A matrix may have no
rows; operations that cannot infer the width from a row take it from the
target vector (or an explicit ``cols`` argument for the Smith form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]


def _check_matrix(matrix, width: int | None = None) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"ragged or mismatched matrix: row of length {len(row)}, "
                f"expected {width}"
            )
    return rows


def _row_combination(matrix, coeffs, width: int) -> tuple:
    out = [0] * width
    for c, row in zip(coeffs, matrix):
        for j, a in enumerate(row):
            out[j] += c * a
    return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def qspan_solve(matrix, target) -> tuple[Fraction, ...] | None:
    """Rational coefficients c with sum(c_i * row_i) == target, else None.

    Decides membership of ``target`` in the rational row span by exact
    Gaussian elimination on the transposed system; free coefficients are
    pinned to zero, so the answer is deterministic.
    """
    target = tuple(target)
    c = len(target)
    rows = _check_matrix(matrix, c)
    r = len(rows)
    # Augmented system A x = b with A = M^T (c x r), b = target.
    aug = [
        [Fraction(rows[i][j]) for i in range(r)] + [Fraction(target[j])]
        for j in range(c)
    ]
    pivots: list[int] = []
    row = 0
    for col in range(r):
        sel = None
        for i in range(row, c):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [a * inv for a in aug[row]]
        for i in range(c):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
        if row == c:
            break
    for i in range(row, c):
        if aug[i][r]:
            return None
    coeffs = [Fraction(0)] * r
    for k, col in enumerate(pivots):
        coeffs[col] = aug[k][r]
    assert _row_combination(rows, coeffs, c) == target
    return tuple(coeffs)


def qspan_contains(matrix, target) -> bool:
    """Is ``target`` in the rational row span of ``matrix``?"""
    return qspan_solve(matrix, target) is not None


@dataclass(frozen=True)
class Finite:
    order: int


@dataclass(frozen=True)
class Infinite:
    pass


ElementOrder = Finite | Infinite


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form D = U @ M @ V with unimodular U, V.

    The diagonal of D is nonnegative, its nonzero entries form a
    divisibility chain and precede the zeros.  Keeping M, U and V makes
    every answer read off the factorization self-verifying.
    """

    U: Matrix
    D: Matrix
    V: Matrix
    M: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(len(self.D), len(self.V))
        return tuple(self.D[i][i] for i in range(n))

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def cokernel_free_rank(self) -> int:
        return len(self.V) - self.rank

    @property
    def cokernel_torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)

    def _image(self, target: tuple) -> list[int]:
        """``target @ V``: the target in the coordinates where M is diagonal."""
        return [
            sum(t * a for t, a in zip(target, column, strict=True))
            for column in zip(*self.V)
        ]

    def in_qspan(self, target) -> bool:
        """Is ``target`` in the rational row span of M?

        Exactly when ``target @ V`` vanishes on every zero-diagonal
        coordinate, and those are the coordinates from ``rank`` on.
        """
        return not any(self._image(tuple(target))[self.rank :])

    def solve(self, target) -> tuple[int, ...] | None:
        """Integer coefficients c with sum(c_i * row_i of M) == target, else None.

        Solved by back substitution through D; any returned vector is
        re-verified by direct substitution before being handed out.
        """
        target = tuple(target)
        w = self._image(target)
        factors = self.invariant_factors
        if any(w[len(factors) :]) or any(x % d for x, d in zip(w, factors)):
            return None
        b = [x // d for x, d in zip(w, factors)]
        coeffs = _row_combination(self.U, b, len(self.U))
        assert _row_combination(self.M, coeffs, len(target)) == target
        return coeffs

    def order(self, target) -> ElementOrder:
        """Order of ``target + rowspan(M)`` in Z^n / rowspan(M).

        Infinite exactly when ``target`` misses the rational row span
        (nonzero image after tensoring with Q); otherwise the least k with
        k*target in the integer row span, read off the invariant factors
        as an lcm rather than by iteration.  The zero vector has order 1.
        """
        target = tuple(target)
        in_qspan = self.in_qspan(target)
        assert qspan_contains(self.M, target) == in_qspan, (
            "Gaussian and Smith routes disagree on rational membership"
        )
        if not in_qspan:
            return Infinite()
        w = self._image(target)
        k = math.lcm(*(d // math.gcd(d, x) for x, d in zip(w, self.invariant_factors)))
        assert self.solve(tuple(k * t for t in target)) is not None
        return Finite(k)


def smith_normal_form(matrix, *, cols: int | None = None) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivots on the least absolute value in the remaining submatrix.  For a
    rowless matrix the width cannot be inferred, so pass ``cols``.
    """
    D = _check_matrix(matrix, None if cols is None else cols)
    r = len(D)
    if r:
        c = len(D[0])
        if cols is not None and cols != c:
            raise ValueError(f"cols={cols} disagrees with row width {c}")
    elif cols is None:
        raise ValueError("matrix has no rows; pass cols= explicitly")
    else:
        c = cols

    rows = tuple(tuple(row) for row in D)
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_clear(keep, kill, col):
        # Unimodular combination of rows keep/kill zeroing D[kill][col].
        a, b = D[keep][col], D[kill][col]
        if b == 0:
            return
        if a == 0:
            row_swap(keep, kill)
            return
        if b % a == 0:
            q = -(b // a)
            D[kill] = [x + q * y for x, y in zip(D[kill], D[keep])]
            U[kill] = [x + q * y for x, y in zip(U[kill], U[keep])]
            return
        g, x, y = _xgcd(a, b)
        s, t = -(b // g), a // g  # det [[x, y], [s, t]] == 1
        D[keep], D[kill] = (
            [x * p + y * q for p, q in zip(D[keep], D[kill])],
            [s * p + t * q for p, q in zip(D[keep], D[kill])],
        )
        U[keep], U[kill] = (
            [x * p + y * q for p, q in zip(U[keep], U[kill])],
            [s * p + t * q for p, q in zip(U[keep], U[kill])],
        )

    def col_clear(keep, kill, row):
        a, b = D[row][keep], D[row][kill]
        if b == 0:
            return
        if a == 0:
            col_swap(keep, kill)
            return
        if b % a == 0:
            q = -(b // a)
            for M in (D, V):
                for line in M:
                    line[kill] += q * line[keep]
            return
        g, x, y = _xgcd(a, b)
        s, t = -(b // g), a // g
        for M in (D, V):
            for line in M:
                p, q = line[keep], line[kill]
                line[keep], line[kill] = x * p + y * q, s * p + t * q

    def col_add(dst, src, q):
        for M in (D, V):
            for line in M:
                line[dst] += q * line[src]

    # Phase 1: diagonalize.
    for t in range(min(r, c)):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(D[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            for i in range(r):
                if i != t:
                    row_clear(t, i, t)
            if all(D[t][j] == 0 for j in range(c) if j != t):
                break
            for j in range(c):
                if j != t:
                    col_clear(t, j, t)
            if all(D[i][t] == 0 for i in range(r) if i != t):
                break

    n = min(r, c)

    # Phase 2: push zero diagonal entries to the end.
    nonzero = [t for t in range(n) if D[t][t]]
    for pos, t in enumerate(nonzero):
        if pos != t:
            row_swap(pos, t)
            col_swap(pos, t)
    k = len(nonzero)

    # Phase 3: enforce the divisibility chain d_t | d_{t+1}.
    t = 0
    while t + 1 < k:
        a, b = D[t][t], D[t + 1][t + 1]
        if b % a == 0:
            t += 1
            continue
        col_add(t, t + 1, 1)
        row_clear(t, t + 1, t)
        col_clear(t, t + 1, t)
        t = max(t - 1, 0)

    # Phase 4: normalize signs.
    for t in range(k):
        if D[t][t] < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]

    result = SNFResult(
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in D),
        tuple(tuple(row) for row in V),
        rows,
    )
    assert _is_valid_snf(result, r, c)
    return result


def _is_valid_snf(res: SNFResult, r: int, c: int) -> bool:
    D = res.D
    for i in range(r):
        for j in range(c):
            if i != j and D[i][j]:
                return False
    diag = res.diagonal
    if any(d < 0 for d in diag):
        return False
    nz = [d for d in diag if d]
    if diag[: len(nz)] != tuple(nz):
        return False
    if any(nz[i + 1] % nz[i] for i in range(len(nz) - 1)):
        return False
    # U @ M @ V == D row by row, all in exact integers.
    return all(
        _row_combination(res.V, _row_combination(res.M, u, c), c) == d
        for u, d in zip(res.U, D)
    )


def zspan_solve(matrix, target) -> tuple[int, ...] | None:
    """Integer coefficients c with sum(c_i * row_i) == target, else None.

    Factorizes ``matrix`` and solves on the Smith form; see
    :meth:`SNFResult.solve`.
    """
    target = tuple(target)
    return smith_normal_form(matrix, cols=len(target)).solve(target)


def element_order_in_quotient(matrix, target) -> ElementOrder:
    """Order of ``target + rowspan(matrix)`` in Z^n / rowspan(matrix).

    Factorizes ``matrix`` and reads the order off the Smith form; see
    :meth:`SNFResult.order`.
    """
    target = tuple(target)
    return smith_normal_form(matrix, cols=len(target)).order(target)
