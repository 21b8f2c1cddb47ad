"""Exact rational linear feasibility with certificates.

One LP, origin_in_conv, is the single geometric kernel: the edge test's
segment-vs-hull query and chamber sign-vector feasibility are both derived
from it.  The solver is a dense phase-one simplex with Bland's anti-cycling
rule, run on an integer tableau with a common denominator (fraction-free
pivoting: each pivot divides exactly by the previous pivot element), so
every comparison and every certificate is exact.  With POLYDENSE_LP_CHECK
set at import, every pivot division and every origin_in_conv certificate
(so every verdict of the functions below) is verified exactly; a failure
raises ArithmeticError.

Certificate conventions:

* ``origin_in_conv(S)``: Feasible means the origin lies in conv(S); the
  witness is the convex combination.  Infeasible carries a separating
  functional h, an integer vector with h·s >= 1 for every s.
* ``strict_separation(S)``: Feasible means some h satisfies h·s > 0 for all
  s in S.  By Gordan's theorem that holds iff the origin is not in conv(S),
  so both certificates come from origin_in_conv: the witness is its
  integer separator, with margin h·s >= 1 and not confined to any box.
  Infeasible comes with nonnegative multipliers lam, sum(lam) = 1,
  sum(lam_s s) = 0, which contradict any candidate h exactly
  (0 = h·0 = sum lam_s h·s > 0).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "FeasibilityResult",
    "strict_separation",
    "origin_in_conv",
    "segment_hull_intersect",
    "check_strict_witness",
    "check_convex_combination",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_CHECK = bool(os.environ.get("POLYDENSE_LP_CHECK"))


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an exact feasibility query.

    ``witness`` is the solution vector when feasible; ``certificate`` is the
    refutation described in the module docstring when infeasible.  Both
    substitute exactly, with no tolerances.  Separators (the certificate of
    origin_in_conv, the witness of strict_separation) are integer vectors
    with h·s >= 1; convex combinations are Fractions.
    """

    status: str
    witness: tuple[int | Fraction, ...] | None = None
    certificate: tuple[int | Fraction, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _coerce_vector(v: Sequence) -> tuple:
    return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v)


def _coerce_config(S: Iterable[Sequence], dim: int | None) -> tuple[list[tuple], int | None]:
    vecs = []
    d = dim
    for s in S:
        t = _coerce_vector(s)
        if d is None:
            d = len(t)
        elif len(t) != d:
            raise DimensionMismatch(f"vector of dim {len(t)} in a dim-{d} system")
        vecs.append(t)
    return vecs, d


def _clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """Scale a row to integers; returns (scaled row, multiplier used)."""
    mult = 1
    for x in values:
        if type(x) is not int:
            mult = lcm(mult, x.denominator)
    if mult == 1:
        return [int(x) for x in values], 1
    return [x * mult if type(x) is int else int(x * mult) for x in values], mult


class _Tableau:
    """Integer phase-one simplex tableau for A x = (0, ..., 0, 1), x >= 0,
    whose last row is the convexity row.  Stored entries are true values
    times ``den``; row ``m`` is the phase-one objective."""

    def __init__(self, rows: list[list[int]]):
        m = len(rows)
        n = len(rows[0])
        self.m = m
        self.n = n
        self.den = 1
        self.rhs_col = n + m
        data = [row + [0] * m + [0] for row in rows]
        for i in range(m):
            data[i][n + i] = 1
        data[-1][-1] = 1
        self.basis = [n + i for i in range(m)]
        obj = [-sum(col) for col in zip(*rows)] + [0] * m + [-1]
        data.append(obj)
        self.rows = data

    def _pivot(self, r: int, c: int) -> None:
        rows = self.rows
        rowr = rows[r]
        den = self.den
        piv = rowr[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(piv * x - f * y) // den for x, y in zip(row, rowr)]
            elif piv != den:
                rows[i] = [piv * x // den for x in row]
        self.den = piv
        self.basis[r] = c

    def phase_one(self) -> bool:
        """Minimise the sum of the artificials; True iff the system is feasible."""
        rows = self.rows
        m = self.m
        rhs = self.rhs_col
        ncols = self.n + m
        iters = 0
        while True:
            obj = rows[m]
            iters += 1
            if iters > 200_000:
                raise RuntimeError("simplex iteration cap exceeded")
            if obj[rhs] == 0:
                return True
            enter = -1
            for j in range(ncols):
                if obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return False
            leave = -1
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                    else:
                        lhs = rows[i][rhs] * rows[leave][enter]
                        rhv = rows[leave][rhs] * a
                        if lhs < rhv or (lhs == rhv and self.basis[i] < self.basis[leave]):
                            leave = i
            if leave < 0:
                raise RuntimeError("phase-one objective cannot be unbounded")
            self._pivot(leave, enter)

    def farkas(self) -> list[int]:
        """Row multipliers proving infeasibility (after phase_one() is False),
        scaled by ``den``: every pivot element is positive, so ``den`` is, and
        these integers are a positive multiple of the true multipliers."""
        den = self.den
        obj = self.rows[self.m]
        return [den - obj[self.n + i] for i in range(self.m)]

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        den = self.den
        for i in range(self.m):
            if self.basis[i] < self.n:
                x[self.basis[i]] = Fraction(self.rows[i][self.rhs_col], den)
        return x


class _CheckedTableau(_Tableau):
    """Tableau whose pivots raise ArithmeticError on any inexact division,
    including rows that are only rescaled (f = 0)."""

    def _pivot(self, r: int, c: int) -> None:
        rowr = self.rows[r]
        piv = rowr[c]
        den = self.den
        for i, row in enumerate(self.rows):
            f = row[c]
            if i != r and any((piv * x - f * y) % den for x, y in zip(row, rowr)):
                raise ArithmeticError("integer pivot division was not exact")
        super()._pivot(r, c)


_TABLEAU = _CheckedTableau if _CHECK else _Tableau


def strict_separation(S: Iterable[Sequence], dim: int | None = None) -> FeasibilityResult:
    """Decide whether some h has h·s > 0 for every s in S.

    By Gordan's theorem such an h exists iff the origin is not in conv(S),
    so this is origin_in_conv with the verdict swapped: a feasible witness
    is its integer separator (h·s >= 1 for every s, not confined to any
    box), an infeasible certificate its convex combination.  An empty S is
    vacuously feasible, with witness h = 0.
    """
    inner = origin_in_conv(S, dim)
    if inner.feasible:
        return FeasibilityResult(INFEASIBLE, certificate=inner.witness)
    return FeasibilityResult(FEASIBLE, witness=inner.certificate)


def origin_in_conv(S: Iterable[Sequence], dim: int | None = None) -> FeasibilityResult:
    """Decide whether the origin lies in the convex hull of the finite set S.

    Feasible status means it does (witness: the convex coefficients);
    infeasible status carries a separating integer vector h with h·s >= 1
    for all s.  On integer input the infeasible path builds no Fraction.
    """
    vecs, d = _coerce_config(S, dim)
    if not vecs:
        return FeasibilityResult(INFEASIBLE, certificate=(0,) * (d or 0))
    assert d is not None
    rows = []
    scales = []
    for i in range(d):
        ints, mult = _clear_denominators([s[i] for s in vecs])
        scales.append(mult)
        rows.append(ints)
    rows.append([1] * len(vecs))
    tab = _TABLEAU(rows)
    if tab.phase_one():
        res = FeasibilityResult(FEASIBLE, witness=tuple(tab.solution()))
    else:
        # y·A <= 0 column by column and y_d > 0: h = -(y_i scale_i) gives
        # h·s >= y_d >= 1 for every s, in integers.
        y = tab.farkas()
        if y[d] <= 0:
            raise RuntimeError("Farkas multiplier of the convexity row must be positive")
        h = tuple(-y[i] * scales[i] for i in range(d))
        res = FeasibilityResult(INFEASIBLE, certificate=h)
    if _CHECK and not (check_convex_combination(vecs, res.witness) if res.feasible
                       else check_strict_witness(vecs, res.certificate, margin=1)):
        raise ArithmeticError(f"origin_in_conv returned a false {res.status} certificate")
    return res


def segment_hull_intersect(a: Sequence, b: Sequence, S: Iterable[Sequence]) -> bool:
    """Whether the segment [a, b] meets conv(S).

    conv(S) - conv{a, b} = conv{s - a, s - b}, so this is a lifted hull test:
    0 is in conv({(-a, -1), (-b, -1)} ∪ {(s, 1)}) iff it is in that
    difference, the last coordinate splitting the weights 1/2-1/2 between
    segment and hull.  The endpoints come first, where Bland's rule enters
    them first.  An empty S meets nothing.
    """
    av = _coerce_vector(a)
    bv = _coerce_vector(b)
    if len(av) != len(bv):
        raise DimensionMismatch(f"segment endpoints of dims {len(av)} and {len(bv)}")
    vecs, d = _coerce_config(S, len(av))
    if not vecs:
        return False
    lifted = [tuple(-x for x in av) + (-1,), tuple(-x for x in bv) + (-1,)]
    lifted.extend(s + (1,) for s in vecs)
    return origin_in_conv(lifted, d + 1).feasible


def check_strict_witness(S: Iterable[Sequence], h: Sequence,
                         margin: int | Fraction | None = None) -> bool:
    """Exact check that h·s > 0 for every s in S, or h·s >= margin for
    every s when a margin is given."""
    hv = _coerce_vector(h)
    for s in S:
        sv = _coerce_vector(s)
        if len(sv) != len(hv):
            raise DimensionMismatch("witness dimension mismatch")
        dot = sum(x * y for x, y in zip(hv, sv))
        if (dot <= 0) if margin is None else (dot < margin):
            return False
    return True


def check_convex_combination(S: Iterable[Sequence], lam: Sequence,
                             target: Sequence | None = None) -> bool:
    """Exact check that lam is a convex combination of S equal to ``target``
    (the origin by default)."""
    vecs, d = _coerce_config(S, None)
    weights = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in lam]
    if len(weights) != len(vecs) or d is None:
        return False
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return False
    goal = _coerce_vector(target) if target is not None else tuple([Fraction(0)] * d)
    for i in range(d):
        if sum(w * s[i] for w, s in zip(weights, vecs)) != goal[i]:
            return False
    return True
