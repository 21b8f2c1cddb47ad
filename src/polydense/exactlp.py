"""Exact rational linear feasibility with certificates.

One LP, origin_in_conv, is the single geometric kernel: the edge test
(on projected points, see polydense.graph), the segment-vs-hull query and
the brute-force chamber oracle are derived from it.  The solver is a dense
phase-one simplex with Dantzig pricing and the lexicographic ratio test,
run on an integer tableau with a common denominator (fraction-free
pivoting: each pivot divides exactly by the previous pivot element), so
every comparison and every certificate is exact.  With POLYDENSE_LP_CHECK
set at import, every pivot division and every origin_in_conv certificate
(so every verdict of the functions below) is verified exactly; a failure
raises ArithmeticError.

origin_in_conv_batch gives the verdicts of many same-shape integer
instances at once, pivoting all their tableaus together in a numpy int64
array by the same rules.  Fixed-width integers are exact here because
every stored entry of a fraction-free tableau is a minor of the initial
integer tableau (Bareiss, 1968), so entries stay small on the edge test's
projected {-1, 0, 1} input (up to 11 bits at k = 12 and 17 bits at k = 16
on sampled faces, against 24 and 33 bits for the lifted ±1 test).
Exactness does not rest on that bound, though: before each pivot, an
instance holding an entry of magnitude 2**31 or more leaves the batch, and
the scalar tableau finishes it in Python integers from the state it
reached.  Below that limit a pivot's products piv·x − f·y and the ratio
test's cross-products stay under 2**63, and the division by the previous
pivot is exact, as in the scalar tableau.  With POLYDENSE_LP_CHECK set,
every batched verdict is compared with the checked origin_in_conv.

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

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "FeasibilityResult",
    "strict_separation",
    "origin_in_conv",
    "origin_in_conv_batch",
    "segment_hull_intersect",
    "check_strict_witness",
    "check_convex_combination",
]

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_CHECK = bool(os.environ.get("POLYDENSE_LP_CHECK"))
_ITERATION_CAP = 200_000
# int64 bytes of the tableaus of one batched phase-one solve; larger batches
# are split into solves of about this size.
_BATCH_BYTES = 1 << 20
# An instance holding an entry of this magnitude leaves the batch for the
# scalar solver: below it, every product a pivot or a ratio comparison forms
# is under 2**62, so the difference of two of them fits in int64.
_INT64_SAFE = 1 << 31


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

    @classmethod
    def resume(cls, rows: list[list[int]], den: int, basis: list[int]) -> "_Tableau":
        """The tableau that pivoting reached: all its rows, the objective
        last, with their denominator and each constraint row's basic column."""
        tab = cls.__new__(cls)
        tab.rows, tab.den, tab.basis = rows, den, basis
        tab.m = len(basis)
        tab.rhs_col = len(rows[0]) - 1
        tab.n = tab.rhs_col - tab.m
        return tab

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
        """Minimise the sum of the artificials; True iff the system is feasible.

        Dantzig pricing enters the most negative reduced cost (lowest index on
        ties).  The leaving row is the lexicographic minimum of
        (rhs, B^-1 row) / pivot-column entry over the rows with a positive
        entry, compared by integer cross-multiplication; B^-1 occupies the
        artificial columns and is nonsingular, so the minimum is unique.  The
        initial rows (rhs_i, e_i) are lexicographically positive and the rule
        keeps them so, so no basis repeats and the method cannot cycle
        (Dantzig, Orden and Wolfe, 1955).
        """
        rows = self.rows
        m = self.m
        rhs = self.rhs_col
        ncols = self.n + m
        lex_cols = [rhs] + list(range(self.n, ncols))
        iters = 0
        while True:
            obj = rows[m]
            iters += 1
            if iters > _ITERATION_CAP:
                raise RuntimeError("simplex iteration cap exceeded")
            if obj[rhs] == 0:
                return True
            price = min(obj[:ncols])
            if price >= 0:
                return False
            enter = obj.index(price)
            leave = -1
            for i in range(m):
                row = rows[i]
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best, b = i, row, a
                        continue
                    for j in lex_cols:
                        diff = row[j] * b - best[j] * a
                        if diff:
                            if diff < 0:
                                leave, best, b = i, row, a
                            break
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


def origin_in_conv_batch(points) -> list[bool]:
    """origin_in_conv(S).feasible for each configuration S of a batch.

    ``points`` is an integer array shaped (B, N, d): B configurations of N
    points in R^d.  The B phase-one tableaus are pivoted together in int64
    by the rules of _Tableau.phase_one, so each instance takes the scalar
    solver's pivots to its exact verdict; an instance that holds an entry of
    magnitude 2**31 or more before a pivot is finished from there by the
    scalar tableau (see the module docstring).  No certificates are returned.
    """
    pts = np.asarray(points)
    if pts.ndim != 3 or not np.issubdtype(pts.dtype, np.integer):
        raise TypeError("points must be an integer array shaped (B, N, d)")
    count, n, d = pts.shape
    if n == 0:
        return [False] * count
    step = max(1, _BATCH_BYTES // (8 * (d + 2) * (n + d + 2)))
    out: list[bool] = []
    for start in range(0, count, step):
        out.extend(_phase_one_batch(pts[start:start + step]))
    if _CHECK:
        for S, verdict in zip(pts, out):
            if origin_in_conv(S.tolist(), d).feasible != verdict:
                raise ArithmeticError("batched origin_in_conv disagrees with the scalar solver")
    return out


def _phase_one_batch(pts: np.ndarray) -> list[bool]:
    """_Tableau.phase_one on every configuration of ``pts`` at once."""
    count, n, d = pts.shape
    m = d + 1  # constraint rows, the convexity row last; row m is the objective
    ncols = n + m  # structural, then artificial columns; the rhs follows
    verdicts: list[bool] = [False] * count
    big = ((pts >= _INT64_SAFE) | (pts <= -_INT64_SAFE)).any(axis=(1, 2))
    scalar = np.flatnonzero(big).tolist()
    ids = np.flatnonzero(~big)
    T = np.zeros((len(ids), m + 1, ncols + 1), dtype=np.int64)
    T[:, :d, :n] = pts[ids].transpose(0, 2, 1)
    T[:, d, :n] = 1
    T[:, range(m), range(n, ncols)] = 1
    T[:, d, ncols] = 1
    T[:, m, :n] = -T[:, :m, :n].sum(axis=1)
    T[:, m, ncols] = -1
    den = np.ones(len(ids), dtype=np.int64)
    basis = np.tile(np.arange(n, ncols), (len(ids), 1))
    lex = [ncols] + list(range(n, ncols))
    iters = 0
    while len(ids):
        iters += 1
        if iters > _ITERATION_CAP:
            raise RuntimeError("simplex iteration cap exceeded")
        obj = T[:, m]
        enter = obj[:, :ncols].argmin(axis=1)
        feasible = obj[:, ncols] == 0
        finished = feasible | (obj[np.arange(len(ids)), enter] >= 0)
        large = ~finished & (np.abs(T).max(axis=(1, 2)) >= _INT64_SAFE)
        for i in ids[feasible].tolist():
            verdicts[i] = True
        for j in np.flatnonzero(large).tolist():
            tab = _TABLEAU.resume(T[j].tolist(), int(den[j]), basis[j].tolist())
            verdicts[ids[j]] = tab.phase_one()
        go = ~(finished | large)
        if not go.all():
            ids, T, den, basis, enter = ids[go], T[go], den[go], basis[go], enter[go]
            if not len(ids):
                break
        rows = np.arange(len(ids))
        # lexicographic ratio test as a running minimum over the rows, by
        # integer cross-multiplication; the first row wins a full tie
        col = T[rows, :m, enter]
        keys = T[:, :m, lex]
        leave = np.full(len(ids), -1)
        best_a = np.ones(len(ids), dtype=np.int64)
        best_key = np.zeros((len(ids), len(lex)), dtype=np.int64)
        for i in range(m):
            a = col[:, i]
            key = keys[:, i]
            diff = key * best_a[:, None] - best_key * a[:, None]
            first = (diff != 0).argmax(axis=1)
            take = (a > 0) & ((leave < 0) | (diff[rows, first] < 0))
            leave[take] = i
            best_a[take] = a[take]
            best_key[take] = key[take]
        if (leave < 0).any():
            raise RuntimeError("phase-one objective cannot be unbounded")
        pivot_rows = T[rows, leave]
        piv = pivot_rows[rows, enter]
        f = T[rows, :, enter]
        T *= piv[:, None, None]
        T -= f[:, :, None] * pivot_rows[:, None, :]
        T //= den[:, None, None]
        T[rows, leave] = pivot_rows
        basis[rows, leave] = enter
        den = piv
    for i in scalar:
        verdicts[i] = origin_in_conv(pts[i].tolist(), d).feasible
    return verdicts


def segment_hull_intersect(a: Sequence, b: Sequence, S: Iterable[Sequence]) -> bool:
    """Whether the segment [a, b] meets conv(S).

    conv(S) - conv{a, b} = conv{s - a, s - b}, so this is a lifted hull test:
    0 is in conv({(-a, -1), (-b, -1)} ∪ {(s, 1)}) iff it is in that
    difference, the last coordinate splitting the weights 1/2-1/2 between
    segment and hull.  The endpoints come first: on the edge test's diagonal
    queries (a = -1, b = 1), which polydense.graph solves projected and the
    tests check against this lifted form, the lifted a has the most negative
    reduced cost and enters first, winning its ties by index, and this order
    took slightly fewer pivots than endpoints last on sampled k = 12 faces.
    An empty S meets nothing.
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


def check_convex_combination(S: Iterable[Sequence], lam: Sequence) -> bool:
    """Exact check that lam is a convex combination of S equal to the origin."""
    vecs, d = _coerce_config(S, None)
    weights = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in lam]
    if len(weights) != len(vecs) or d is None:
        return False
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return False
    return all(sum(w * s[i] for w, s in zip(weights, vecs)) == 0 for i in range(d))
