import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

import polydense
from polydense import DimensionMismatch, exactlp
from polydense.exactlp import (FEASIBLE, INFEASIBLE, check_convex_combination,
                               check_strict_witness, origin_in_conv,
                               segment_hull_intersect, strict_separation)
from polydense.rng import stream


class TestStrictSeparation:
    def test_empty_is_vacuously_feasible(self):
        assert strict_separation([], dim=2).status == FEASIBLE

    def test_opposite_vectors(self):
        res = strict_separation([(1, 0), (-1, 0)])
        assert res.status == INFEASIBLE
        assert check_convex_combination([(1, 0), (-1, 0)], res.certificate)

    def test_positive_cone(self):
        S = [(1, 0), (1, 1), (0, 1)]
        res = strict_separation(S)
        assert res.status == FEASIBLE
        assert check_strict_witness(S, res.witness)

    def test_zero_vector_blocks(self):
        assert strict_separation([(0, 0), (1, 2)]).status == INFEASIBLE

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            strict_separation([(1, 0), (1, 0, 0)])


class TestOriginInConv:
    def test_empty_hull(self):
        assert not origin_in_conv([], dim=3).feasible

    def test_antipodal_pair(self):
        res = origin_in_conv([(2, 3), (-2, -3)])
        assert res.feasible
        assert check_convex_combination([(2, 3), (-2, -3)], res.witness)

    def test_positive_quadrant(self):
        res = origin_in_conv([(1, 0), (0, 1)])
        assert not res.feasible
        # separator has margin one
        for s in [(1, 0), (0, 1)]:
            assert sum(h * x for h, x in zip(res.certificate, s)) >= 1

    def test_fractional_input(self):
        S = [(F(1, 3), F(-2, 7)), (F(-1, 6), F(1, 7))]
        assert origin_in_conv(S).feasible

    def test_integer_separator_builds_no_fraction(self, monkeypatch):
        class NoFraction(F):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("Fraction built on the infeasible path")

        monkeypatch.setattr(exactlp, "Fraction", NoFraction)
        for S, d in (([(1, 0), (0, 1)], None), ([(3, -1, 2), (1, 4, 1), (2, 2, 5)], None),
                     ([], 3)):
            res = origin_in_conv(S, dim=d)
            assert not res.feasible
            assert all(type(h) is int for h in res.certificate)
            assert check_strict_witness(S, res.certificate, margin=1)


class TestSegmentHull:
    def test_empty(self):
        assert segment_hull_intersect((-1, -1), (1, 1), []) is False

    def test_crossing_diagonals(self):
        assert segment_hull_intersect((-1, -1), (1, 1), [(-1, 1), (1, -1)])

    def test_point_off_segment(self):
        assert not segment_hull_intersect((-1, -1), (1, 1), [(-1, 1)])

    def test_endpoint_membership(self):
        # hull contains an endpoint: t = 0 solves the system
        assert segment_hull_intersect((1, 2), (5, 5), [(0, 0), (2, 4)])

    def test_swap_and_permutation_invariance(self):
        rng = stream(314, "seg")
        for _ in range(60):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            a = tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d))
            b = tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d))
            S = [tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(d))
                 for _ in range(m)]
            ref = segment_hull_intersect(a, b, S)
            assert segment_hull_intersect(b, a, S) == ref
            perm = list(reversed(S))
            assert segment_hull_intersect(a, b, perm) == ref

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            segment_hull_intersect((1, 0), (0, 1), [(1, 0, 0)])

    def test_agrees_with_basic_solution_enumeration(self):
        """segment_hull_intersect against an oracle with no LP, on random
        rational instances; a == b on every tenth trial."""
        rng = stream(57721, "seg-oracle")

        def rand_point(d):
            return tuple(F(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(d))

        hits = 0
        for trial in range(500):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            a = rand_point(d)
            b = a if trial % 10 == 0 else rand_point(d)
            S = [rand_point(d) for _ in range(m)]
            expected = _segment_meets_hull_by_enumeration(a, b, S)
            assert segment_hull_intersect(a, b, S) == expected, (trial, a, b, S)
            hits += expected
        assert 100 < hits < 400


def _solve_exact(cols, rhs):
    """The unique solution of sum_j x_j cols[j] = rhs by Fraction Gaussian
    elimination, or None when the columns are dependent or it is inconsistent."""
    n = len(cols)
    rows = [[F(c[i]) for c in cols] + [F(rhs[i])] for i in range(len(rhs))]
    rank = 0
    for j in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            return None
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][j]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    if any(row[n] != 0 for row in rows[rank:]):
        return None
    return [rows[j][n] for j in range(n)]


def _segment_meets_hull_by_enumeration(a, b, S):
    """Whether [a, b] meets conv(S), with no LP: the polyhedron
    {lam >= 0, sum lam = 1, sum lam_s s - t (b - a) = a, t + r = 1, t, r >= 0}
    is nonempty iff it has a basic solution, so try every support whose
    columns are independent and check the solution is nonnegative."""
    d = len(a)
    cols = [tuple(s) + (1, 0) for s in S]
    cols.append(tuple(ai - bi for ai, bi in zip(a, b)) + (0, 1))
    cols.append((0,) * d + (0, 1))
    rhs = tuple(a) + (1, 1)
    for size in range(1, min(len(cols), len(rhs)) + 1):
        for support in combinations(range(len(cols)), size):
            x = _solve_exact([cols[j] for j in support], rhs)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False


def test_duality_and_certificates_randomized():
    """Hull membership and strict separation are complementary, and their
    certificates substitute exactly (1000 random rational systems)."""
    rng = stream(271828, "dual")
    for trial in range(1000):
        r = int(rng.integers(1, 6))
        m = int(rng.integers(0, 13))
        S = [tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                   for _ in range(r)) for _ in range(m)]
        inside = origin_in_conv(S, dim=r)
        split = strict_separation(S, dim=r)
        assert inside.feasible != split.feasible, (trial, S)
        if inside.feasible:
            assert check_convex_combination(S, inside.witness), (trial, S)
            assert check_convex_combination(S, split.certificate), (trial, S)
        else:
            assert check_strict_witness(S, split.witness), (trial, S)
            assert check_strict_witness(S, inside.certificate), (trial, S)


# Runs in this process and, with POLYDENSE_LP_CHECK=1, in a fresh one: the
# checked mode is fixed when exactlp is imported.
_CHECKED_LEG = """
from fractions import Fraction as F

from polydense.arrangements import chamber_count
from polydense.estimators import tau_mc
from polydense.exactlp import origin_in_conv, segment_hull_intersect, strict_separation
from polydense.rng import stream


def leg():
    rng = stream(161803, "checked")
    sweep = []
    for _ in range(200):
        r = int(rng.integers(1, 5))
        m = int(rng.integers(0, 10))
        S = [tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                   for _ in range(r)) for _ in range(m)]
        inside = origin_in_conv(S, dim=r)
        split = strict_separation(S, dim=r)
        assert inside.feasible != split.feasible
        sweep.append((inside.status, inside.witness, inside.certificate,
                      split.witness, split.certificate))
    counts = []
    for r, m in ((2, 6), (3, 7), (4, 8)):
        S = [tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                   for _ in range(r)) for _ in range(m)]
        counts.append(chamber_count(S).count)
    segments = []
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a, b, *S = [tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                          for _ in range(d)) for _ in range(int(rng.integers(2, 9)))]
        segments.append(segment_hull_intersect(a, b, S))
    assert 0 < sum(segments) < len(segments)
    return repr((sweep, counts, segments, tau_mc(6, 8, 200, 2718)))
"""


def test_checked_mode_matches_default():
    """With POLYDENSE_LP_CHECK=1 the checked pivot is active, every pivot and
    certificate is verified, and results equal the default mode's."""
    namespace: dict = {}
    exec(_CHECKED_LEG, namespace)
    src = str(Path(polydense.__file__).resolve().parents[1])
    env = dict(os.environ, POLYDENSE_LP_CHECK="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = _CHECKED_LEG + """
from polydense import exactlp
assert exactlp._TABLEAU is exactlp._CheckedTableau
print(leg())
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == namespace["leg"]()
