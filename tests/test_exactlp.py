import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydense
from polydense import DimensionMismatch, exactlp
from polydense.estimators import _sample_star_subset
from polydense.exactlp import (FEASIBLE, INFEASIBLE, check_convex_combination,
                               check_strict_witness, origin_in_conv,
                               origin_in_conv_batch, segment_hull_intersect,
                               strict_separation)
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

from polydense.arrangements import chamber_count, chamber_count_bruteforce
from polydense.estimators import alpha_mc, pi_k_mc, tau_exact, tau_mc
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
        counts.append(chamber_count_bruteforce(S).count)
        assert chamber_count(S).count == counts[-1]
    segments = []
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a, b, *S = [tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                          for _ in range(d)) for _ in range(int(rng.integers(2, 9)))]
        segments.append(segment_hull_intersect(a, b, S))
    assert 0 < sum(segments) < len(segments)
    return repr((sweep, counts, segments, tau_mc(6, 8, 200, 2718),
                 tau_mc(12, 36, 40, 2718), alpha_mc(8, 12, 200, 2718),
                 tau_exact(5, 4), pi_k_mc(8, 32, 6, 200, 2718)))
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


@pytest.mark.parametrize("k, m", [(12, 36), (16, 160)])
def test_pivots_per_solve_stay_linear_in_k(monkeypatch, k, m):
    """A machine-independent cost guard on the edge test's own shape: mean
    pivots per diagonal-vs-hull solve over sampled face subsets, sorted and
    antipode-free as long_edge_survives hands them on, is at most 3k, both
    for the projected LP that long_edge_survives solves and for the lifted
    segment test.  These instances take 17.6 and 30.1 pivots projected, 20.3
    and 31.7 lifted; Bland's rule took 39.2 and 263 lifted."""
    pivots = 0
    real = exactlp._Tableau._pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        real(self, r, c)

    monkeypatch.setattr(exactlp._Tableau, "_pivot", counted)
    rng = stream(4142, f"pivot-guard:k={k}:m={m}")
    mask = (1 << k) - 1
    faces = []
    while len(faces) < 15:
        pts = sorted(_sample_star_subset(rng, k, m))
        if not any(p ^ mask in pts for p in pts):
            faces.append(pts)  # long_edge_survives answers the rest with no LP
    for pts in faces:
        S = [tuple((p >> i & 1) - (p & 1) for i in range(1, k)) for p in pts]
        origin_in_conv(S, k - 1)
    projected, pivots = pivots, 0
    for pts in faces:
        S = [tuple(1 if p >> i & 1 else -1 for i in range(k)) for p in pts]
        segment_hull_intersect((-1,) * k, (1,) * k, S)
    assert projected / len(faces) <= 3 * k
    assert pivots / len(faces) <= 3 * k


@st.composite
def _degenerate_configs(draw):
    """Small integer configurations with forced duplicates, zero vectors and
    points on a line through two others."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 5))):
        if len(pts) >= 10:
            break
        kind = draw(st.sampled_from(["duplicate", "zero", "collinear"]))
        p = draw(st.sampled_from(pts))
        if kind == "duplicate":
            pts.append(p)
        elif kind == "zero":
            pts.append((0,) * d)
        else:
            q = draw(st.sampled_from(pts))
            t = draw(st.integers(-2, 3))
            pts.append(tuple(x + t * (y - x) for x, y in zip(p, q)))
    return draw(st.permutations(pts)), d


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_configs())
def test_degenerate_input_terminates_with_certificates(config):
    S, d = config
    inside = origin_in_conv(S, dim=d)
    if inside.feasible:
        assert check_convex_combination(S, inside.witness)
    else:
        assert check_strict_witness(S, inside.certificate, margin=1)
    split = strict_separation(S, dim=d)
    assert split.feasible != inside.feasible


@pytest.mark.parametrize("keep, meets", [(lambda p: True, True),
                                         (lambda p: p & 1, False)],
                         ids=["all-62", "facet-31"])
def test_six_cube_interior_points(keep, meets):
    """All 62 interior points of the 6-cube, a maximally degenerate input
    (31 antipodal pairs, ties in the ratio tests), meet the diagonal; the 31
    on the facet x_0 = +1 miss it."""
    k = 6
    S = [tuple(1 if p >> i & 1 else -1 for i in range(k))
         for p in range(1, (1 << k) - 1) if keep(p)]
    assert segment_hull_intersect((-1,) * k, (1,) * k, S) is meets
    lifted = [(1,) * k + (-1,), (-1,) * k + (-1,)] + [s + (1,) for s in S]
    res = origin_in_conv(lifted)
    assert res.feasible is meets
    # as batch input: the instance, and again with its points reversed
    assert origin_in_conv_batch(np.array([lifted, lifted[::-1]])) == [meets] * 2
    if meets:
        assert check_convex_combination(lifted, res.witness)
    else:
        assert check_strict_witness(lifted, res.certificate, margin=1)


def _diagonal_instances(k, m, count, seed):
    """Lifted diagonal-vs-hull configurations, shaped (count, m + 2, k + 1),
    from sampled face subsets, sorted and antipode-free as
    long_edge_survives hands them on."""
    rng = stream(seed, f"batch:k={k}:m={m}")
    mask = (1 << k) - 1
    out = []
    while len(out) < count:
        pts = sorted(_sample_star_subset(rng, k, m))
        if any(p ^ mask in pts for p in pts):
            continue
        out.append([(1,) * k + (-1,), (-1,) * k + (-1,)]
                   + [tuple(1 if p >> i & 1 else -1 for i in range(k)) + (1,)
                      for p in pts])
    return np.array(out, dtype=np.int64)


def _scalar_verdicts(points):
    return [origin_in_conv(S.tolist()).feasible for S in points]


@st.composite
def _degenerate_groups(draw):
    """Same-shape groups of small integer configurations with forced
    duplicates, zero vectors and points on a line through two others."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    coord = st.integers(-3, 3)
    group = []
    for _ in range(draw(st.integers(1, 6))):
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
        for _ in range(draw(st.integers(0, n - 1))):
            kind = draw(st.sampled_from(["duplicate", "zero", "collinear"]))
            i = draw(st.integers(0, n - 1))
            p = draw(st.sampled_from(pts))
            if kind == "duplicate":
                pts[i] = p
            elif kind == "zero":
                pts[i] = (0,) * d
            else:
                q = draw(st.sampled_from(pts))
                t = draw(st.integers(-2, 3))
                pts[i] = tuple(x + t * (y - x) for x, y in zip(p, q))
        group.append(pts)
    return np.array(group, dtype=np.int64).reshape(len(group), n, d)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_degenerate_groups())
def test_batch_agrees_with_scalar_on_degenerate_groups(points):
    assert origin_in_conv_batch(points) == _scalar_verdicts(points)


def test_batch_of_empty_configurations():
    assert origin_in_conv_batch(np.zeros((3, 0, 2), dtype=np.int64)) == [False] * 3
    assert origin_in_conv_batch(np.zeros((0, 4, 2), dtype=np.int64)) == []
    with pytest.raises(TypeError):
        origin_in_conv_batch(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(TypeError):
        origin_in_conv_batch(np.zeros((2, 3, 1)))


def _count_scalar_solves(monkeypatch):
    """Record each scalar phase-one solve, whether origin_in_conv starts it
    or the batch hands over a tableau; checked mode, which would add one
    per instance, is switched off."""
    monkeypatch.setattr(exactlp, "_CHECK", False)
    calls = []
    real = exactlp._Tableau.phase_one

    def counted(self):
        calls.append(self.m)
        return real(self)

    monkeypatch.setattr(exactlp._Tableau, "phase_one", counted)
    return calls


def test_forced_fallback_gives_the_scalar_verdicts(monkeypatch):
    """With the int64 limit lowered to 4, instances leave the batch after a
    pivot or two and the scalar solver finishes them."""
    points = np.concatenate([_diagonal_instances(6, 12, 30, 1),
                             _diagonal_instances(6, 12, 30, 2)])
    want = _scalar_verdicts(points)
    assert 0 < sum(want) < len(want)
    calls = _count_scalar_solves(monkeypatch)
    monkeypatch.setattr(exactlp, "_INT64_SAFE", 4)
    assert origin_in_conv_batch(points) == want
    assert 0 < len(calls) <= len(points)
    calls.clear()
    # entries already at the limit leave before the first pivot
    assert origin_in_conv_batch(4 * points) == want
    assert len(calls) == len(points)


def test_fallback_keeps_the_batch_pivots(monkeypatch):
    """An instance that leaves the batch after a few pivots is finished from
    that tableau: the scalar solver takes only the remaining pivots, fewer
    than a solve from the start."""
    points = _diagonal_instances(12, 36, 1, 5)
    monkeypatch.setattr(exactlp, "_CHECK", False)
    pivots = 0
    real = exactlp._Tableau._pivot

    def counted(self, r, c):
        nonlocal pivots
        pivots += 1
        real(self, r, c)

    monkeypatch.setattr(exactlp._Tableau, "_pivot", counted)
    want = origin_in_conv(points[0].tolist()).feasible
    from_start, pivots = pivots, 0
    # above every entry of the initial tableau (objective entries reach 14),
    # so the instance pivots in the batch before it leaves
    monkeypatch.setattr(exactlp, "_INT64_SAFE", 64)
    assert origin_in_conv_batch(points) == [want]
    assert 0 < pivots < from_start


def test_natural_fallback_at_k16(monkeypatch):
    """At (k, m) = (16, 48) some tableaus outgrow 2**31 and finish in the
    scalar solver; the verdicts are the scalar ones either way."""
    points = _diagonal_instances(16, 48, 20, 4142)
    want = _scalar_verdicts(points)
    calls = _count_scalar_solves(monkeypatch)
    assert origin_in_conv_batch(points) == want
    assert 0 < len(calls) < len(points)


def test_batches_are_split_by_tableau_bytes(monkeypatch):
    points = _diagonal_instances(4, 6, 40, 7)
    want = _scalar_verdicts(points)
    sizes = []
    real = exactlp._phase_one_batch

    def recorded(pts):
        sizes.append(len(pts))
        return real(pts)

    monkeypatch.setattr(exactlp, "_phase_one_batch", recorded)
    monkeypatch.setattr(exactlp, "_BATCH_BYTES", 8 * 7 * 15 * 16)
    assert origin_in_conv_batch(points) == want
    assert sizes == [16, 16, 8]


def test_checked_batch_rejects_a_wrong_verdict(monkeypatch):
    points = _diagonal_instances(4, 6, 10, 8)
    monkeypatch.setattr(exactlp, "_CHECK", True)
    assert origin_in_conv_batch(points) == _scalar_verdicts(points)
    monkeypatch.setattr(exactlp, "_phase_one_batch",
                        lambda pts: [not v for v in _scalar_verdicts(pts)])
    with pytest.raises(ArithmeticError):
        origin_in_conv_batch(points)
