import math
import re
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydense import (BudgetExceeded, CubeVertex, DegenerateInput, DimensionMismatch,
                       arrangements, build_config_plus, chamber_count,
                       chamber_count_bruteforce, harding_bound, moivre_laplace_ratio,
                       normal_cdf, partial_binomial_sum, phi_project)
from polydense.arrangements import (BRUTE_FORCE, DELETION_RESTRICTION, VectorConfig,
                                    moivre_cutoff)
from polydense.estimators import _run_blocks
from polydense.exactlp import origin_in_conv_batch
from polydense.rng import stream


def _random_config(rng, r, m):
    vecs = []
    while len(vecs) < m:
        v = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                  for _ in range(r))
        if any(x != 0 for x in v):
            vecs.append(v)
    return vecs


def _det(rows):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[F(x) for x in row] for row in rows]
    n = len(a)
    det = F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _general_position_config(rng, r, m):
    """Random config whose every r-subset is independent (checked exactly)."""
    vecs = _random_config(rng, r, m)
    while any(_det(sub) == 0 for sub in combinations(vecs, r)):
        vecs = _random_config(rng, r, m)
    return vecs


def _wendel_block(args):
    """Hits of one block: uniform sign vectors s for which the points s_i v_i
    miss the origin's hull, v_i = (1, t, ..., t^(r-1)) on the moment curve at
    m distinct t centred on 0, so every r of them are independent."""
    r, m, count, seed, index = args
    vecs = np.vander(2 * np.arange(m) - (m - 1), r, increasing=True)
    signs = stream(seed, f"wendel-signs:r={r}:m={m}", index).choice([-1, 1], (count, m))
    return count - sum(origin_in_conv_batch(signs[:, :, None] * vecs))


_small_int = st.integers(-3, 3)
_scale = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _parallel_configs(draw):
    """A few base vectors in R^r, each repeated and rescaled (sign flips too)."""
    r = draw(st.integers(1, 4))
    bases = draw(st.lists(st.tuples(*[_small_int] * r).filter(any),
                          min_size=1, max_size=5))
    vecs = [tuple(c * x for x in draw(st.sampled_from(bases)))
            for c in draw(st.lists(_scale, min_size=1, max_size=10))]
    return draw(st.permutations(bases + vecs))


@st.composite
def _rank_deficient_configs(draw):
    """Vectors in R^r, r <= 5, spanning a subspace of dimension below r."""
    r = draw(st.integers(2, 5))
    basis = draw(st.lists(st.tuples(*[_small_int] * r), min_size=1, max_size=r - 1))
    vecs = []
    for coeffs in draw(st.lists(st.tuples(*[_small_int] * len(basis)),
                                min_size=1, max_size=10)):
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(r))
        if any(v):
            vecs.append(tuple(F(x, draw(st.integers(1, 3))) for x in v))
    return vecs or [(1,) + (0,) * (r - 1)]


@st.composite
def _halfcube_configs(draw):
    """Subsets of the projected half configuration for k <= 6 (r = k - 1)."""
    vectors = build_config_plus(draw(st.integers(1, 5))).vectors
    return draw(st.lists(st.sampled_from(vectors), max_size=8, unique=True))


class TestPhiProject:
    def test_r1_hand_value(self):
        # (-1, +1): coordinate sum 0, projection keeps the first coordinate
        assert phi_project(CubeVertex(2, 0b10)) == (F(-1),)

    def test_r2_hand_value(self):
        # (+1, +1, -1): subtract 1/3 from each coordinate, keep the first two
        assert phi_project(CubeVertex(3, 0b011)) == (F(2, 3), F(2, 3))

    def test_odd_map(self):
        for bits in range(1, 15):
            v = CubeVertex(4, bits)
            a = phi_project(v)
            b = phi_project(v.antipode())
            assert tuple(-x for x in a) == b

    def test_sum_zero_before_truncation(self):
        # oracle recomputed from the definition: v minus its mean in every
        # coordinate sums to zero, and the operation returns its prefix
        for bits in range(1, 7):
            v = CubeVertex(3, bits)
            coords = v.coords()
            mean = F(sum(coords), 3)
            full = [c - mean for c in coords]
            assert sum(full) == 0
            assert phi_project(v) == tuple(full[:2])

    def test_injective_small_r(self):
        for r in range(1, 7):
            seen = set()
            for bits in range(1, (1 << (r + 1)) - 1):
                seen.add(phi_project(CubeVertex(r + 1, bits)))
            assert len(seen) == (1 << (r + 1)) - 2

    def test_rejects_diagonal_endpoints(self):
        with pytest.raises(DegenerateInput):
            phi_project(CubeVertex(3, 0))
        with pytest.raises(DegenerateInput):
            phi_project(CubeVertex(3, 7))


class TestConfigPlus:
    @pytest.mark.parametrize("r,count", [(1, 1), (2, 3), (3, 7), (4, 15)])
    def test_counts(self, r, count):
        cfg = build_config_plus(r)
        assert len(cfg) == count
        assert cfg.r == r

    def test_no_antipodal_pairs_inside(self):
        for r in (2, 3, 4):
            vecs = set(build_config_plus(r).vectors)
            for v in vecs:
                assert tuple(-x for x in v) not in vecs

    def test_union_with_negation_is_disjoint_and_full(self):
        # the full projected configuration splits into the half set and its
        # negation
        for r in (2, 3):
            half = set(build_config_plus(r).vectors)
            neg = {tuple(-x for x in v) for v in half}
            assert not half & neg
            full = {phi_project(CubeVertex(r + 1, bits))
                    for bits in range(1, (1 << (r + 1)) - 1)}
            assert half | neg == full

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_config_plus(25)


class TestChamberCount:
    def test_single_vector_two_chambers(self):
        assert chamber_count([(F(3),)]).count == 2

    def test_planar_generic_lines(self):
        rng = stream(2718, "planar")
        for m in (1, 2, 3, 4, 5, 6):
            vecs = []
            rays = set()
            while len(vecs) < m:
                v = tuple(F(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                          for _ in range(2))
                if all(x == 0 for x in v):
                    continue
                lead = next(x for x in v if x != 0)
                ray = tuple(x / lead for x in v)
                if ray in rays:
                    continue
                rays.add(ray)
                vecs.append(v)
            cc = chamber_count(vecs)
            assert cc.count == 2 * m
            assert chamber_count_bruteforce(vecs).count == 2 * m

    def test_duplicate_scale_collapses(self):
        s = (F(2), F(-3))
        assert chamber_count([s]).count == chamber_count([s, (F(4), F(-6))]).count == 2

    def test_negation_and_scaling_invariance(self):
        rng = stream(99, "inv")
        for _ in range(20):
            r = int(rng.integers(2, 4))
            m = int(rng.integers(1, 6))
            vecs = _random_config(rng, r, m)
            ref = chamber_count(vecs).count
            scaled = [tuple(x * F(int(rng.integers(1, 5))) for x in v) for v in vecs]
            flipped = [tuple(-x for x in v) if rng.integers(0, 2) else v
                       for v in scaled]
            assert chamber_count(flipped).count == ref

    def test_agrees_with_bruteforce_randomized(self):
        rng = stream(123, "agree")
        for _ in range(50):
            r = int(rng.integers(1, 4))
            m = int(rng.integers(1, 9))
            vecs = _random_config(rng, r, m)
            a = chamber_count(vecs)
            b = chamber_count_bruteforce(vecs)
            assert a.count == b.count
            assert a.method == DELETION_RESTRICTION and b.method == BRUTE_FORCE
            assert a.count <= min(2 ** m, harding_bound(r, m))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_parallel_configs(), _rank_deficient_configs(),
                     _halfcube_configs()))
    def test_agrees_with_bruteforce_on_degenerate_configs(self, vecs):
        assert chamber_count(vecs).count == chamber_count_bruteforce(vecs).count

    def test_counts_with_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("chamber_count called an LP")

        monkeypatch.setattr(arrangements, "origin_in_conv", no_lp)
        monkeypatch.setattr(arrangements, "strict_separation", no_lp)
        rng = stream(2024, "no-lp")
        for r, m in ((2, 7), (3, 9), (4, 12), (5, 13)):
            vecs = _general_position_config(rng, r, m)
            assert chamber_count(vecs).count == harding_bound(r, m)

    def test_harding_equality_generic_up_to_r_plus_one(self):
        rng = stream(321, "generic")
        for _ in range(30):
            r = int(rng.integers(1, 5))
            m = int(rng.integers(1, r + 2))
            vecs = _random_config(rng, r, m)
            assert chamber_count(vecs).count == harding_bound(r, m)
        # m > r + 1 in general position (every r-subset independent, checked
        # exactly): Cover's (1965) count, which uses no LP
        for _ in range(30):
            r = int(rng.integers(1, 5))
            m = int(rng.integers(r + 2, 11))
            vecs = _general_position_config(rng, r, m)
            assert chamber_count(vecs).count == harding_bound(r, m)

    def test_empty_config(self):
        assert chamber_count(VectorConfig(r=2, vectors=())).count == 1

    def test_mixed_lengths_raise(self):
        for count in (chamber_count, chamber_count_bruteforce):
            with pytest.raises(DimensionMismatch):
                count([(1, 2), (1, 2, 3)])

    def test_zero_vector_raises(self):
        for count in (chamber_count, chamber_count_bruteforce):
            with pytest.raises(ValueError):
                count([(1, 2), (0, 0)])

    def test_budget(self):
        lines = [(1, i) for i in range(25)]
        assert chamber_count(lines[:24]).count == 48
        with pytest.raises(BudgetExceeded) as exc:
            chamber_count(lines)
        assert exc.value.required == 25

    def test_bruteforce_budget(self):
        rng = stream(5, "bud")
        vecs = _random_config(rng, 2, 15)
        with pytest.raises(BudgetExceeded):
            chamber_count_bruteforce(vecs)

    @pytest.mark.parametrize("r, m", [(2, 7), (3, 9), (4, 12), (5, 12)])
    def test_bruteforce_share_is_wendels_probability(self, r, m):
        """Wendel (1962): m points in general position in R^r, each negated
        with probability 1/2, miss the origin's hull, that is lie in an open
        half-space, with probability 2^(1-m) * sum_{i<r} C(m-1, i).  The
        brute force decides each of the 2^m sign vectors by LP, so its count
        over 2^m must equal that closed form exactly (Cover 1965)."""
        vecs = _general_position_config(stream(1962, f"wendel:r={r}:m={m}"), r, m)
        wendel = F(sum(math.comb(m - 1, i) for i in range(r)), 2 ** (m - 1))
        assert F(chamber_count_bruteforce(vecs).count, 2 ** m) == wendel

    @pytest.mark.parametrize("r, m, samples", [(4, 8, 2000), (6, 14, 2000),
                                               (8, 18, 2000), (11, 22, 1000)])
    def test_sampled_share_matches_wendel(self, r, m, samples):
        """Wendel's probability again, now sampled: random sign vectors run
        through the block runner and the batched LP, with the same hits at
        one and two workers, within 4 sigma of the closed form."""
        blocks = [_run_blocks(_wendel_block, (r, m), samples, 1962, workers)
                  for workers in (1, 2)]
        assert blocks[0] == blocks[1]
        p = sum(math.comb(m - 1, i) for i in range(r)) / 2 ** (m - 1)
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(sum(blocks[0]) / samples - p) <= 4 * sigma


class TestVectorConfig:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            VectorConfig(r=2, vectors=((F(0), F(0)),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            VectorConfig(r=1, vectors=((F(1),), (F(1),)))


class TestPartialBinomialSum:
    def test_small_values(self):
        assert partial_binomial_sum(1, 3) == 4
        assert partial_binomial_sum(3, 3) == 8

    def test_negative_p(self):
        assert partial_binomial_sum(-1, 5) == 0

    def test_saturation(self):
        assert partial_binomial_sum(10, 6) == 64

    def test_half_of_q100(self):
        value = F(partial_binomial_sum(50, 100), 2 ** 100)
        # the median term splits: b(50,100)/2^100 = 1/2 + C(100,50)/2^101
        assert value == F(1, 2) + F(math.comb(100, 50), 2 ** 101)
        assert abs(float(value) - 0.5398) < 1e-4

    def test_matches_direct_sum(self):
        for q in range(0, 12):
            for p in range(-1, q + 2):
                direct = sum(math.comb(q, i) for i in range(0, max(0, min(p, q)) + 1)) \
                    if p >= 0 else 0
                assert partial_binomial_sum(p, q) == direct


class TestHardingBound:
    def test_planar_matches_generic_count(self):
        assert harding_bound(2, 5) == 10

    def test_saturated(self):
        for r, m in ((3, 3), (5, 4), (4, 2)):
            assert harding_bound(r, m) == 2 ** m

    def test_line(self):
        assert harding_bound(1, 3) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            harding_bound(0, 3)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_reflection(self):
        rng = stream(6, "phi")
        for _ in range(50):
            x = float(rng.normal()) * 3
            assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) <= 1e-10

    def test_against_quadrature(self):
        # Simpson's rule on the density as an independent oracle
        def simpson(lo, hi, steps):
            h = (hi - lo) / steps
            total = 0.0
            for i in range(steps):
                a = lo + i * h
                mid = a + h / 2
                b = a + h
                fa = math.exp(-a * a / 2)
                fm = math.exp(-mid * mid / 2)
                fb = math.exp(-b * b / 2)
                total += (fa + 4 * fm + fb) * h / 6
            return total / math.sqrt(2 * math.pi)

        for x in (-2.0, -0.5, 0.3, 1.0, 1.96):
            oracle = simpson(-10.0, x, 4000)
            assert abs(normal_cdf(x) - oracle) < 1e-8
        assert abs(normal_cdf(1.96) - 0.9750) < 1e-4


class TestMoivreLaplace:
    def test_q100_center(self):
        assert abs(moivre_laplace_ratio(100, 0.0) - 0.5398) < 1e-4

    def test_q400_center_near_half(self):
        assert abs(moivre_laplace_ratio(400, 0.0) - 0.5) <= 0.05

    def test_saturated_tail(self):
        assert moivre_laplace_ratio(64, 100.0) == 1.0
        assert moivre_laplace_ratio(64, -100.0) == 0.0

    def test_monotone_in_mu(self):
        values = [moivre_laplace_ratio(144, mu) for mu in (-1.0, -0.3, 0.0, 0.4, 1.2)]
        assert values == sorted(values)

    def test_cutoff_beyond_the_float_range_names_q_and_mu(self):
        assert moivre_cutoff(1600, 1e15) == 40_000_000_000_000_800
        assert moivre_laplace_ratio(1600, 1e15) == 1.0
        for mu in (1e308, -1e308):
            with pytest.raises(ValueError, match=re.escape(f"q=1600, mu={mu}")):
                moivre_laplace_ratio(1600, mu)

    def test_convergence_toward_limit(self):
        for mu in (-0.5, 0.0, 0.5):
            target = normal_cdf(2 * mu)
            dev_small = abs(moivre_laplace_ratio(100, mu) - target)
            dev_large = abs(moivre_laplace_ratio(1600, mu) - target)
            assert dev_large < dev_small
