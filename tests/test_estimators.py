from fractions import Fraction as F

import pytest

from polydense import BudgetExceeded
from polydense.estimators import (PROV_EXHAUSTIVE, PROV_MONTE_CARLO,
                                  PROV_STRUCTURAL_ZERO, alpha_exact, alpha_mc,
                                  alpha_via_chambers, alpha_via_chambers_exact,
                                  build_tau_table, density_threshold_sweep,
                                  monotonicity_check, pi_exact, pi_from_pk,
                                  pi_k_exact, pi_k_mc, pi_k_semianalytic, pi_mc,
                                  tau_exact, tau_from_alpha, tau_mc,
                                  tau_threshold_sweep, tau_upper_bound, xi_exact)
from polydense.estimators import (_alpha_block, _pik_block, _sample_star_subset,
                                  _tau_block)
from polydense.graph import long_edge_survives
from polydense.mc import exact_estimate
from polydense.rng import rand_bits, sample_indices, stream

SEED = 20250809


def _within(est, target, factor=3.5):
    return abs(est.value - float(target)) <= factor * max(est.stderr, 1e-12)


class TestTauExact:
    def test_zero_obstructions(self):
        for k in (1, 2, 3, 4):
            assert tau_exact(k, 0).exact_value == 1

    def test_single_obstruction(self):
        for k in range(2, 9):
            assert tau_exact(k, 1).exact_value == 1

    def test_two_obstructions_block_only_as_an_antipodal_pair(self):
        # 2^(k-1) - 1 of the C(2^k - 2, 2) pairs are antipodal
        for k in range(2, 9):
            assert tau_exact(k, 2).exact_value == 1 - F(1, 2 ** k - 3)

    def test_antidiagonal_kills_the_square(self):
        assert tau_exact(2, 2).exact_value == 0

    def test_forced_zero_beyond_class_count(self):
        # any such set contains an antipodal pair
        assert tau_exact(3, 4).exact_value == 0
        assert tau_exact(3, 5).exact_value == 0

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            tau_exact(5, 15)


class TestTauMonotoneAndBound:
    def test_non_increasing_in_m(self):
        for k in (2, 3, 4):
            vals = [tau_exact(k, m).exact_value for m in range(2 ** k - 1)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_upper_bound(self):
        for k in (2, 3, 4):
            for m in range(1, 2 ** k - 1):
                assert tau_exact(k, m).exact_value <= tau_upper_bound(k, m)

    def test_bound_values(self):
        assert tau_upper_bound(4, 1) == 1
        assert tau_upper_bound(2, 5) == F(1, 16)
        # saturated partial sum makes the bound vacuous
        assert tau_upper_bound(6, 3) == 1


class TestTauMc:
    def test_matches_exact_within_3_sigma(self):
        for k, m in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 5), (4, 9)):
            e = tau_exact(k, m).exact_value
            est = tau_mc(k, m, samples=4000, seed=SEED, workers=2)
            assert _within(est, e), (k, m, float(e), est.value)

    def test_zero_m_is_always_one(self):
        assert tau_mc(3, 0, samples=500, seed=1).value == 1.0

    def test_seed_determinism_and_worker_independence(self):
        a = tau_mc(5, 6, samples=1500, seed=7, workers=1)
        b = tau_mc(5, 6, samples=1500, seed=7, workers=2)
        c = tau_mc(5, 6, samples=1500, seed=8, workers=1)
        assert a.value == b.value
        assert a.value != c.value or a.samples == c.samples

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            tau_mc(3, 7, samples=10, seed=0)


class TestAlpha:
    def test_zero_m(self):
        for k in (1, 2, 3, 4):
            assert alpha_exact(k, 0).exact_value == 1

    def test_single_class_square(self):
        assert alpha_exact(2, 1).exact_value == 1

    def test_conditioning_empty(self):
        with pytest.raises(ValueError):
            alpha_exact(3, 4)
        with pytest.raises(ValueError):
            alpha_mc(3, 4, samples=10, seed=0)

    def test_exhaustive_oracle_via_unconditioned_enumeration(self):
        # independent route: enumerate all subsets, filter the conditioning
        # event, and count survivals among them
        from itertools import combinations

        from polydense.graph import long_edge_survives
        for k in (2, 3):
            mask = (1 << k) - 1
            star = range(1, mask)
            for m in range(0, 2 ** (k - 1)):
                hits = 0
                total = 0
                for Y in combinations(star, m):
                    ys = set(Y)
                    if any(p ^ mask in ys for p in ys):
                        continue
                    total += 1
                    if long_edge_survives(k, ys):
                        hits += 1
                assert alpha_exact(k, m).exact_value == F(hits, total)

    def test_mc_matches_exact(self):
        for k, m in ((3, 2), (4, 3), (4, 6)):
            e = alpha_exact(k, m).exact_value
            est = alpha_mc(k, m, samples=4000, seed=SEED, workers=2)
            assert _within(est, e), (k, m)


class TestTauFromAlpha:
    def test_prefactor_k2_m1(self):
        est = tau_from_alpha(2, 1, alpha_exact(2, 1))
        assert est.exact_value == 1

    def test_m0(self):
        assert tau_from_alpha(4, 0, alpha_exact(4, 0)).exact_value == 1

    def test_exact_identity_all_k_up_to_4(self):
        for k in (2, 3, 4):
            classes = 2 ** (k - 1) - 1
            for m in range(0, 2 ** k - 1):
                if m <= classes:
                    routed = tau_from_alpha(k, m, alpha_exact(k, m)).exact_value
                else:
                    routed = tau_from_alpha(k, m, exact_estimate(F(1))).exact_value
                assert routed == tau_exact(k, m).exact_value, (k, m)

    def test_scales_mc_estimates(self):
        a = alpha_mc(4, 3, samples=2000, seed=3)
        t = tau_from_alpha(4, 3, a)
        assert t.value <= a.value
        assert t.stderr < a.stderr


class TestAlphaViaChambers:
    def test_m0_and_m1(self):
        assert alpha_via_chambers(3, 0, samples=200, seed=1).value == 1.0
        assert alpha_via_chambers(3, 1, samples=200, seed=1).value == 1.0

    def test_exact_double_enumeration(self):
        for k in (2, 3, 4):
            for m in range(0, min(2 ** (k - 1) - 1, 4) + 1):
                assert alpha_via_chambers_exact(k, m).exact_value == \
                    alpha_exact(k, m).exact_value, (k, m)

    def test_mc_matches_exact(self):
        for k, m in ((3, 2), (4, 4)):
            e = alpha_exact(k, m).exact_value
            est = alpha_via_chambers(k, m, samples=1200, seed=SEED, workers=2)
            assert _within(est, e), (k, m)

    def test_never_zero_stderr(self):
        est = alpha_via_chambers(3, 1, samples=300, seed=2)
        assert est.stderr > 0


class TestXi:
    def test_antipodal_pair_forces_full_face(self):
        assert xi_exact(3, 4, 3, 2) == 1
        for m in (0, 1):
            assert xi_exact(3, 4, 3, m) == 0

    def test_full_cube_forces_face_occupancy(self):
        assert xi_exact(3, 8, 2, 2) == 1

    def test_normalization_randomized(self):
        rng = stream(17, "xi")
        for _ in range(40):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(2, min(2 ** d, 36) + 1))
            k = int(rng.integers(1, d + 1))
            top = min(2 ** k - 2, n - 2)
            assert sum(xi_exact(d, n, k, m) for m in range(top + 1)) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            xi_exact(3, 4, 3, 3)


class TestTauTable:
    def test_provenance_mix(self):
        table = build_tau_table(5, 20, samples=300, seed=SEED, exact_budget=5000)
        assert table.provenance[0] == PROV_EXHAUSTIVE
        assert table.provenance[3] == PROV_EXHAUSTIVE  # C(30,3) = 4060
        assert table.provenance[4] == PROV_MONTE_CARLO
        assert table.provenance[16] == PROV_STRUCTURAL_ZERO
        assert table.entries[16].exact_value == 0
        assert table.max_m == 20

    def test_entry_zero_is_one(self):
        table = build_tau_table(4, 6, samples=100, seed=1)
        assert table.entries[0].exact_value == 1


def test_decomposition_maps_every_cell_at_once(monkeypatch):
    """decompose_pi hands every tau cell of every k to one parallel_map; at
    d = 4, n = 6 the 1 + 3 + 5 + 5 cells are all exhaustive."""
    from polydense import estimators

    calls = []
    real = estimators.parallel_map

    def counted(fn, tasks, workers=1):
        calls.append(len(tasks))
        return real(fn, tasks, workers)

    monkeypatch.setattr(estimators, "parallel_map", counted)
    dec = estimators.decompose_pi(4, 6, tau_samples=10, seed=1)
    assert calls == [14]
    assert dec.combined.exact_value == F(1888, 2145)


class TestPiKSemianalytic:
    def test_d3_n8_cases(self):
        t1 = build_tau_table(1, 0, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, 1, t1).exact_value == 1
        t2 = build_tau_table(2, 2, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, 2, t2).exact_value == 0
        t3 = build_tau_table(3, 6, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, 3, t3).exact_value == 0

    def test_exact_equals_enumerated_conditional(self):
        # weighted tau sum against direct conditional enumeration, d=3
        for n in range(3, 9):
            for k in (1, 2, 3):
                table = build_tau_table(k, min(2 ** k - 2, n - 2), samples=10,
                                        seed=1, exact_budget=10_000)
                semi = pi_k_semianalytic(3, n, k, table)
                enum = pi_k_exact(3, n, k)
                assert semi.exact_value == enum.exact_value, (n, k)

    def test_truncated_table_brackets_the_truth(self):
        # cut the table short: the bracket must still contain the exact value
        table = build_tau_table(3, 2, samples=10, seed=1, exact_budget=10_000)
        semi = pi_k_semianalytic(4, 10, 3, table)
        exact = pi_k_exact(4, 10, 3)
        assert semi.ci95[0] - 1e-12 <= exact.value <= semi.ci95[1] + 1e-12
        assert not semi.exact

    def test_table_mismatch(self):
        table = build_tau_table(3, 4, samples=10, seed=1)
        with pytest.raises(ValueError):
            pi_k_semianalytic(4, 8, 2, table)


class TestPiExactAndMonotone:
    def test_full_cube_value(self):
        assert pi_exact(3, 8).exact_value == F(3, 7)

    def test_pair_only(self):
        assert pi_exact(2, 2).exact_value == 1

    def test_monotonicity_d2_d3(self):
        for d in (2, 3):
            rep = monotonicity_check(d)
            assert rep.strictly_decreasing
            assert rep.violations == []
            ns = sorted(rep.values)
            assert ns == list(range(3, 2 ** d + 1))

    def test_monotonicity_rejects_large_d(self):
        with pytest.raises(BudgetExceeded):
            monotonicity_check(4)


class TestPiMc:
    def test_forced_full_cube(self):
        est = pi_mc(3, 8, samples=1500, seed=SEED, workers=2)
        assert _within(est, F(3, 7))

    def test_n2_is_always_edge(self):
        assert pi_mc(3, 2, samples=400, seed=1).value == 1.0

    def test_matches_full_enumeration_d3(self):
        for n in (3, 5, 7):
            exact = pi_exact(3, n).exact_value
            est = pi_mc(3, n, samples=2500, seed=SEED, workers=2)
            assert _within(est, exact), (n, float(exact), est.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            pi_mc(3, 9, samples=10, seed=0)


class TestPiKMc:
    def test_k1_always_edge(self):
        assert pi_k_mc(4, 6, 1, samples=400, seed=1).value == 1.0

    def test_matches_exact_conditional_d3(self):
        for k in (1, 2, 3):
            for n in (3, 5, 8):
                exact = pi_k_exact(3, n, k).exact_value
                est = pi_k_mc(3, n, k, samples=2000, seed=SEED, workers=2)
                assert _within(est, exact), (k, n)


class TestPiFromPk:
    def test_exact_reconstruction_d3(self):
        for n in (3, 6, 8):
            pik = {k: pi_k_exact(3, n, k) for k in (1, 2, 3)}
            assert pi_from_pk(3, n, pik).exact_value == pi_exact(3, n).exact_value

    def test_all_ones(self):
        pik = {k: exact_estimate(F(1)) for k in (1, 2, 3, 4)}
        assert pi_from_pk(4, 5, pik).exact_value == 1

    def test_d3_n8_weights(self):
        pik = {1: exact_estimate(F(1)), 2: exact_estimate(F(0)),
               3: exact_estimate(F(0))}
        assert pi_from_pk(3, 8, pik).exact_value == F(3, 7)

    def test_missing_entries(self):
        with pytest.raises(ValueError):
            pi_from_pk(3, 8, {1: exact_estimate(F(1))})


def test_pi_k_completion_sampler_is_uniform():
    # the canonical-pair completion skips exactly the two pair vertices; the
    # remaining 2^d - 2 points must be hit uniformly
    import math
    from collections import Counter

    d, k = 3, 2
    wb = (1 << k) - 1
    rng = stream(123, "audit")
    counts = Counter()
    trials = 30_000
    for _ in range(trials):
        idx = sample_indices(rng, (1 << d) - 2, 1)[0]
        p = idx + 1
        if p >= wb:
            p += 1
        counts[p] += 1
    assert set(counts) == {1, 2, 4, 5, 6, 7}
    p_each = 1 / 6
    sigma = math.sqrt(trials * p_each * (1 - p_each))
    for c in counts.values():
        assert abs(c - trials * p_each) <= 4 * sigma


def test_pi_k_cross_method_at_full_distance():
    # at k = d the face is the whole cube, so the conditional edge
    # probability is a single tau value; the table route and the direct
    # conditional sampler must agree
    table_route = pi_k_semianalytic(
        8, 32, 8, build_tau_table(8, 30, samples=800, seed=SEED, workers=2))
    direct = pi_k_mc(8, 32, 8, samples=3000, seed=SEED, workers=2)
    gap = abs(table_route.value - direct.value)
    assert gap <= 3 * (table_route.stderr ** 2 + direct.stderr ** 2) ** 0.5 + 1e-9


class TestSweeps:
    def test_tau_sweep_rows_and_determinism(self):
        rows = tau_threshold_sweep([4, 5], [1.5, 2.0], samples=400, seed=SEED)
        again = tau_threshold_sweep([4, 5], [1.5, 2.0], samples=400, seed=SEED)
        assert [(r.k, r.m, r.estimate.value) for r in rows] == \
            [(r.k, r.m, r.estimate.value) for r in again]
        assert [r.m for r in rows] == [6, 8, 8, 10]

    def test_tau_sweep_skips_impossible_m(self):
        rows = tau_threshold_sweep([2], [3.0], samples=50, seed=1)
        assert rows[0].estimate is None
        assert rows[0].note

    def test_tau_non_increasing_in_ratio_at_fixed_k(self):
        rows = tau_threshold_sweep([7], [0.5, 1.0, 2.0, 3.0], samples=1200,
                                   seed=SEED, workers=2)
        vals = [r.estimate.value for r in rows]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 0.05, vals

    def test_density_sweep_rows(self):
        rows = density_threshold_sweep([6], [1.2, 3.0], samples=300, seed=SEED,
                                       workers=2)
        assert rows[0].n == round(1.2 ** 6)
        assert rows[0].estimate is not None
        assert rows[1].estimate is None  # n = 729 > 2^6
        assert rows[1].note

    def test_density_decreasing_in_n_within_noise(self):
        lo = pi_mc(6, 8, samples=1500, seed=SEED, workers=2)
        hi = pi_mc(6, 40, samples=1500, seed=SEED, workers=2)
        assert hi.value < lo.value


# Reference loops for the Monte-Carlo blocks: the same streams and draws,
# with one long_edge_survives verdict per draw instead of one batch.


def _tau_block_one_by_one(k, m, count, seed, block):
    rng = stream(seed, f"tau:k={k}:m={m}", block)
    return sum(long_edge_survives(k, _sample_star_subset(rng, k, m))
               for _ in range(count))


def _alpha_block_one_by_one(k, m, count, seed, block):
    rng = stream(seed, f"alpha:k={k}:m={m}", block)
    base = 1 << (k - 1)
    mask = (1 << k) - 1
    hits = 0
    for _ in range(count):
        idxs = sample_indices(rng, base - 1, m)
        orient = rand_bits(rng, m) if m else 0
        hits += long_edge_survives(k, [(base + idx) ^ (mask if orient >> j & 1 else 0)
                                       for j, idx in enumerate(idxs)])
    return hits


def _pik_block_one_by_one(d, n, k, count, seed, block):
    rng = stream(seed, f"pik:d={d}:n={n}:k={k}", block)
    wb = (1 << k) - 1
    hits = 0
    for _ in range(count):
        ps = [idx + 1 + (idx + 1 >= wb) for idx in sample_indices(rng, (1 << d) - 2, n - 2)]
        hits += long_edge_survives(k, [p for p in ps if not p & ~wb])
    return hits


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("batched, one_by_one, params", [
    (_tau_block, _tau_block_one_by_one, (8, 12)),
    (_alpha_block, _alpha_block_one_by_one, (8, 12)),
    (_pik_block, _pik_block_one_by_one, (8, 32, 6)),
], ids=["tau", "alpha", "pik"])
def test_blocks_count_the_hits_of_one_by_one_verdicts(seed, batched, one_by_one, params):
    args = params + (300, seed, 2)
    hits = one_by_one(*args)
    assert 0 < hits < 300
    assert batched(args) == hits
