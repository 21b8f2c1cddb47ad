import tracemalloc
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from polydense import (BudgetExceeded, arrangements, build_config_plus, chamber_count,
                       chamber_count_bruteforce, estimators, full_cube, graph,
                       graph_density_exact)
from polydense.cube import sample_vertex_bits
from polydense.estimators import (PROV_CLOSED_FORM, PROV_EXHAUSTIVE, PROV_MONTE_CARLO,
                                  PROV_STRUCTURAL_ZERO, alpha_exact, alpha_mc,
                                  alpha_via_chambers, alpha_via_chambers_exact,
                                  build_tau_table, decompose_pi, density_threshold_sweep,
                                  monotonicity_check, pi_exact, pi_from_pk,
                                  pi_k_exact, pi_k_mc, pi_k_semianalytic, pi_mc,
                                  tau_cell, tau_exact, tau_from_alpha, tau_mc,
                                  tau_threshold_sweep, tau_upper_bound, xi_exact)
from polydense.estimators import (_alpha_block, _alpha_chambers_block, _pi_block,
                                  _pik_block, _sample_star_subset, _tau_block)
from polydense.graph import edge_kernel, long_edge_survives
from polydense.mc import Z95, bernoulli_estimate, exact_estimate, wilson_interval
from polydense.rng import sample_indices, stream

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

    def test_budget_message_names_the_size_and_the_cap(self):
        with pytest.raises(BudgetExceeded,
                           match=r"^593775 subsets exceed the budget of 200000$"):
            tau_exact(5, 6)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_a_count_above_the_classes_is_the_enumerated_zero(self, k):
        """Above 2^(k-1) - 1 points every subset holds an antipodal pair:
        the same Estimate as the enumeration, samples included."""
        pool = range(1, (1 << k) - 1)
        for m in range(1 << (k - 1), (1 << k) - 1):
            total = comb((1 << k) - 2, m)
            if total > 30_000:
                continue
            enumerated = estimators._exact_share(k, total, total, "subsets",
                                                 lambda: combinations(pool, m))
            assert enumerated.exact_value == 0
            assert tau_exact(k, m) == enumerated, m

    def test_the_zero_above_the_classes_enumerates_nothing(self, monkeypatch):
        monkeypatch.setattr(estimators, "long_edges_survive", _no_work)
        est = tau_exact(5, 16, max_subsets=comb(30, 16))
        assert est.exact_value == 0 and est.samples == comb(30, 16)

    def test_the_zero_above_the_classes_keeps_the_budget(self):
        with pytest.raises(BudgetExceeded) as err:
            tau_exact(5, 27, max_subsets=100)
        assert err.value.required == comb(30, 27)


def test_a_count_beyond_str_names_its_digits():
    """comb(2^14, 8000) * C(8000, 2) has 4,936 digits, above the 4,300 that
    str() of an int converts."""
    with pytest.raises(BudgetExceeded,
                       match=r"^a 4936-digit number of edge tests exceed the budget of 400000$"
                       ) as err:
        pi_exact(14, 8000)
    assert err.value.required == comb(1 << 14, 8000) * comb(8000, 2)


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the budget guard")


@pytest.mark.parametrize("call, required", [
    (lambda: tau_exact(5, 15), comb(30, 15)),
    (lambda: tau_exact(70, 3), comb(2 ** 70 - 2, 3)),
    (lambda: alpha_exact(5, 8), comb(15, 8) * 2 ** 8),
    (lambda: alpha_via_chambers_exact(6, 5), comb(31, 5)),
    (lambda: pi_exact(4, 9), comb(16, 9) * comb(9, 2)),
    (lambda: pi_k_exact(5, 8, 3), comb(30, 6)),
    (lambda: pi_k_exact(40, 4, 3), comb(2 ** 40 - 2, 2)),
    (lambda: graph_density_exact(full_cube(10)), comb(1024, 2)),
    (lambda: build_config_plus(20), 2 ** 20 - 1),
    (lambda: chamber_count([(1, i, i * i) for i in range(25)]), 25),
    (lambda: chamber_count_bruteforce([(1, i) for i in range(15)]), 15),
    (lambda: monotonicity_check(4), comb(16, 2) * (2 ** 14 - 1)),
], ids=["tau", "tau-k70", "alpha", "alpha-chambers", "pi", "pi-k", "pi-k-d40",
        "density", "config-plus", "chambers", "chambers-bruteforce", "monotonicity"])
def test_every_exhaustive_guard_runs_before_any_work(monkeypatch, call, required):
    """Each exhaustive computation raises with its enumeration size before a
    single edge test, LP, chamber count or projection runs."""
    for module, name in [(estimators, "long_edges_survive"),
                         (estimators, "chamber_count"), (estimators, "_edge_count"),
                         (graph, "edge_kernel"), (graph, "long_edges_survive"),
                         (graph, "origin_in_conv_batch"),
                         (arrangements, "origin_in_conv"), (arrangements, "_chambers"),
                         (arrangements, "phi_project")]:
        monkeypatch.setattr(module, name, _no_work)
    with pytest.raises(BudgetExceeded) as err:
        call()
    assert err.value.required == required


@pytest.mark.parametrize("exact", [tau_exact, alpha_exact])
def test_a_repeated_exact_cell_enumerates_again(monkeypatch, exact):
    # nothing is cached: the second call decides every verdict again
    calls = []
    real = estimators.long_edges_survive

    def spy(k, faces):
        calls.append(k)
        return real(k, faces)

    monkeypatch.setattr(estimators, "long_edges_survive", spy)
    first = exact(4, 3)
    assert exact(4, 3) == first
    assert calls == [4, 4]


@pytest.mark.parametrize("call", [
    lambda: tau_exact(20, 0),
    lambda: alpha_exact(21, 0),
    lambda: pi_k_exact(20, 2, 3),
    lambda: alpha_via_chambers_exact(24, 0),
], ids=["tau", "alpha", "pi-k", "alpha-chambers"])
def test_an_empty_subset_cell_builds_no_pool(call):
    """m = 0 enumerates the one empty subset without copying the 2^20-odd
    points it would be drawn from, or projecting the half configuration."""
    tracemalloc.start()
    try:
        est = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.exact_value == 1 and est.samples == 1
    assert peak < 1 << 20


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

    def test_populations_beyond_int64(self):
        # 2^70 - 2 face points for tau, 2^65 - 1 classes for alpha and a
        # 2^64-vertex cube for pi_k all sample through rand_bits words
        for est in (tau_mc(70, 3, 50, SEED), alpha_mc(66, 3, 20, SEED),
                    pi_k_mc(64, 10, 3, 20, SEED)):
            assert est.samples in (20, 50) and 0 <= est.value <= 1


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

    @pytest.mark.parametrize("fn", [alpha_exact, alpha_via_chambers_exact,
                                    lambda k, m: alpha_mc(k, m, 10, 0),
                                    lambda k, m: alpha_via_chambers(k, m, 10, 0)],
                             ids=["exact", "chambers-exact", "mc", "chambers"])
    def test_nonpositive_k_is_named(self, fn):
        with pytest.raises(ValueError, match="k must be positive"):
            fn(0, 1)

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

    @pytest.mark.parametrize("k, m, value", [(5, 0, 1.0), (3, 1, 1.0), (3, 3, 0.75)])
    def test_equal_counts_get_the_wilson_interval(self, k, m, value):
        """With every chamber count equal the interval is Wilson's at the
        observed share, and se its half-width over Z95, as for a boundary
        count of bernoulli_estimate."""
        est = alpha_via_chambers(k, m, samples=5, seed=1)
        lo, hi = wilson_interval(value * 5, 5)
        assert (est.value, est.ci95, est.stderr) == (value, (lo, hi), (hi - lo) / (2 * Z95))
        if value == 1.0:
            assert est.ci95 == bernoulli_estimate(5, 5, 1).ci95
            assert round(est.ci95[0], 4) == 0.5655

    @pytest.mark.parametrize("k, m", [(2, 1), (3, 2), (4, 0), (5, 4), (6, 3), (8, 5)])
    def test_block_equals_indexing_the_full_half_configuration(self, k, m):
        """Each sampled vector, built alone from its index, is the vector
        that indexing build_config_plus(k - 1) gives."""
        count, seed, block = 40, 7, 2
        rng = stream(seed, f"alphachi:k={k}:m={m}", block)
        vecs = build_config_plus(k - 1).vectors
        chis = [chamber_count([vecs[i] for i in sample_indices(rng, len(vecs), m)]).count
                for _ in range(count)]
        want = (sum(chis), sum(c * c for c in chis))
        assert _alpha_chambers_block((k, m, count, seed, block)) == want

    def test_a_large_k_builds_only_the_sampled_vectors(self):
        # 2^29 - 1 vectors would exceed build_config_plus's budget
        est = alpha_via_chambers(30, 2, 5, seed=3)
        assert 0 <= est.value <= 1 and est.samples == 5
        tracemalloc.start()
        try:
            alpha_via_chambers(18, 2, 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20


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


class TestTauCell:
    def test_budget_is_the_enumerators_cap(self, monkeypatch):
        # C(30, 6) = 593775 subsets: above tau_exact's own default cap, within
        # the cell's budget, so the cell's budget must reach the enumerator
        seen = []

        def spy(k, m, max_subsets=None):
            seen.append(max_subsets)
            return exact_estimate(F(1, 2), samples=1)

        monkeypatch.setattr(estimators, "tau_exact", spy)
        est, prov = tau_cell(5, 6, samples=1, seed=1, exact_budget=600_000)
        assert prov == PROV_EXHAUSTIVE and est.exact_value == F(1, 2)
        assert seen == [600_000]

    def test_exact_over_budget_reports_the_cell(self):
        with pytest.raises(BudgetExceeded,
                           match=r"tau\(5,6\) enumeration exceeds exact budget") as err:
            tau_cell(5, 6, samples=1, seed=1, exact_budget=593_774, method="exact")
        assert err.value.required == 593_775

    def test_unknown_method_is_an_error(self):
        with pytest.raises(ValueError, match="'exhaustive'"):
            tau_cell(3, 2, 50, 1, method="exhaustive")

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_no_interior_point_and_no_single_one_obstructs(self, method):
        """tau(k, 0) = tau(k, 1) = 1: enumerated within the budget, the
        closed form over it, never sampled, at any k."""
        est, prov = tau_cell(14, 1, samples=5, seed=1, method=method)
        assert prov == PROV_EXHAUSTIVE and est.exact_value == 1 and est.samples == 16382
        for k, m, budget in ((15, 1, 20_000), (100, 1, 20_000), (3, 0, 0), (3, 1, 5)):
            est, prov = tau_cell(k, m, samples=5, seed=1, exact_budget=budget, method=method)
            assert prov == PROV_CLOSED_FORM and est.exact_value == 1, (k, m)
        est, prov = tau_cell(15, 2, samples=5, seed=1, method="auto")
        assert prov == PROV_MONTE_CARLO

    def test_monte_carlo_samples_m_one(self):
        est, prov = tau_cell(15, 1, samples=5, seed=1, method="mc")
        assert prov == PROV_MONTE_CARLO and est.value == 1 and not est.exact


class TestTauTable:
    def test_provenance_mix(self):
        table = build_tau_table(5, 20, samples=300, seed=SEED)
        assert table.provenance[0] == PROV_EXHAUSTIVE
        assert table.provenance[3] == PROV_EXHAUSTIVE  # C(30,3) = 4060
        assert table.provenance[4] == PROV_MONTE_CARLO  # C(30,4) = 27405
        assert table.provenance[16] == PROV_STRUCTURAL_ZERO
        assert table.entries[16].exact_value == 0
        assert table.max_m == 20
        assert len(table.entries) == len(table.provenance) == 21

    def test_entry_zero_is_one(self):
        table = build_tau_table(4, 6, samples=100, seed=1)
        assert table.entries[0].exact_value == 1


def test_decomposition_maps_every_cell_at_once(monkeypatch):
    """decompose_pi hands one tau column per k to one parallel_map, the
    largest k first; at d = 4, n = 6 the 1 + 3 + 5 + 5 cells are all
    exhaustive."""
    from polydense import estimators

    calls = []
    real = estimators.parallel_map

    def counted(fn, tasks, workers=1):
        calls.append([task[0] for task in tasks])
        return real(fn, tasks, workers)

    monkeypatch.setattr(estimators, "parallel_map", counted)
    dec = estimators.decompose_pi(4, 6, tau_samples=10, seed=1)
    assert calls == [[4, 3, 2, 1]]
    assert dec.combined.exact_value == F(1888, 2145)


@pytest.mark.parametrize("samples", [75, 600])
@pytest.mark.parametrize("k, provenances", [
    (5, {PROV_EXHAUSTIVE, PROV_MONTE_CARLO, PROV_STRUCTURAL_ZERO}),
    (6, {PROV_EXHAUSTIVE, PROV_MONTE_CARLO}),
    (4, {PROV_EXHAUSTIVE}),
])
def test_a_tau_column_is_its_cells(k, provenances, samples):
    """The column task gives tau_cell's Estimate and provenance at every m up
    to 30, or to the last at k = 4, with 600 samples spanning two blocks of
    each sampled cell.  At k = 4 the cells m = 8..14 are pigeonhole zeros
    inside the budget, which the column leaves to tau_cell."""
    top = min(30, (1 << k) - 2)
    column = estimators._tau_cell_task((k, top, samples, 11))
    assert column == [tau_cell(k, m, samples, 11) for m in range(top + 1)]
    assert {prov for _, prov in column} == provenances


def test_a_tau_column_draws_lazily(monkeypatch):
    """The column's one long_edges_survive call reads one pass of faces at a
    time: behind the 1 + 62 + 1,891 subsets of its exhaustive cells, 5,000
    draws of one sampled cell, ten blocks of 500 rows, reach the first LP
    batch after at most _SUBSETS_PER_PASS of them."""
    drawn, at_batch = [0], []
    real_rows, real_batch = estimators.sample_index_rows, graph.origin_in_conv_batch

    def rows(rng, population, k, count):
        drawn[0] += count
        return real_rows(rng, population, k, count)

    def batch(points):
        at_batch.append(drawn[0])
        return real_batch(points)

    monkeypatch.setattr(estimators, "sample_index_rows", rows)
    monkeypatch.setattr(graph, "origin_in_conv_batch", batch)
    column = estimators._tau_cell_task((6, 3, 5000, 2))
    assert [prov for _, prov in column] == [PROV_EXHAUSTIVE] * 3 + [PROV_MONTE_CARLO]
    assert drawn[0] == 5000
    assert at_batch[0] <= graph._SUBSETS_PER_PASS < at_batch[-1]


def test_decomposition_is_the_same_on_two_workers():
    one = decompose_pi(8, 32, tau_samples=75, seed=5, workers=1)
    assert decompose_pi(8, 32, tau_samples=75, seed=5, workers=2) == one
    assert not one.combined.exact


class TestPiKSemianalytic:
    def test_d3_n8_cases(self):
        t1 = build_tau_table(1, 0, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, t1).exact_value == 1
        t2 = build_tau_table(2, 2, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, t2).exact_value == 0
        t3 = build_tau_table(3, 6, samples=10, seed=1)
        assert pi_k_semianalytic(3, 8, t3).exact_value == 0

    def test_exact_equals_enumerated_conditional(self):
        # weighted tau sum against direct conditional enumeration, d=3
        for n in range(3, 9):
            for k in (1, 2, 3):
                table = build_tau_table(k, min(2 ** k - 2, n - 2), samples=10, seed=1)
                semi = pi_k_semianalytic(3, n, table)
                enum = pi_k_exact(3, n, k)
                assert semi.exact_value == enum.exact_value, (n, k)

    def test_empty_table_is_an_error(self):
        table = build_tau_table(3, -1, samples=10, seed=1)
        assert table.entries == table.provenance == () and table.max_m == -1
        with pytest.raises(ValueError, match="tau table for k=3 is empty"):
            pi_k_semianalytic(4, 8, table)

    def test_a_truncated_table_past_an_exact_zero_is_exact(self):
        # tau(3, m) = 0 for m >= 4: the tail beyond m = 4 adds nothing
        table = build_tau_table(3, 4, samples=10, seed=1)
        assert table.entries[4].exact_value == 0
        assert pi_k_semianalytic(4, 10, table).exact_value == pi_k_exact(4, 10, 3).exact_value

    def test_truncated_table_brackets_the_truth(self):
        # cut the table short: the bracket must still contain the exact value
        table = build_tau_table(3, 2, samples=10, seed=1)
        semi = pi_k_semianalytic(4, 10, table)
        exact = pi_k_exact(4, 10, 3)
        assert semi.ci95[0] - 1e-12 <= exact.value <= semi.ci95[1] + 1e-12
        assert not semi.exact


def _sampled_intervals_are_open(est):
    return est.exact or (est.stderr > 0 and est.ci95[0] < est.ci95[1])


class TestDecomposePi:
    def test_the_full_cube_is_exact(self):
        """At n = 2^d every point is drawn: sampled tau cells of zero weight
        drop out and pi is the full cube's density exactly."""
        dec = decompose_pi(5, 32, tau_samples=20, seed=1)
        assert dec.combined.exact_value == graph_density_exact(full_cube(5)).density == F(5, 31)
        assert all(e.exact for e in dec.pi_k.values())

    @pytest.mark.parametrize("d, n", [(5, 32), (5, 20), (6, 40), (8, 32), (100, 3)])
    def test_no_sampled_estimate_has_a_collapsed_interval(self, d, n):
        """At (100, 3) no cell is sampled: tau(k, 1) is exhaustive up to
        k = 14 and the closed form 1 above, so every pi_k is exact."""
        dec = decompose_pi(d, n, tau_samples=20, seed=3)
        assert all(map(_sampled_intervals_are_open, [dec.combined, *dec.pi_k.values()]))

    def test_an_interval_that_collapses_in_float_keeps_its_stderr(self):
        """At (100, 4) the sampled tau(k, 2) cells weigh about 2^(2(k - 100)):
        every pi_k's interval collapses to its value in float, and it keeps
        the mix's stderr instead of the Wilson interval of its sample count."""
        dec = decompose_pi(100, 4, tau_samples=2, seed=3)
        assert dec.combined.ci95 == (1.0, 1.0) and 0 < dec.combined.stderr < 1e-15
        assert all(e.stderr > 0 for e in dec.pi_k.values() if not e.exact)

    @pytest.mark.parametrize("d", [64, 100])
    def test_three_points_never_obstruct(self, d):
        """pi(d, 3) = 1 exactly: the third point alone never obstructs."""
        dec = decompose_pi(d, 3, tau_samples=2, seed=3)
        assert dec.combined.exact_value == 1
        assert all(e.exact_value == 1 for e in dec.pi_k.values())


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
        with pytest.raises(BudgetExceeded) as err:
            monotonicity_check(4)
        assert err.value.required == 1_965_960

    def test_monotonicity_counts_every_pair_of_every_subset(self, monkeypatch):
        # the guard's count is the sum of pi_exact's over n = 3..2^d
        for d, want in ((2, 18), (3, 1764)):
            assert sum(comb(2 ** d, n) * comb(n, 2) for n in range(3, 2 ** d + 1)) == want
        monkeypatch.setattr(estimators, "PI_EXACT_BUDGET", 1763)
        with pytest.raises(BudgetExceeded) as err:
            monotonicity_check(3)
        assert err.value.required == 1764

    @pytest.mark.parametrize("d", [0, -1, 13])
    def test_monotonicity_rejects_d_out_of_range(self, d):
        with pytest.raises(ValueError, match="d must lie in 1..12"):
            monotonicity_check(d)


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
        with pytest.raises(ValueError, match="d must be positive"):
            pi_mc(-1, 4, samples=10, seed=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("d, n, count", [(3, 8, 200), (8, 32, 150), (10, 202, 60),
                                         (14, 1684, 20), (64, 3, 100), (80, 40, 60)])
def test_pi_block_matches_a_per_sample_edge_kernel_loop(d, n, count, seed):
    """The block, which batches its edge tests by pair distance, counts the
    hits that one edge_kernel call per sample counts on the same stream."""
    block = seed + 4
    rng = stream(seed, f"pi:d={d}:n={n}", block)
    want = 0
    for _ in range(count):
        bits = sample_vertex_bits(d, n, rng)
        i, j = sample_indices(rng, n, 2)
        want += edge_kernel(d, bits[i], bits[j], bits)
    if d <= 10:
        assert 0 < want < count
    assert _pi_block((d, n, count, seed, block)) == want


@pytest.mark.parametrize("count", [1, 63, 64, 65, 500])
@pytest.mark.parametrize("d, n", [(8, 32), (14, 1684), (64, 3), (80, 40)])
def test_pi_block_passes_count_the_per_sample_hits(d, n, count):
    """The block reads face-filter passes of up to 65536 point entries (38
    samples at n = 1684): one partial pass and many passes all count the
    hits of one edge_kernel call per sample on the same stream."""
    args = (d, n, count, 11, 3)
    assert _pi_block(args) == _pi_block_one_by_one(*args)


@pytest.mark.parametrize("cap", [1, 7, 64])
def test_every_pass_and_filing_cap_counts_the_same_edges(monkeypatch, cap):
    """graph.count_pass_edges, fed by the pi block's drawn passes or by
    graph._edge_count's cut rows, gives the same count whatever the cap on a
    pass's point entries and on the faces it files before deciding them."""
    calls = [lambda: _pi_block((8, 32, 150, 5, 1)), lambda: _pi_block((14, 1684, 40, 5, 1)),
             lambda: pi_exact(3, 5).exact_value,
             lambda: graph_density_exact(full_cube(5)).edge_count]
    want = [call() for call in calls]
    monkeypatch.setattr(graph, "_ENTRIES_PER_PASS", cap)
    assert [call() for call in calls] == want


def test_pi_block_memory_stays_bounded():
    """A block holds one pass of samples, not all of them: 500 samples at
    (d, n) = (14, 1684) are 6.7 MB of int64 points."""
    tracemalloc.start()
    try:
        _pi_block((14, 1684, 500, 1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
            assert pi_from_pk(3, pik).exact_value == pi_exact(3, n).exact_value

    def test_all_ones(self):
        pik = {k: exact_estimate(F(1)) for k in (1, 2, 3, 4)}
        assert pi_from_pk(4, pik).exact_value == 1

    def test_d3_n8_weights(self):
        pik = {1: exact_estimate(F(1)), 2: exact_estimate(F(0)),
               3: exact_estimate(F(0))}
        assert pi_from_pk(3, pik).exact_value == F(3, 7)

    def test_missing_entries(self):
        with pytest.raises(ValueError):
            pi_from_pk(3, {1: exact_estimate(F(1))})


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
        8, 32, build_tau_table(8, 30, samples=800, seed=SEED, workers=2))
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

    def test_tau_sweep_settles_each_cell_as_method_mc(self):
        # m = 8 at k = 4 exceeds the 7 antipodal classes: the structural zero
        row, = tau_threshold_sweep([4], [2.0], 50, 1)
        assert (row.m, row.provenance, row.estimate.exact_value) == (
            8, PROV_STRUCTURAL_ZERO, 0)
        assert [(r.estimate, r.provenance) for r in tau_threshold_sweep([5], [1.5], 50, 1)] \
            == [tau_cell(5, 8, 50, 1, method="mc")]

    def test_tau_sweep_skips_impossible_m(self):
        rows = tau_threshold_sweep([2], [3.0], samples=50, seed=1)
        assert rows[0].estimate is None
        assert rows[0].note

    def test_tau_sweep_ratio_beyond_the_float_range(self):
        # 1e308 * 12 overflows a float: the row has no m, like density's n
        big, huge = tau_threshold_sweep([12], [1e15, 1e308], samples=5, seed=1)
        assert (big.m, big.estimate, big.note) == (12 * 10 ** 15, None, "m exceeds 2^k - 2")
        assert (huge.m, huge.estimate, huge.note) == (None, None, "m exceeds 2^k - 2")
        with pytest.raises(ValueError, match="must be nonnegative"):
            tau_threshold_sweep([12], [-1e308], samples=5, seed=1)

    @pytest.mark.parametrize("ratio", [-0.1, -1.0, float("nan")])
    def test_tau_sweep_rejects_a_negative_ratio(self, ratio):
        with pytest.raises(ValueError, match="ratios must be nonnegative"):
            tau_threshold_sweep([4], [1.5, ratio], samples=5, seed=1)

    @pytest.mark.parametrize("base", [0.0, -1.5, -2.0])
    def test_density_sweep_rejects_a_non_positive_base(self, base):
        with pytest.raises(ValueError, match="bases must be positive"):
            density_threshold_sweep([4], [1.2, base], samples=5, seed=1)

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


def _alpha_faces_one_by_one(k, m, count, seed, block):
    """The faces of an alpha(k, m) block: count sample_indices calls for the
    classes, then a 0/1 orientation for each point of every row."""
    rng = stream(seed, f"alpha:k={k}:m={m}", block)
    base = 1 << (k - 1)
    mask = (1 << k) - 1
    rows = [sample_indices(rng, base - 1, m) for _ in range(count)]
    flips = rng.integers(0, 2, size=(count, m)).tolist()
    return [[(base + idx) ^ (mask if flip else 0) for idx, flip in zip(row, flip_row)]
            for row, flip_row in zip(rows, flips)]


def _alpha_block_one_by_one(k, m, count, seed, block):
    return sum(long_edge_survives(k, face)
               for face in _alpha_faces_one_by_one(k, m, count, seed, block))


def _pi_block_one_by_one(d, n, count, seed, block):
    rng = stream(seed, f"pi:d={d}:n={n}", block)
    hits = 0
    for _ in range(count):
        bits = sample_vertex_bits(d, n, rng)
        i, j = sample_indices(rng, n, 2)
        hits += edge_kernel(d, bits[i], bits[j], bits)
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
    # pi: the word buffer's windows of rows (n <= 64) and its rows one at a
    # time (n > 64), then the per-sample fallback: 64-bit vertex draws,
    # Fisher-Yates pairs (n < 4) and Fisher-Yates point sets (n > 2^d / 2)
    (_pi_block, _pi_block_one_by_one, (8, 32)),
    (_pi_block, _pi_block_one_by_one, (10, 202)),
    (_pi_block, _pi_block_one_by_one, (34, 5)),
    (_pi_block, _pi_block_one_by_one, (4, 3)),
    (_pi_block, _pi_block_one_by_one, (3, 8)),
], ids=["tau", "alpha", "pik", "pi-8-32", "pi-10-202", "pi-34-5", "pi-4-3", "pi-3-8"])
def test_blocks_count_the_hits_of_one_by_one_verdicts(seed, batched, one_by_one, params):
    args = params + (300, seed, 2)
    hits = one_by_one(*args)
    if params in ((4, 3), (34, 5)):
        # three points, and five points of the 34-cube in general position:
        # every pair is an edge
        assert hits == 300
    else:
        assert 0 < hits < 300
    assert batched(args) == hits


def _alpha_block_faces(monkeypatch, k, m, count, seed, block=0):
    """The faces _alpha_block hands to long_edges_survive, and its hits."""
    seen = []

    def spy(k, subsets):
        seen.extend(subsets)
        return graph.long_edges_survive(k, subsets)

    monkeypatch.setattr(estimators, "long_edges_survive", spy)
    hits = _alpha_block((k, m, count, seed, block))
    [faces] = seen
    return faces, hits


def test_alpha_faces_are_uniform_on_the_antipodal_free_outcomes(monkeypatch):
    # alpha(4, 2): C(7, 2) class pairs times 4 orientations, 84 equally
    # likely faces; 128.56 is the 0.999 quantile of chi-square with 83
    # degrees of freedom
    from collections import Counter

    per_outcome = 100
    faces, _ = _alpha_block_faces(monkeypatch, 4, 2, 84 * per_outcome, seed=11)
    counts = Counter(frozenset(face) for face in faces.tolist())
    assert len(counts) == 84
    assert all(len({min(p, 15 ^ p) for p in face}) == 2 for face in counts)
    chi2 = sum((c - per_outcome) ** 2 / per_outcome for c in counts.values())
    assert chi2 < 128.56


def test_alpha_mc_is_the_same_on_one_and_two_workers():
    assert alpha_mc(5, 6, 1500, 7, workers=1) == alpha_mc(5, 6, 1500, 7, workers=2)


@pytest.mark.parametrize("k", [63, 64, 65])
def test_alpha_faces_at_the_int64_edge(monkeypatch, k):
    # at k = 64 a class row is int64 but base + row reaches 2^64 - 2, beyond
    # int64: from k = 64 the faces are Python ints, and an int64 build fails
    mask = (1 << k) - 1
    faces, hits = _alpha_block_faces(monkeypatch, k, 3, 40, seed=5)
    assert faces.shape == (40, 3) and hits == 40
    assert faces.tolist() == _alpha_faces_one_by_one(k, 3, 40, 5, 0)
    assert any(p > (1 << 63) - 1 for face in faces.tolist() for p in face) == (k >= 64)
    for face in faces.tolist():
        assert all(0 < p < mask for p in face)
        assert len({min(p, mask ^ p) for p in face}) == 3
    monkeypatch.undo()
    assert alpha_mc(k, 3, 20, 3).value == 1.0


def test_alpha_rows_above_64_draws_match_the_reference_loop(monkeypatch):
    # m = 70 > 64: each row of classes is read alone (rng._read_part)
    faces, hits = _alpha_block_faces(monkeypatch, 9, 70, 40, seed=2)
    assert faces.tolist() == _alpha_faces_one_by_one(9, 70, 40, 2, 0)
    assert hits == _alpha_block_one_by_one(9, 70, 40, 2, 0)
