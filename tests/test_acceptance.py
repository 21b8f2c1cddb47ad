"""Acceptance suite: the package's exit criteria.

Every criterion is an entry of ``polydense.verify.CRITERIA``; this module
runs each at its ``acceptance`` parameters, prints one line per criterion
(run with ``pytest -s`` to see them on success) and asserts the check and
the criterion's time budget.  ``pytest tests/test_acceptance.py -k crit10``
selects one criterion.
"""

import os
import time

from polydense.verify import CRITERIA

SEED = 99
WORKERS = int(os.environ.get("POLYDENSE_TEST_WORKERS",
                             min(2, os.cpu_count() or 1)))


def _report(number: int, name: str, ok: bool, detail: str, t0: float,
            budget_s: float) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} ({name}): {status} [{elapsed:.1f}s] {detail}")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    assert ok, f"criterion {number} failed: {detail}"


def _criterion_test(number: int):
    criterion = CRITERIA[number - 1]
    assert criterion.number == number

    def test():
        t0 = time.time()
        ok, detail = criterion.check(WORKERS, SEED, **criterion.acceptance)
        _report(number, criterion.name, ok, detail, t0, criterion.budget_s)

    # pytest -k also matches names set on the test function
    setattr(test, f"crit{number:02d}", True)
    return test


test_01_cube_density_anchor = _criterion_test(1)
test_02_cut_polytope_anchor = _criterion_test(2)
test_03_tau_alpha_identity = _criterion_test(3)
test_04_tau_monotone_and_upper_bound = _criterion_test(4)
test_05_chamber_count_oracle_equivalence = _criterion_test(5)
test_06_alpha_equals_chamber_average = _criterion_test(6)
test_07_exact_monotone_decrease_and_reconstruction_d3 = _criterion_test(7)
test_08_cross_method_consistency = _criterion_test(8)
test_09_binomial_tail_limit = _criterion_test(9)
test_10_long_edge_threshold_trend = _criterion_test(10)
test_11_density_threshold_trend = _criterion_test(11)
test_12_byte_determinism = _criterion_test(12)
