import csv
import io
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import polydense
from polydense import mc
from polydense.arrangements import build_config_plus, chamber_count
from polydense.cli import load_config, main
from polydense.rng import sample_indices, stream
from polydense.verify import CRITERIA


def _run(argv, tmp_path=None):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _error(argv):
    """Run argv expecting exit 2 with no output; return the error text."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = _run(argv)
    assert code == 2
    assert out == ""
    return err.getvalue()


def _strip_wall_time(text: str) -> str:
    lines = []
    for line in text.strip().splitlines():
        lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


class TestTauCommand:
    def test_exhaustive_table_with_exact_column(self, tmp_path):
        out = tmp_path / "tau.csv"
        code, _ = _run(["tau", "--k", "3", "--seed", "5", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["m"] for r in rows] == [str(m) for m in range(7)]
        assert all(r["provenance"] == "exhaustive" for r in rows)
        assert rows[0]["exact_value"] == "1"
        assert rows[2]["exact_value"] == "4/5"
        assert F(rows[3]["exact_value"]) == F(3, 10)

    def test_ratio_sweep(self):
        code, text = _run(["tau", "--k", "5", "--ratio", "1.5,3", "--samples",
                           "300", "--seed", "9"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["m"] for r in rows] == ["8", "15"]
        assert all(r["provenance"] == "monte-carlo" for r in rows)

    def test_ratio_above_the_classes_is_the_structural_zero(self):
        # m = ceil(1.5 * 3) = 5 exceeds the 3 antipodal classes of k = 3
        code, text = _run(["tau", "--k", "3", "--ratio", "1.5", "--samples", "10"])
        assert code == 0
        row, = csv.DictReader(io.StringIO(text))
        assert (row["m"], row["provenance"], row["exact_value"], row["samples"]) == (
            "5", "structural-zero", "0", "0")

    @pytest.mark.parametrize("flag", [["--method", "exact"],
                                      ["--exact-budget", "1"], ["--m", "0"]],
                             ids=["method", "exact-budget", "m"])
    def test_ratio_rejects_flags_it_does_not_read(self, flag):
        assert flag[0] in _error(["tau", "--k", "3", "--ratio", "1.5", "--samples",
                                  "100", "--seed", "1"] + flag)

    def test_a_cell_far_over_budget_falls_back_to_monte_carlo(self):
        # C(16382, 8000) has 4,928 digits, more than str() of an int converts
        code, text = _run(["tau", "--k", "14", "--m", "8000", "--samples", "10",
                           "--seed", "1"])
        assert code == 0
        row, = csv.DictReader(io.StringIO(text))
        assert (row["provenance"], row["samples"]) == ("monte-carlo", "10")

    def test_exact_far_over_budget_names_the_budget(self):
        assert "tau(14,8000) enumeration exceeds exact budget" in _error(
            ["tau", "--k", "14", "--m", "8000", "--samples", "10", "--seed", "1",
             "--method", "exact"])

    def test_m_range_spec(self):
        code, text = _run(["tau", "--k", "4", "--m", "0:2", "--seed", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["m"] for r in rows] == ["0", "1", "2"]

    @pytest.mark.parametrize("argv, line", [
        (["tau", "--k", "70"], None),
        (["alpha", "--k", "30"], None),
        (["tau", "--k", "3,17"], None),
        (["tau", "--samples", "5"], "k=70"),
    ], ids=["tau-k70", "alpha-k30", "tau-k3-and-17", "tau-config-k70"])
    def test_default_m_range_is_bounded(self, tmp_path, argv, line):
        # every m of k = 70 is 2^70 - 1 cells: --m is required above k = 16,
        # before any cell runs
        if line:
            cfg = tmp_path / "k.conf"
            cfg.write_text(line + "\n")
            argv = argv + ["--config", str(cfg)]
        assert "--m is needed for k > 16" in _error(argv)

    @pytest.mark.parametrize("ratio", ["-0.1", "-1"])
    def test_a_negative_ratio_names_its_flag(self, ratio):
        assert f"argument --ratio: must be nonnegative, got '{ratio}'" in _error(
            ["tau", "--k", "4", "--ratio", ratio, "--samples", "10"])

    def test_ratio_beyond_the_float_range_has_no_m(self):
        # 1e308 * 12 overflows a float; 1e15 * 12 is printed as before
        code, text = _run(["tau", "--k", "12", "--ratio", "1e15,1e308", "--samples", "5"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(r["m"], r["note"]) for r in rows] == [
            ("12000000000000000", "m exceeds 2^k - 2"), ("", "m exceeds 2^k - 2")]

    def test_given_m_runs_at_any_k(self):
        # tau(k, 1) = 1 needs no sample: over the budget it is the closed form
        code, text = _run(["tau", "--k", "70", "--m", "1,2", "--samples", "5"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(r["k"], r["m"], r["provenance"]) for r in rows] == [
            ("70", "1", "closed-form"), ("70", "2", "monte-carlo")]
        assert rows[0]["exact_value"] == "1"


class TestDensityCommand:
    def test_rows_and_range_guard(self):
        code, text = _run(["density", "--d", "5", "--base", "1.3,3.0",
                           "--samples", "200", "--seed", "11"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["n"] == str(round(1.3 ** 5))
        assert rows[0]["estimate"] != ""
        assert rows[1]["estimate"] == ""
        assert rows[1]["note"] == "n out of range"

    def test_base_power_beyond_the_float_range_is_out_of_range(self):
        # 1e300 ** 10 overflows a float: the row carries the note and no n
        code, text = _run(["density", "--d", "10", "--base", "1e300,1.3",
                           "--samples", "50", "--seed", "11"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [(r["n"], r["note"]) for r in rows] == [("", "n out of range"),
                                                       (str(round(1.3 ** 10)), "")]

    def test_a_negative_base_names_its_flag(self):
        # n = round((-1.5)^4) = 5 would be a valid size
        assert "argument --base: must be positive, got '-1.5'" in _error(
            ["density", "--d", "4", "--base", "-1.5", "--samples", "10"])

    def test_descending_range_is_an_error(self):
        assert "range '6:4' is descending" in _error(
            ["density", "--d", "6:4", "--samples", "10"])

    def test_byte_determinism_across_workers_and_reruns(self, tmp_path):
        args = ["density", "--d", "6", "--base", "1.25", "--samples", "400",
                "--seed", "21"]
        outs = []
        for workers in ("1", "2", "1"):
            out = tmp_path / f"w{len(outs)}.csv"
            code, _ = _run(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            outs.append(_strip_wall_time(out.read_text()))
        assert outs[0] == outs[1] == outs[2]


class TestAlphaCommand:
    def test_exact_defaults(self):
        code, text = _run(["alpha", "--k", "3", "--seed", "2"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["m"] for r in rows] == ["0", "1", "2", "3"]
        assert rows[3]["exact_value"] == "3/4"

    def test_chamber_method(self):
        code, text = _run(["alpha", "--k", "3", "--m", "2", "--method",
                           "chambers", "--samples", "200", "--seed", "2"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["method"] == "chambers"

    def test_equal_chamber_counts_read_like_an_all_success_count(self):
        """Five equal counts get the interval that five of five successes
        get from tau's Monte Carlo."""
        rows = []
        for argv in (["alpha", "--k", "5", "--m", "0", "--method", "chambers"],
                     ["tau", "--k", "70", "--m", "0", "--method", "mc"]):
            code, text = _run(argv + ["--samples", "5"])
            assert code == 0
            rows += csv.DictReader(io.StringIO(text))
        assert [(r["ci_lo"], r["stderr"]) for r in rows] == [
            ("0.565517535217", "0.110839400165")] * 2

    def test_chamber_method_takes_no_exact_budget(self, tmp_path):
        argv = ["alpha", "--k", "3", "--m", "2", "--method", "chambers",
                "--samples", "20"]
        assert "--exact-budget" in _error(argv + ["--exact-budget", "5"])
        cfg = tmp_path / "budget.conf"
        cfg.write_text("exact-budget=5\n")
        assert "--exact-budget" in _error(argv + ["--config", str(cfg)])

    def test_budget_is_the_enumerators_cap(self, monkeypatch):
        # 823680 outcomes: above alpha_exact's own default cap, within the
        # budget, so --exact-budget must reach the enumerator
        import polydense.cli as cli
        from polydense.mc import exact_estimate

        seen = []

        def spy(k, m, max_subsets=None):
            seen.append(max_subsets)
            return exact_estimate(F(1, 2), samples=1)

        monkeypatch.setattr(cli, "alpha_exact", spy)
        code, text = _run(["alpha", "--k", "5", "--m", "7", "--method", "exact",
                           "--exact-budget", "900000"])
        assert code == 0 and seen == [900_000]
        assert list(csv.DictReader(io.StringIO(text)))[0]["method"] == "exhaustive"

    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_one_class_over_the_budget_is_the_closed_form(self, method):
        # alpha(k, 1) = 1, as tau(k, 1), and alpha(k, 2) = 1: two points that
        # are not antipodal never meet the diagonal.  Over the budget neither
        # is sampled
        for k, m in (("70", "1"), ("20", "2")):
            code, text = _run(["alpha", "--k", k, "--m", m, "--method", method])
            assert code == 0
            [row] = csv.DictReader(io.StringIO(text))
            assert (row["method"], row["exact_value"], row["samples"]) == (
                "closed-form", "1", "0"), (k, m)
        for m in ("1", "2"):
            code, text = _run(["alpha", "--k", "3", "--m", m, "--method", method])
            assert [r["method"] for r in csv.DictReader(io.StringIO(text))] == ["exhaustive"]
        assert "alpha(20,3) enumeration exceeds exact budget" in _error(
            ["alpha", "--k", "20", "--m", "3", "--method", "exact"])

    def test_exact_over_budget_is_an_error(self):
        # as for tau: --method exact never falls back to Monte Carlo
        assert "alpha(6,10) enumeration exceeds exact budget" in _error(
            ["alpha", "--k", "6", "--m", "10", "--method", "exact",
             "--exact-budget", "10"])


class TestPiCommand:
    def test_both_methods_small_case(self):
        code, text = _run(["pi", "--d", "4", "--n", "6", "--samples", "300",
                           "--tau-samples", "200", "--seed", "13", "--workers", "2"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        kinds = {(r["experiment"], r["method"]) for r in rows}
        assert ("pi", "mc") in kinds and ("pi", "decomp") in kinds
        per_k = [r for r in rows if r["experiment"] == "pi_k"]
        assert [r["k"] for r in per_k] == ["1", "2", "3", "4"]
        # exact decomposition at this size
        decomp = next(r for r in rows if r["method"] == "decomp"
                      and r["experiment"] == "pi")
        assert decomp["exact_value"] == "1888/2145"

    def test_decomposition_bytes_across_workers(self, tmp_path):
        # every tau cell of every k is one task of a single pool
        args = ["pi", "--d", "6", "--n", "16", "--method", "decomp",
                "--tau-samples", "50", "--seed", "21"]
        outs = []
        for workers in ("1", "2", "1"):
            out = tmp_path / f"w{len(outs)}.csv"
            code, _ = _run(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            outs.append(_strip_wall_time(out.read_text()))
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0].splitlines()) == 1 + 1 + 6  # header, pi, pi_k for k = 1..6


class TestChambersCommand:
    def test_random_with_crosscheck(self):
        code, text = _run(["chambers", "--r", "2", "--m", "5", "--configs", "4",
                           "--crosscheck", "--seed", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4
        for r in rows:
            assert r["bound_ok"] == "true"
            assert r["chambers"] == r["bruteforce"]
            assert int(r["chambers"]) <= int(r["harding_bound"])

    def test_halfcube_source(self):
        code, text = _run(["chambers", "--r", "3", "--m", "4", "--configs", "3",
                           "--source", "halfcube", "--seed", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(r["source"] == "halfcube" for r in rows)

    def test_halfcube_rows_index_the_full_half_configuration(self):
        """Each config's vectors, built alone from their indices, are the
        vectors that indexing build_config_plus(r) by its draws gives."""
        code, text = _run(["chambers", "--r", "4", "--m", "5", "--configs", "6",
                           "--source", "halfcube", "--seed", "3"])
        assert code == 0
        vecs = build_config_plus(4).vectors
        want = [chamber_count([vecs[j] for j in sample_indices(
                    stream(3, "chambers:r=4:m=5:src=halfcube", i), len(vecs), 5)]).count
                for i in range(6)]
        assert [int(r["chambers"]) for r in csv.DictReader(io.StringIO(text))] == want

    def test_halfcube_source_builds_only_the_sampled_vectors(self):
        # 2^30 - 1 vectors would exceed build_config_plus's budget
        tracemalloc.start()
        try:
            code, text = _run(["chambers", "--r", "30", "--m", "6", "--configs", "3",
                               "--source", "halfcube", "--seed", "3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 5 << 20
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3 and all(r["bound_ok"] == "true" for r in rows)

    @pytest.mark.parametrize("value, brute", [("TRUE", True), ("No", False),
                                              ("0", False)])
    def test_crosscheck_from_config(self, tmp_path, value, brute):
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"crosscheck={value}\n")
        code, text = _run(["chambers", "--r", "2", "--m", "4", "--configs", "2",
                           "--seed", "1", "--config", str(cfg)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        for r in rows:
            assert r["bruteforce"] == (r["chambers"] if brute else "")

    def test_misspelt_crosscheck_is_an_error(self, tmp_path):
        cfg = tmp_path / "c.conf"
        cfg.write_text("crosscheck=ture\n")
        assert "got 'ture'" in _error(["chambers", "--r", "2", "--m", "4", "--configs",
                                       "2", "--seed", "1", "--config", str(cfg)])

    def test_negative_configs_is_an_error(self):
        assert "got -3" in _error(["chambers", "--configs", "-3"])


class TestMoivreCommand:
    def test_values(self):
        code, text = _run(["moivre", "--q", "100", "--mu", "0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["cutoff"] == "50"
        assert abs(float(rows[0]["ratio"]) - 0.5398) < 1e-4
        assert float(rows[0]["limit_value"]) == 0.5

    def test_negative_offsets_by_flag_and_config(self, tmp_path):
        # a value with a leading minus needs the --mu=... form
        code, text = _run(["moivre", "--q", "100", "--mu=-0.5,0,0.5"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["mu"] for r in rows] == ["-0.5", "0", "0.5"]
        cfg = tmp_path / "mu.conf"
        cfg.write_text("mu=-0.5,0,0.5\n")
        code, from_config = _run(["moivre", "--q", "100", "--config", str(cfg)])
        assert code == 0
        assert _strip_wall_time(from_config) == _strip_wall_time(text)

    def test_cutoff_beyond_the_float_range_is_an_error(self):
        assert "q=1600, mu=1e+308" in _error(["moivre", "--q", "1600", "--mu", "1e308"])
        code, text = _run(["moivre", "--q", "1600", "--mu", "1e15"])
        assert code == 0
        row = next(csv.DictReader(io.StringIO(text)))
        assert (row["cutoff"], row["ratio"]) == ("40000000000000800", "1")


class TestCsvWriter:
    """One writer for every CSV command: it appends wall_time_s, the seconds
    spent producing each row, and writes only after the last row."""

    @pytest.mark.parametrize("argv", [
        ["density", "--d", "5", "--base", "1.3,3.0", "--samples", "50"],
        ["tau", "--k", "3", "--m", "0:2"],
        ["alpha", "--k", "3"],
        ["pi", "--d", "4", "--n", "6", "--samples", "50", "--tau-samples", "50"],
        ["chambers", "--r", "2", "--m", "4", "--configs", "2"],
        ["moivre", "--q", "100", "--mu", "0,0.5"],
    ], ids=["density", "tau", "alpha", "pi", "chambers", "moivre"])
    def test_every_row_ends_in_its_wall_time(self, argv):
        code, text = _run(argv)
        assert code == 0
        header, *rows = list(csv.reader(io.StringIO(text)))
        assert header[-1] == "wall_time_s" and rows
        assert all(len(row) == len(header) and float(row[-1]) >= 0 for row in rows)

    def test_failure_on_a_later_row_writes_nothing(self, tmp_path, monkeypatch):
        # the m = 0 and m = 1 cells are produced (m = 1 over the budget of 3
        # by its closed form), then m = 2 exceeds the budget
        import polydense.cli as cli

        cells, real = [], cli.tau_cell

        def spy(k, m, **kwargs):
            cells.append(m)
            return real(k, m, **kwargs)

        monkeypatch.setattr(cli, "tau_cell", spy)
        argv = ["tau", "--k", "3", "--m", "0:3", "--method", "exact", "--exact-budget", "3"]
        assert "tau(3,2) enumeration exceeds exact budget" in _error(argv)
        assert cells == [0, 1, 2]
        out = tmp_path / "tau.csv"
        _error(argv + ["--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv, status", [
        (["density", "--d", "5", "--base", "1.3", "--samples", "20"], 2),
        (["tau", "--k", "3", "--m", "0"], 2),
        (["alpha", "--k", "3", "--m", "0"], 2),
        (["pi", "--d", "3", "--n", "4", "--method", "mc", "--samples", "20"], 2),
        (["verify", "--level", "quick"], 2),
        (["chambers", "--r", "2", "--m", "4", "--configs", "1"], 0),
        (["moivre", "--q", "100", "--mu", "0"], 0),
    ], ids=["density", "tau", "alpha", "pi", "verify", "chambers", "moivre"])
    def test_bad_worker_env_is_read_by_the_commands_with_workers(self, monkeypatch,
                                                                 argv, status):
        monkeypatch.setenv("POLYDENSE_WORKERS", "abc")
        if status:
            assert "POLYDENSE_WORKERS must be a positive integer, got 'abc'" in _error(argv)
        else:
            assert _run(argv)[0] == 0


class TestConfigFile:
    def test_config_supplies_defaults_and_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# sweep setup\nk=4\nsamples=250\nseed=77\n")
        code, text = _run(["tau", "--m", "2", "--config", str(cfg)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["k"] == "4"
        assert rows[0]["seed"] == "77"
        # explicit flag beats the config value
        code, text = _run(["tau", "--m", "2", "--k", "3", "--config", str(cfg)])
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["k"] == "3"

    @pytest.mark.parametrize("argv", [
        ["pi", "--d", "3", "--n", "4", "--samples", "10"],
        ["alpha", "--k", "3", "--m", "2"],
        ["tau", "--k", "4", "--m", "5", "--exact-budget", "1"],
    ], ids=["pi", "alpha", "tau"])
    def test_method_from_config_is_checked(self, tmp_path, argv):
        # a config line meets the --method flag's choices
        cfg = tmp_path / "method.conf"
        cfg.write_text("method=bogus\n")
        assert "invalid choice: 'bogus'" in _error(argv + ["--config", str(cfg)])

    @pytest.mark.parametrize("argv, line", [
        (["tau", "--m", "2"], "sampels=5"),
        (["tau", "--m", "2"], "methd=exact"),
        (["density", "--d", "6", "--base", "1.3", "--samples", "10"], "ratio=1.5"),
        (["tau", "--k", "3", "--m", "2"], "samp=5"),
        (["tau", "--k", "3", "--m", "2"], "meth=exact"),
    ], ids=["misspelt-samples", "misspelt-method", "density-ratio",
            "abbreviated-samples", "abbreviated-method"])
    def test_key_the_command_does_not_read_is_an_error(self, tmp_path, argv, line):
        cfg = tmp_path / "c.conf"
        cfg.write_text(line + "\n")
        assert f"--{line}" in _error(argv + ["--config", str(cfg)])

    @pytest.mark.parametrize("line, message", [("workers=0", "got 0"),
                                               ("d=6:4", "range '6:4' is descending")])
    def test_bad_config_value_is_reported_like_the_flag(self, tmp_path, line, message):
        cfg = tmp_path / "c.conf"
        cfg.write_text(line + "\n")
        err = _error(["density", "--samples", "10", "--config", str(cfg)])
        assert f"argument --{line.split('=')[0]}: " in err and message in err

    @pytest.mark.parametrize("argv, line, message", [
        (["pi", "--d", "3", "--n", "4"], "samples=0", "must be positive, got 0"),
        (["density", "--d", "6", "--base", "1.3"], "samples=-5",
         "must be positive, got -5"),
        (["pi", "--d", "3", "--n", "4"], "tau-samples=0", "must be positive, got 0"),
        (["tau", "--k", "3", "--m", "2"], "exact-budget=-1",
         "must be nonnegative, got -1"),
        (["alpha", "--k", "3", "--m", "2"], "exact-budget=-1",
         "must be nonnegative, got -1"),
        (["tau", "--m", "0"], "k=0", "must be positive, got 0"),
        (["tau", "--m", "0"], "k=-1", "must be positive, got -1"),
        (["alpha", "--m", "0"], "k=0", "must be positive, got 0"),
        (["alpha", "--m", "0"], "k=3,0:2", "must be positive, got 0"),
        (["pi", "--n", "4", "--samples", "10"], "d=-1", "must be positive, got -1"),
        (["density", "--samples", "10"], "d=0", "must be positive, got 0"),
        (["density", "--d", "6", "--samples", "10"], "base=inf",
         "must be finite, got 'inf'"),
        (["density", "--d", "6", "--samples", "10"], "base=1.2,nan",
         "must be finite, got '1.2,nan'"),
        (["tau", "--k", "3", "--samples", "10"], "ratio=inf",
         "must be finite, got 'inf'"),
        (["tau", "--k", "3", "--samples", "10"], "ratio=nan",
         "must be finite, got 'nan'"),
        (["moivre", "--q", "100"], "mu=-inf", "must be finite, got '-inf'"),
        (["density", "--d", "4", "--samples", "10"], "base=-1.5",
         "must be positive, got '-1.5'"),
        (["density", "--d", "4", "--samples", "10"], "base=1.2,0",
         "must be positive, got '1.2,0'"),
        (["tau", "--k", "4", "--samples", "10"], "ratio=-0.1",
         "must be nonnegative, got '-0.1'"),
        (["tau", "--k", "4", "--samples", "10"], "ratio=-1",
         "must be nonnegative, got '-1'"),
        (["chambers", "--configs", "1"], "r=0", "must be positive, got 0"),
        (["chambers", "--configs", "1"], "m=0", "must be positive, got 0"),
        (["moivre", "--mu", "0"], "q=0", "must be positive, got 0"),
        (["moivre", "--mu", "0"], "q=100,-4", "must be positive, got -4"),
    ], ids=["pi-samples", "density-samples", "tau-samples", "tau-exact-budget",
            "alpha-exact-budget", "tau-k-zero", "tau-k-negative", "alpha-k-zero",
            "alpha-k-range", "pi-d-negative", "density-d-zero", "density-base-inf",
            "density-base-nan", "tau-ratio-inf", "tau-ratio-nan", "moivre-mu-inf",
            "density-base-negative", "density-base-zero", "tau-ratio-negative",
            "tau-ratio-minus-one", "chambers-r-zero", "chambers-m-zero", "moivre-q-zero",
            "moivre-q-negative"])
    def test_bad_budget_names_its_flag(self, tmp_path, argv, line, message):
        cfg = tmp_path / "c.conf"
        cfg.write_text(line + "\n")
        for err in (_error(argv + [f"--{line}"]), _error(argv + ["--config", str(cfg)])):
            assert f"argument --{line.split('=')[0]}: {message}" in err

    def test_zero_exact_budget_sends_the_cell_to_monte_carlo(self):
        code, text = _run(["tau", "--k", "3", "--m", "2", "--samples", "50",
                           "--exact-budget", "0"])
        assert code == 0
        assert list(csv.DictReader(io.StringIO(text)))[0]["provenance"] == "monte-carlo"

    def test_parse_errors(self, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("not a pair\n")
        with pytest.raises(ValueError):
            load_config(str(cfg))


class TestVerifyCommand:
    def test_quick_level_passes(self):
        code, text = _run(["verify", "--level", "quick", "--seed", "7",
                           "--workers", "2"])
        assert code == 0
        lines = [l for l in text.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 7
        assert all(l.startswith("PASS") for l in lines)
        assert [l.split("  ")[1] for l in lines] == \
            [c.name for c in CRITERIA if c.quick]

    def test_registry_covers_each_criterion_once(self):
        assert [c.number for c in CRITERIA] == list(range(1, 13))
        assert [c.number for c in CRITERIA if c.quick] == list(range(1, 8))
        for c in CRITERIA:
            assert isinstance(c.verify, dict) and isinstance(c.acceptance, dict)
            assert c.budget_s > 0

    def test_suite_detects_a_tampered_value(self, monkeypatch):
        # corrupting a single probability must flip the suite to failure
        from fractions import Fraction

        import polydense.estimators as est
        from polydense.mc import exact_estimate

        real = est.tau_exact

        def tampered(k, m, **kwargs):
            if (k, m) == (3, 2):
                return exact_estimate(Fraction(1, 2))
            return real(k, m, **kwargs)

        monkeypatch.setattr(est, "tau_exact", tampered)
        code, text = _run(["verify", "--level", "quick", "--seed", "7"])
        assert code != 0
        assert any(l.startswith("FAIL") for l in text.splitlines())

    def test_installed_entry_point(self):
        # the package the suite imports, installed or from the source tree
        src = str(Path(polydense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "polydense.cli", "moivre",
                               "--q", "64", "--mu", "0"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("experiment,")


class TestOnePoolPerCommand:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Every pool that parallel_map forks, in order."""
        made, fork = [], mc._fork_pool

        def counted(processes):
            made.append(fork(processes))
            return made[-1]

        monkeypatch.setattr(mc, "_fork_pool", counted)
        return made

    def test_both_methods_share_one_pool(self, pools, no_child_left):
        """pi --method both maps pi_mc's blocks and the tau columns on one
        pool, and prints what one worker prints."""
        args = ["pi", "--d", "6", "--n", "16", "--samples", "1000",
                "--tau-samples", "20", "--seed", "4"]
        code, two = _run(args + ["--workers", "2"])
        assert code == 0 and len(pools) == 1
        assert no_child_left()
        code, one = _run(args + ["--workers", "1"])
        assert code == 0 and len(pools) == 1
        assert _strip_wall_time(two) == _strip_wall_time(one)

    def test_an_error_after_the_pool_started_leaves_no_process(self, pools, no_child_left):
        # tau(8, 10) maps two blocks on the pool, then tau(3, 10) is invalid
        err = _error(["tau", "--k", "8,3", "--m", "10", "--samples", "1000",
                      "--workers", "2"])
        assert "m must lie in 0..2^3-2, got 10" in err
        assert len(pools) == 1 and mc._scope is None
        assert no_child_left()

    def test_verify_runs_nested_commands_on_the_outer_pool(self, pools, no_child_left):
        """Criterion 12 calls cli.main at workers 1, 2 and 1 inside the
        command's scope: the nested calls at 2 workers use its pool."""
        byte_check = next(c for c in CRITERIA if c.number == 12)
        with mc.worker_pool(2):
            ok, detail = byte_check.check(2, 7, **byte_check.verify)
        assert ok, detail
        assert len(pools) == 1
        assert no_child_left()

    def test_importing_the_cli_loads_no_pool_or_verify_module(self):
        src = str(Path(polydense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, polydense.cli; print(sorted(m for m in "
             "('multiprocessing', 'polydense.verify') if m in sys.modules))"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stdout.strip() == "[]"

    def test_a_command_on_two_workers_loads_no_multiprocessing(self):
        src = str(Path(polydense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, polydense.cli; code = polydense.cli.main("
             "['pi', '--d', '6', '--n', '16', '--method', 'both', '--samples', '1000', "
             "'--tau-samples', '20', '--workers', '2']); "
             "print(code, 'multiprocessing' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("argv", [["moivre", "--seed", "5"],
                                  ["chambers", "--samples", "5"],
                                  ["verify", "--out", "x"],
                                  ["tau", "--samp", "5"]])  # no prefix matching
def test_flags_a_command_does_not_read_are_rejected(argv):
    assert f"unrecognized arguments: {argv[1]}" in _error(argv)


@pytest.mark.parametrize("argv", [
    ["density", "--d", ",", "--samples", "10"],
    ["density", "--d", "6", "--base", ",", "--samples", "10"],
    ["tau", "--k", ",", "--m", "1"],
    ["moivre", "--q", ","],
], ids=["density-d", "density-base", "tau-k", "moivre-q"])
def test_empty_list_is_an_error(argv):
    assert "no values in ','" in _error(argv)


def test_unknown_input_reports_error():
    code, _ = _run(["chambers", "--r", "3", "--m", "4", "--configs", "1",
                    "--source", "halfcube", "--seed", "1"])
    assert code == 0
    code, _ = _run(["chambers", "--r", "2", "--m", "9", "--configs", "1",
                    "--source", "halfcube", "--seed", "1"])
    assert code == 2  # only 3 half-cube vectors exist at r=2


class TestWorkerCount:
    """A worker count that is not a positive integer is a typed error: the
    CLI exits 2 with an error line naming the value."""

    ARGV = ["tau", "--k", "3", "--m", "0", "--seed", "1"]

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "abc")
        assert "error: POLYDENSE_WORKERS must be a positive integer, got 'abc'" \
            in _error(self.ARGV)

    def test_env_zero(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "0")
        assert "error: POLYDENSE_WORKERS must be a positive integer, got '0'" \
            in _error(self.ARGV)

    def test_flag_zero(self, monkeypatch):
        monkeypatch.delenv("POLYDENSE_WORKERS", raising=False)
        assert "got 0" in _error(self.ARGV + ["--workers", "0"])

    def test_flag_negative(self, monkeypatch):
        monkeypatch.delenv("POLYDENSE_WORKERS", raising=False)
        assert "got -3" in _error(self.ARGV + ["--workers", "-3"])

    def test_flag_beats_a_bad_env(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "abc")
        code, text = _run(self.ARGV + ["--workers", "1"])
        assert code == 0
        assert text.startswith("experiment,")
