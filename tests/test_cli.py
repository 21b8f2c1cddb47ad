import csv
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import polydense
from polydense.cli import load_config, main
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

    @pytest.mark.parametrize("flag", [["--method", "exact"],
                                      ["--exact-budget", "1"], ["--m", "0"]],
                             ids=["method", "exact-budget", "m"])
    def test_ratio_rejects_flags_it_does_not_read(self, flag):
        assert flag[0] in _error(["tau", "--k", "3", "--ratio", "1.5", "--samples",
                                  "100", "--seed", "1"] + flag)

    def test_m_range_spec(self):
        code, text = _run(["tau", "--k", "4", "--m", "0:2", "--seed", "3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["m"] for r in rows] == ["0", "1", "2"]


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

    def test_chamber_method_takes_no_exact_budget(self, tmp_path):
        argv = ["alpha", "--k", "3", "--m", "2", "--method", "chambers",
                "--samples", "20"]
        assert "--exact-budget" in _error(argv + ["--exact-budget", "5"])
        cfg = tmp_path / "budget.conf"
        cfg.write_text("exact-budget=5\n")
        assert "--exact-budget" in _error(argv + ["--config", str(cfg)])

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
