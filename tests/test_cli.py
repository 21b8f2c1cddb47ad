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


def _run(argv, tmp_path=None):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


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


class TestMoivreCommand:
    def test_values(self):
        code, text = _run(["moivre", "--q", "100", "--mu", "0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["cutoff"] == "50"
        assert abs(float(rows[0]["ratio"]) - 0.5398) < 1e-4
        assert float(rows[0]["limit_value"]) == 0.5


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

    def _error(self, argv):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = _run(argv)
        assert code == 2
        assert out == ""
        return err.getvalue()

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "abc")
        assert "error: POLYDENSE_WORKERS must be a positive integer, got 'abc'" \
            in self._error(self.ARGV)

    def test_env_zero(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "0")
        assert "error: POLYDENSE_WORKERS must be a positive integer, got '0'" \
            in self._error(self.ARGV)

    def test_flag_zero(self, monkeypatch):
        monkeypatch.delenv("POLYDENSE_WORKERS", raising=False)
        assert "got 0" in self._error(self.ARGV + ["--workers", "0"])

    def test_flag_negative(self, monkeypatch):
        monkeypatch.delenv("POLYDENSE_WORKERS", raising=False)
        assert "got -3" in self._error(self.ARGV + ["--workers", "-3"])

    def test_flag_beats_a_bad_env(self, monkeypatch):
        monkeypatch.setenv("POLYDENSE_WORKERS", "abc")
        code, text = _run(self.ARGV + ["--workers", "1"])
        assert code == 0
        assert text.startswith("experiment,")
