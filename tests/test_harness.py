import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from theta_shift.harness.cli import main
from theta_shift.harness.config import ExperimentConfig, item_rng
from theta_shift.harness.csvio import read_csv, write_csv


class TestConfig:
    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="frobnicate")

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="fit", seed=-1)

    def test_item_rng_deterministic(self):
        a = item_rng(42, 3).integers(0, 10**9)
        b = item_rng(42, 3).integers(0, 10**9)
        c = item_rng(42, 4).integers(0, 10**9)
        assert a == b
        assert a != c


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.csv"
        rows = [(1, 2.5, complex(1, -2)), (3, 0.1 + 1e-17, complex(0, 0))]
        write_csv(path, "fit", 7, ["a", "b", "c"], rows)
        meta, header, data = read_csv(path)
        assert meta["command"] == "fit"
        assert meta["seed"] == "7"
        assert header == ["a", "b", "c"]
        assert float(data[0][1]) == 2.5

    def test_missing_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_csv(p)


class TestCli:
    def test_eval_verb(self, tmp_path, capsys):
        rc = main(["expsum", "eval", "--m", "0", "--n", "0", "--c", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value = 1+1j" in out
        assert (tmp_path / "expsum-eval.csv").exists()

    def test_salie_eval(self, tmp_path, capsys):
        rc = main(["expsum", "eval", "--m", "0", "--n", "1", "--c", "7",
                   "--char-mod", "7", "--salie", "--out", str(tmp_path)])
        assert rc == 0
        assert "ratio" in capsys.readouterr().out

    def test_verify_mult_passes(self, tmp_path, capsys):
        rc = main(["verify-mult", "--trials", "25", "--seed", "7",
                   "--max-c", "2000", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS twisted multiplicativity" in capsys.readouterr().out

    def test_remark_check(self, tmp_path, capsys):
        rc = main(["remark-check", "--k", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_whittaker_point(self, tmp_path, capsys):
        rc = main(["specfun", "whittaker", "--eta", "0.0", "--mu", "0.5",
                   "--y", "2.0", "--out", str(tmp_path)])
        assert rc == 0
        val = float(read_csv(tmp_path / "specfun-whittaker.csv")[2][0][3])
        assert val == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_whittaker_requires_one_parameter(self, tmp_path):
        rc = main(["specfun", "whittaker", "--eta", "0.0",
                   "--y", "2.0", "--out", str(tmp_path)])
        assert rc == 2

    def test_bessel_grid(self, tmp_path):
        rc = main(["specfun", "bessel", "--t", "1.0", "--q", "2.0", "--q", "5.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, _, rows = read_csv(tmp_path / "specfun-bessel.csv")
        assert len(rows) == 2

    def test_shifted_sum_and_fit_pipeline(self, tmp_path, capsys):
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1",
                   "--xmin", "32", "--xmax", "256", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["fit", "--in", str(tmp_path / "shifted-sum.csv"), "--c", "0",
                   "--out", str(tmp_path)])
        assert rc == 2  # the fitter needs >= 8 rows, this grid has 4
        # wider grid fits fine
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1",
                   "--xmin", "4", "--xmax", "512", "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["fit", "--in", str(tmp_path / "shifted-sum.csv"), "--c", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "slope" in capsys.readouterr().out

    def test_gen_form_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "form.txt"
        rc = main(["gen-form", "--M", "200", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["shifted-sum", "--form", str(path), "--h", "1",
                   "--xmin", "4", "--xmax", "8", "--out", str(tmp_path)])
        assert rc == 0

    def test_seed_determinism_bitwise(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = main(["expsum", "sweep", "--trials", "40", "--max-c", "512",
                       "--seed", "3", "--exhaustive-max", "16", "--out", str(d)])
            assert rc == 0
        assert (d1 / "expsum-sweep.csv").read_bytes() == (d2 / "expsum-sweep.csv").read_bytes()

    @pytest.mark.parametrize("argv, name, digest", [
        (["expsum", "sweep", "--seed", "3"], "expsum-sweep",
         "81eaa44f125d145bf1ce5cb561bed11567b4b6baa9b0567f5b7a6b4eccd38aa2"),
        (["verify-mult"], "verify-mult",
         "2c97301747fce571d6489a7be9e587423547920181a1d57ace3216298f592a8e"),
        (["salie-bounds", "--pmax", "200"], "salie-bounds",
         "ccd7ea5db271df7f33c79c613a4312b04e20e799a0a15d443c6e0e8c6b04f3a2"),
    ], ids=["expsum-sweep", "verify-mult", "salie-bounds"])
    def test_expsum_artifacts_unchanged(self, tmp_path, argv, name, digest):
        # SHA-256 of the CSVs written by the per-element table loops that the
        # vectorized tables replaced (numpy 2.4, x86-64)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "theta_shift.harness.cli",
                              "remark-check", "--k", "5", "--out", "/tmp/ts-cli-test"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "PASS" in out.stdout
