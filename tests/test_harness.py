import ast
import hashlib
import inspect
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from theta_shift.arith import trivial_character
from theta_shift.harness import cli, suites
from theta_shift.harness.cli import COMMANDS, _normalize_argv, _parser, main
from theta_shift.harness.csvio import read_csv, write_csv
from theta_shift.harness.suites import item_rng
from theta_shift.modforms.eta import eta7_cusp_form_on_demand, eta_cubed_pair_squares
from theta_shift.modforms.forms import CuspForm
from theta_shift.specfun import whittaker

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConfig:
    def test_item_rng_deterministic(self):
        a = item_rng(42, 3).integers(0, 10**9)
        b = item_rng(42, 3).integers(0, 10**9)
        c = item_rng(42, 4).integers(0, 10**9)
        assert a == b
        assert a != c

    def test_sym2_fit_grid_is_the_main_term_gate_grid(self):
        grid = suites.sym2_fit_grid(4000)
        assert grid == np.unique(np.geomspace(40, 4000, 24).astype(int)).tolist()
        assert len(grid) == 24


class TestSuites:
    @pytest.mark.parametrize("run", [
        lambda: suites.verify_mult_suite(trials=3, max_c=200),
        lambda: suites.weil_sweep_suite(trials=3, max_c=256, exhaustive_max=16),
        lambda: suites.salie_bound_suite(pmax=30),
        suites.whittaker_norm_suite,
        suites.whittaker_ratio_suite,
        suites.whittaker_lower_suite,
        lambda: suites.oscillatory_map_suite(n_omega=2, n_T=2),
        suites.mellin_suite,
        suites.bessel_bound_suite,
        lambda: suites.theta_suite(trials=3),
        lambda: suites.remark_suite(ks=(5,)),
    ], ids=["verify-mult", "weil-sweep", "salie-bound", "whittaker-norm", "whittaker-ratio",
            "whittaker-lower", "oscillatory-map", "mellin", "bessel-bound", "theta", "remark"])
    def test_suite_names_every_column(self, run):
        header, rows, lines, ok = run()
        assert isinstance(header, list) and all(isinstance(c, str) for c in header)
        assert len(set(header)) == len(header)
        assert rows and all(len(r) == len(header) for r in rows)
        assert lines
        assert ok == all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize("gate", [suites.exponent_gate, suites.main_term_gate])
    def test_shifted_sum_gates_report_like_the_suites(self, gate):
        header, rows, lines, ok = gate(eta7_cusp_form_on_demand())
        assert header == ["X", "S", "S_over_X"]
        assert [r[0] for r in rows] == [2.0**j for j in range(5, 13)]
        verdicts = [line for line in lines if not line.startswith("INFO ")]
        assert len(verdicts) == 1 and verdicts[0][:4] in ("PASS", "FAIL")
        assert ok == verdicts[0].startswith("PASS")

    def test_main_term_gate_fails_on_a_vanishing_sum(self):
        # a(n) = 0 for n > 1 makes every S/X zero: the check fails instead of dividing by it
        coeffs = np.zeros(4096**2 + 7, dtype=np.int8)
        coeffs[0] = 1
        f = CuspForm(level=4, weight=3, character=trivial_character(4), coeffs=coeffs)
        _, _, lines, ok = suites.main_term_gate(f, h=7)
        assert not ok
        assert lines[0].startswith("FAIL main-term stabilization (h=7): S/X = 0.00000, "
                                   "top-two variation inf%")

    def test_specfun_check_writes_the_union_of_columns(self, tmp_path, monkeypatch):
        stubs = {
            "whittaker_norm_suite": (["eta", "t", "q"], [(1, 2, 3)]),
            "whittaker_ratio_suite": (["t", "y"], [(4, 5), (6, 7)]),
            "whittaker_lower_suite": (["eta", "z"], [(8, 9)]),
            "bessel_bound_suite": (["q"], [(10,)]),
            "mellin_suite": (["y", "t", "eta"], [(11, 12, 13)]),
            "remark_suite": (["k"], [(14,)]),
        }
        for name, (header, rows) in stubs.items():
            monkeypatch.setattr(suites, name, lambda h=header, r=rows, n=name: (
                h, r, [f"PASS {n}"], True))
        assert main(["specfun", "check", "--out", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "specfun-check.csv")
        assert header == ["suite", "eta", "t", "q", "y", "z", "k"]
        assert rows == [
            ["norm", "1", "2", "3", "", "", ""],
            ["ratio", "", "4", "", "5", "", ""],
            ["ratio", "", "6", "", "7", "", ""],
            ["lower", "8", "", "", "", "9", ""],
            ["bessel", "", "", "10", "", "", ""],
            ["mellin", "13", "12", "", "11", "", ""],
            ["remark", "", "", "", "", "", "14"],
        ]

    def test_only_the_cli_keeps_a_clock(self):
        # suites report values; the CLI times each command once, the artifact write included
        src = Path(cli.__file__).resolve().parents[1]
        clocks = [f"{path.relative_to(src)}:{node.lineno}" for path in sorted(src.rglob("*.py"))
                  if path != src / "harness" / "cli.py"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Import) and "time" in {a.name for a in node.names}
                  or isinstance(node, ast.ImportFrom) and node.module == "time"]
        assert clocks == []


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
        _, header, rows = read_csv(tmp_path / "expsum-eval.csv")
        assert rows[0][header.index("ell")] == ""

    @pytest.mark.parametrize("extra", [["--factored"], ["--ell", "3"], ["--ell", "1"]])
    def test_salie_eval_refuses_kloosterman_options(self, tmp_path, capsys, extra):
        rc = main(["expsum", "eval", "--m", "1", "--n", "2", "--c", "9", "--char-mod", "1",
                   "--salie", *extra, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --salie takes neither --factored nor --ell\n"
        assert not (tmp_path / "expsum-eval.csv").exists()

    def test_verify_mult_passes(self, tmp_path, capsys):
        rc = main(["verify-mult", "--trials", "25", "--seed", "7",
                   "--max-c", "2000", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS twisted multiplicativity" in capsys.readouterr().out

    def test_remark_check(self, tmp_path, capsys):
        rc = main(["remark-check", "--k", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS explicit inner-product value at k in (5,):" in capsys.readouterr().out

    def test_failed_check_exits_one_and_writes_its_artifact(self, tmp_path, capsys):
        # one kappa on a 2 x 2 grid: the omega >= 1 sup moves by 40% under grid doubling
        rc = main(["oscillatory-map", "--n-omega", "2", "--n-T", "2", "--kappa", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line[:4] for line in lines[:3]] == ["FAIL", "PASS", "PASS"]
        assert "doubled-grid drift 40.12%" in lines[0]
        _, header, rows = read_csv(tmp_path / "oscillatory-map.csv")
        assert header == ["kappa", "omega", "T", "G", "ratio"]
        assert {r[0] for r in rows} == {"0.5"}

    def test_artifact_line_carries_the_command_time(self, tmp_path, capsys):
        assert main(["theta-check", "--trials", "3", "--out", str(tmp_path)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        path = tmp_path / "theta-check.csv"
        assert re.fullmatch(rf"artifact: {re.escape(str(path))} \(\d+\.\ds\)", last)

    def test_form_notes_reach_stderr(self, tmp_path, capsys):
        path = tmp_path / "form.txt"
        path.write_text("level=7\nweight=3\na 1 2\n"
                        + "".join(f"a {n} 1000000\n" for n in range(2, 258)))
        rc = main(["shifted-sum", "--form", str(path), "--h", "1", "--xmin", "4",
                   "--xmax", "16", "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("note: a(1) != 1") for line in err)
        assert any(line.startswith("note: Deligne bound violated at p=2") for line in err)
        assert all(line.startswith("note: ") for line in err)

    def test_eta7_has_no_notes(self, tmp_path, capsys):
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1", "--xmin", "4", "--xmax", "16",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_whittaker_point(self, tmp_path, capsys):
        rc = main(["specfun", "whittaker", "--eta", "0.0", "--mu", "0.5",
                   "--y", "2.0", "--out", str(tmp_path)])
        assert rc == 0
        val = float(read_csv(tmp_path / "specfun-whittaker.csv")[2][0][3])
        assert val == pytest.approx(np.exp(-1.0), rel=1e-10)

    def test_whittaker_requires_one_parameter(self, tmp_path, capsys):
        for both in ([], ["--t", "1.0", "--mu", "0.5"]):
            rc = main(["specfun", "whittaker", "--eta", "0.0",
                       "--y", "2.0", "--out", str(tmp_path)] + both)
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: exactly one of --t / --mu")

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_range(self, tmp_path, capsys):
        for seed in ("-1", str(2**64)):
            with pytest.raises(SystemExit) as exc:
                main(["theta-check", "--trials", "1", "--seed", seed, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "seed must fit in 64 bits" in capsys.readouterr().err
        assert not (tmp_path / "theta-check.csv").exists()

    def test_seed_range_edges_accepted(self, tmp_path):
        for seed in ("0", str(2**64 - 1)):
            assert main(["theta-check", "--trials", "1", "--seed", seed,
                         "--out", str(tmp_path)]) == 0

    def test_modulus_below_one_rejected(self, tmp_path, capsys):
        for extra in (["--c", "-4"], ["--c", "0"], ["--c", "-3", "--salie", "--char-mod", "1"]):
            rc = main(["expsum", "eval", "--m", "1", "--n", "1", "--out", str(tmp_path)] + extra)
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["theta-check"], ["expsum", "sweep"], ["verify-mult"]])
    def test_zero_trials_rejected(self, tmp_path, capsys, argv):
        rc = main(argv + ["--trials", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: need trials >= 1, got 0")

    @pytest.mark.parametrize("ymax", ["10", "40"])
    def test_sym2_ymax_at_most_fit_start_rejected(self, tmp_path, capsys, ymax):
        rc = main(["sym2", "--form", "eta7", "--ymax", ymax, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --ymax must exceed 40")
        assert f"got {ymax}" in err

    @pytest.mark.parametrize("flag", ["--n-omega", "--n-T"])
    def test_oscillatory_map_empty_grid_rejected(self, tmp_path, capsys, flag):
        rc = main(["oscillatory-map", flag, "0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: need n_omega >= 1 and n_T >= 1")

    @pytest.mark.parametrize("xmin, xmax, message", [
        ("0", "512", "--xmin must be at least 1, got 0"),
        ("0.5", "512", "--xmin must be at least 1, got 0.5"),
        ("600", "512", "--xmin must not exceed --xmax, got 600 > 512"),
        ("600", "700", "no power of two lies in [--xmin, --xmax] = [600, 700]"),
    ])
    def test_shifted_sum_bad_window_rejected(self, tmp_path, capsys, xmin, xmax, message):
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1", "--xmin", xmin,
                   "--xmax", xmax, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "shifted-sum.csv").exists()

    def test_shifted_sum_one_sided_option_gone(self, tmp_path, capsys):
        # the one-sided sum is (S + A(h))/2: no option computes it
        with pytest.raises(SystemExit) as exc:
            main(["shifted-sum", "--form", "eta7", "--h", "1", "--one-sided",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --one-sided" in capsys.readouterr().err

    @pytest.mark.parametrize("pmax", ["-5", "0", "1"])
    def test_salie_bounds_pmax_below_two_rejected(self, tmp_path, capsys, pmax):
        rc = main(["salie-bounds", "--pmax", pmax, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --pmax must be at least 3, got {pmax}\n"

    def test_salie_bounds_without_an_odd_prime_rejected(self, tmp_path, capsys):
        # no odd prime is <= 2, so the sweep would check no batch
        rc = main(["salie-bounds", "--pmax", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --pmax must be at least 3, got 2\n"
        assert not (tmp_path / "salie-bounds.csv").exists()

    @pytest.mark.parametrize("exhaustive_max", ["3", "11"])
    def test_sweep_without_a_grid_per_character_rejected(self, tmp_path, capsys,
                                                         exhaustive_max):
        # (12/.) has its first grid at c = 12, the trivial character at c = 4
        rc = main(["expsum", "sweep", "--exhaustive-max", exhaustive_max, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: need exhaustive_max >= 12, the least modulus with a grid for every "
            f"character, got {exhaustive_max}")

    def test_remark_suite_without_k_rejected(self):
        with pytest.raises(ValueError, match="need at least one k"):
            suites.remark_suite(ks=())

    @pytest.mark.parametrize("D, N, c", [("101", "4", "4"), ("-199", "3", "12"),
                                         (str(10**30 + 1), "4", "4")])
    def test_kronecker_symbol_that_is_no_character_mod_n_rejected(self, tmp_path, capsys,
                                                                   D, N, c):
        # (101/.) and (-199/.) agree with a character mod N on 0..2N-1 only; the
        # large D is refused by its common period before any table is built
        rc = main(["expsum", "eval", "--m", "1", "--n", "1", "--c", c, "--char-kronecker", D,
                   "--char-mod", N, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: (D/.) with D={D} ")
        assert not (tmp_path / "expsum-eval.csv").exists()

    def test_failed_whittaker_solve_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def failing_solve(*args, **kwargs):
            return SimpleNamespace(success=False, message="Required step size is too small.")

        whittaker._solve_scaled.cache_clear()  # a cached solve would not reach solve_ivp
        monkeypatch.setattr(whittaker, "solve_ivp", failing_solve)
        # 2 mu an integer: the 1F1 series serves neither it nor mu = 2i at y = 3
        rc = main(["specfun", "whittaker", "--eta", "1.25", "--mu", "0.5",
                   "--y", "3.0", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: Whittaker integration failed: Required step size is too small.\n")
        assert not (tmp_path / "specfun-whittaker.csv").exists()

    def test_allocation_beyond_memory_exits_cleanly(self, tmp_path, capsys):
        # 8 PB of coefficients: beyond the user address space, so it fails at once
        rc = main(["gen-form", "--M", str(10**15), "--file", str(tmp_path / "form.txt"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "form.txt").exists()

    def test_eta7_beyond_work_budget_exits_cleanly(self, tmp_path, capsys):
        # X = 10^6 reads a(n) to n = 10^12: hours of square tests, refused up front
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1", "--xmax", "1e6",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: need coefficients to n^2+h = 274876858370 > M = 4294967296")
        assert not (tmp_path / "shifted-sum.csv").exists()

    def test_eta7_sym2_beyond_work_budget_exits_cleanly(self, tmp_path, capsys):
        rc = main(["sym2", "--form", "eta7", "--ymax", "70000", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: need a(n^2) to n=70000, i.e. M >= 4900000000\n")

    @pytest.mark.parametrize("xmin, xmax, xs", [
        ("32", "64", None), ("1", "64", None), ("1", "2", [1.0, 2.0])])
    def test_short_file_form_needs_the_whole_window(self, tmp_path, capsys, xmin, xmax, xs):
        # X = 64 reads a(63^2 + 1): no row is dropped to fit 10 coefficients
        path = tmp_path / "form.txt"
        path.write_text("level=4\nweight=3\n" + "".join(f"a {n} 1\n" for n in range(1, 11)))
        rc = main(["shifted-sum", "--form", str(path), "--h", "1", "--xmin", xmin,
                   "--xmax", xmax, "--out", str(tmp_path)])
        if xs is None:
            assert rc == 2
            assert capsys.readouterr().err == (
                "error: need coefficients to n^2+h = 3970 > M = 10\n")
            assert not (tmp_path / "shifted-sum.csv").exists()
        else:
            assert rc == 0
            _, header, rows = read_csv(tmp_path / "shifted-sum.csv")
            assert [float(r[header.index("X")]) for r in rows] == xs

    @pytest.mark.parametrize("line, message", [
        ("a 0 5", "form.txt:4: coefficient index must be >= 1, got a(0)"),
        ("a 2 4", "form.txt:4: duplicate coefficient a(2)"),
    ])
    def test_bad_coefficient_line_rejected(self, tmp_path, capsys, line, message):
        path = tmp_path / "form.txt"
        path.write_text(f"level=4\nweight=3\na 2 3\n{line}\na 1 1\n")
        rc = main(["shifted-sum", "--form", str(path), "--h", "1",
                   "--xmin", "1", "--xmax", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path.parent}/{message}\n"

    def test_readme_cli_block_matches_command_table(self):
        block = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), re.S).group(1)
        lines = [ln.split("#")[0].strip() for ln in block.splitlines()
                 if ln.startswith("theta-shift ")]
        seen = set()
        for line in lines:
            args = _parser().parse_args(_normalize_argv(shlex.split(line)[1:]))
            seen.add(args.name)
        assert seen == set(COMMANDS)

    def test_suite_rows_leave_defaults_to_the_suite(self):
        # an option left out is None, which _run_suite skips, so the suite's own default holds
        defaults = [flag for _, _, arguments, handler in COMMANDS.values()
                    if isinstance(handler, str) for flag, kwargs in arguments
                    if "default" in kwargs]
        assert defaults == []

    def test_every_command_option_is_read(self):
        # a suite row passes the options whose dests name suite parameters and drops
        # the rest, so a misnamed dest would be ignored; a handler reads args.<dest>
        source = Path(cli.__file__).read_text()

        def read(handler, dest):
            if isinstance(handler, str):
                return dest in inspect.signature(getattr(suites, handler)).parameters
            return re.search(rf"\bargs\.{dest}\b", source)

        unread = [flag for _, _, arguments, handler in COMMANDS.values()
                  for flag, kwargs in arguments
                  if not read(handler, kwargs.get("dest", flag[2:].replace("-", "_")))]
        assert unread == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name, flag", [
        (name, flag) for name, (_, _, arguments, _) in COMMANDS.items()
        for flag, kwargs in arguments if kwargs.get("type") in (float, cli._finite)])
    def test_non_finite_float_option_rejected(self, tmp_path, capsys, name, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([name, flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_only_the_form_indexes_its_coefficients(self):
        # CuspForm.a holds the one range check, so every other reader goes through it
        src = Path(cli.__file__).resolve().parents[1]
        readers = [f"{path.relative_to(src)}:{no}" for path in sorted(src.rglob("*.py"))
                   if path != src / "modforms" / "forms.py"
                   for no, line in enumerate(path.read_text().splitlines(), start=1)
                   if ".coeffs[" in line]
        assert readers == []

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

    def test_shifted_sum_grid_starts_at_or_above_xmin(self, tmp_path):
        rc = main(["shifted-sum", "--form", "eta7", "--h", "1",
                   "--xmin", "600", "--xmax", "1100", "--out", str(tmp_path)])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "shifted-sum.csv")
        assert [float(r[header.index("X")]) for r in rows] == [1024.0]

    def test_gen_form_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "form.txt"
        rc = main(["gen-form", "--M", "200", "--file", str(path),
                   "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["shifted-sum", "--form", str(path), "--h", "1",
                   "--xmin", "4", "--xmax", "8", "--out", str(tmp_path)])
        assert rc == 0

    def test_shifted_sum_on_level7_table_form(self, tmp_path, eta7_small):
        path = tmp_path / "form.txt"
        path.write_text("level=7\nweight=3\nchar_table=0,1,1,-1,1,-1,-1\n"
                        + "".join(f"a {n} {int(eta7_small.a(n))}\n" for n in range(1, 101)))
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
         "34e6607aadc6c8c361256b52f75aebdc9240bd7eb9f06c2cea1aa4ac2556f124"),
        (["shifted-sum", "--form", "eta7", "--h", "1", "--xmin", "4", "--xmax", "512"],
         "shifted-sum", "41bd6b415a788ea97da91ee41f87a6dc77605cfa5de233eb4a20c5dcea73b335"),
        (["shifted-sum", "--form", "eta7", "--h", "7", "--xmin", "32", "--xmax", "4096"],
         "shifted-sum", "34c61f3d8dbe34833b5699f07eb6f8c8f033436f2dd6ca1aa5fceec438096073"),
        (["shifted-sum", "--form", "eta7", "--h", "1", "--xmin", "32", "--xmax", "4096"],
         "shifted-sum", "7fed2a125349549e6ccd728fd76c5492d8c337594b43e89d47f2fe4a7b97bd25"),
        (["shifted-sum", "--form", "eta7", "--h", "7", "--xmin", "32", "--xmax", "65536"],
         "shifted-sum", "12c5fe325355c358dec76c917501923353d9ad074cd81ab037f461ca824038de"),
        (["shifted-sum", "--form", "eta7", "--h", "1", "--xmin", "32", "--xmax", "65536"],
         "shifted-sum", "0bd7e1a873776b420d3b3991a15576c454c316ac55a1037e1d1c2c5ffcd2aa71"),
        (["specfun", "whittaker", "--eta", "1.25", "--t", "2", "--y", "3.0", "--y", "1.0"],
         "specfun-whittaker", "2fd80dda210c74f547fcf032f57c18bf3efd5728043572094b1191f6cfb4b6e0"),
        (["oscillatory-map", "--n-omega", "2", "--n-T", "2"], "oscillatory-map",
         "1427a20147bd9749f0b12d62a4f6af89d397f1123437c6bf7876d6381abe363e"),
    ], ids=["expsum-sweep", "verify-mult", "salie-bounds", "shifted-sum",
            "shifted-sum-h7-4096", "shifted-sum-h1-4096", "shifted-sum-h7-65536",
            "shifted-sum-h1-65536", "specfun-whittaker", "oscillatory-map"])
    def test_expsum_artifacts_unchanged(self, tmp_path, argv, name, digest):
        # SHA-256 of CSVs recorded before a rewrite of the code that computes
        # them (numpy 2.4, x86-64): the per-element table loops (expsums), the
        # per-term shifted-sum loop, the scalar Whittaker point path and the
        # per-panel Gauss-Legendre loops (oscillatory kernel); the X = 65536 rows
        # by the per-n square scan that a(j^2 + h) took before the sieve, at the
        # top of its n <= 2^32 range.  salie-bounds was
        # re-recorded for the batch transform and the tie-free row filter: every
        # row kept matched the per-pair gather's CSV to 1.3e-15 relative;
        # oscillatory-map for the incomplete gamma's bottom-up continued
        # fraction and Horner series, crossing over at z = 2: every row's G
        # and ratio matched the Lentz loop's CSV to 8.5e-15 relative; and again
        # for B's xi-head integrated by parts: G moved by at most 4.2e-15 and
        # ratio by 4.2e-15 relative, kappa, omega and T not at all; salie-bounds
        # again for Salie's closed form at the trivial character: the same 611
        # rows, c, m, n and bound unchanged, abs and ratio within 1.8e-15 relative
        for _ in range(2):   # the second run reads the kept parser, eta7 form and sieve rows
            assert main(argv + ["--out", str(tmp_path)]) == 0
            assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == digest

    def test_sym2_estimate_unchanged(self, tmp_path, capsys):
        # printed by the dense-table route before a(n) was computed on demand
        assert main(["sym2", "--form", "eta7", "--ymax", "4000", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "symmetric-square residue estimate: 0.859725 (fit quality 0.0182)\n")

    def test_sym2_estimate_at_the_range_edge(self, tmp_path, capsys):
        # printed by the per-n square scan before the sieve: a(n^2) to n = 2^16
        assert main(["sym2", "--form", "eta7", "--ymax", "65536", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            "symmetric-square residue estimate: 0.860617 (fit quality 0.0227)\n")

    def test_eta7_shifted_sum_memory_bound(self, tmp_path):
        # reads 4097 coefficients; the dense table to X = 4096 took 256 MB
        eta7_cusp_form_on_demand.cache_clear()   # a kept form or row would measure no build
        eta_cubed_pair_squares.cache_clear()
        tracemalloc.start()
        try:
            rc = main(["shifted-sum", "--form", "eta7", "--h", "7", "--xmax", "4096",
                       "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 64 * 2**20

    def test_kept_parser_carries_nothing_between_requests(self, tmp_path):
        assert _parser() is _parser()
        whittaker = ["specfun", "whittaker", "--eta", "1.25", "--t", "2", "--y", "3.0"]
        assert main(whittaker + ["--y", "1.0", "--out", str(tmp_path / "a")]) == 0
        assert main(whittaker + ["--out", str(tmp_path / "b")]) == 0
        assert len(read_csv(tmp_path / "b" / "specfun-whittaker.csv")[2]) == 1
        kappas = []
        for i, extra in enumerate((["--kappa", "0.25"], [])):
            assert main(["oscillatory-map", "--n-omega", "2", "--n-T", "2", *extra,
                         "--out", str(tmp_path / str(i))]) == 0
            _, header, rows = read_csv(tmp_path / str(i) / "oscillatory-map.csv")
            kappas.append({float(r[header.index("kappa")]) for r in rows})
        assert kappas == [{0.25}, {0.5, -0.5}]   # the suite's default kappas
        # refused after --t 1 was read; the next request sees only its own --t
        with pytest.raises(SystemExit) as exc:
            main(["specfun", "bessel", "--t", "1", "--q", "nan", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2
        assert main(["specfun", "bessel", "--t", "2", "--q", "3",
                     "--out", str(tmp_path / "c")]) == 0
        assert [r[:2] for r in read_csv(tmp_path / "c" / "specfun-bessel.csv")[2]] == [["2", "3"]]

    def test_console_script_installed(self):
        out = subprocess.run([sys.executable, "-m", "theta_shift.harness.cli",
                              "remark-check", "--k", "5", "--out", "/tmp/ts-cli-test"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "PASS" in out.stdout


class TestOutOfRangeInput:
    @pytest.mark.parametrize("header, missing", [
        (["t", "q", "re", "im"], "X"), (["X", "S_over_X"], "S")])
    def test_fit_names_the_missing_column(self, tmp_path, capsys, header, missing):
        path = tmp_path / "in.csv"
        write_csv(path, "specfun-bessel", 0, header, [tuple(range(len(header)))])
        assert main(["fit", "--in", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: no column '{missing}' (columns: {', '.join(header)})\n")

    def test_fit_names_a_nan_row(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        xs = 2.0 ** np.arange(5, 13)
        write_csv(path, "shifted-sum", 0, ["X", "S"],
                  [(x, np.nan if x == 256 else x ** 0.7) for x in xs])
        assert main(["fit", "--in", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: the fit needs finite X and S: row 4 of 8 has X = 256, S = nan\n")

    def test_eval_depends_on_residues_only(self, tmp_path):
        # 10^23 - 1 = 3 mod 4; at int64 the phase index overflowed
        got = {}
        for m in ("99999999999999999999999", "3"):
            assert main(["expsum", "eval", "--m", m, "--n", "1", "--c", "4",
                         "--out", str(tmp_path / m)]) == 0
            _, header, (row,) = read_csv(tmp_path / m / "expsum-eval.csv")
            got[m] = [row[header.index(k)] for k in ("re", "im", "bound")]
        assert got["99999999999999999999999"] == got["3"]

    def test_salie_bounds_unchanged(self, tmp_path):
        # recorded when the batch transform replaced the per-pair gather and the
        # row filter stopped keeping ratio-1/2 ties: every row kept matched the
        # per-pair bound calls' CSV to 3.4e-15 relative; re-recorded when Salie's
        # closed form took the trivial-character batches: the same 2436 rows,
        # c, m, n and bound unchanged, abs and ratio within 1.8e-15 relative
        assert main(["salie-bounds", "--pmax", "1000", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "salie-bounds.csv").read_bytes()).hexdigest() == (
            "b4c58f7ae26be8446656314f55d708a4f572ccf707dbf3a9c2f1c77fff22d0c7")

    def test_bessel_beyond_boosted_limit_exits(self, tmp_path, capsys):
        rc = main(["specfun", "bessel", "--t", "100", "--q", "100000", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: J_(2it) at t=100, q=100000 needs mpmath beyond its limit q <= 2000 "
            "(for q < 12 t^2)\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        "--eta 1 --t 420 --y 1", "--eta 1 --t 1000 --y 1", "--eta 1 --t 1e8 --y 1",
        "--eta 1 --t 1e50 --y 1", "--eta 1 --t 1e160 --y 1", "--eta 100 --t 5 --y 1"])
    def test_whittaker_outside_working_range_exits(self, tmp_path, capsys, args):
        rc = main(["specfun", "whittaker", *args.split(), "--out", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(r"error: Whittaker W needs \|(eta|mu)\| <= ", err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("eta, t, y", [(-20, 250, 1e-3), (-20, 250, 1e-8), (-20, 100, 2e-9)])
    def test_whittaker_series_below_the_ode_floor(self, tmp_path, eta, t, y):
        # the ODE refuses y = 1e-3 at its floor and overflowed at the other two;
        # the 1F1 series serves all three
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["specfun", "whittaker", "--eta", str(eta), "--t", str(t), "--y", str(y),
                       "--out", str(tmp_path)])
        assert rc == 0
        got = float(read_csv(tmp_path / "specfun-whittaker.csv")[2][0][3])
        with mp.workdps(40):
            ref = float(mp.re(mp.whitw(eta, 1j * t, y)))
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_whittaker_below_solver_floor_exits(self, tmp_path, capsys):
        # a real mu, so the ODE serves it; it raised OverflowError in the
        # equation's right-hand side before reaching the floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["specfun", "whittaker", "--eta", "-20", "--mu", "0.5", "--y", "3e-14",
                       "--out", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Whittaker W at eta=-20, y=3e-14 is below the solver floor")
        assert not any(tmp_path.iterdir())

    def test_whittaker_real_mu_tiny_y_meets_floor_exits(self, tmp_path, capsys):
        # W = 2.5e232 here and v = 2.5e-288, under the floor; the solve itself
        # runs through (it used to stall on squared-integral states it carried)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["specfun", "whittaker", "--eta", "-20", "--mu", "10", "--y", "1e-26",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: Whittaker W at eta=-20, y=1e-26 is below the "
                                           "solver floor: |W e^(y/2) y^(-eta)| < 1e-276\n")
        assert not any(tmp_path.iterdir())

    def test_whittaker_real_mu_tiny_y_value(self, tmp_path):
        # W = 2.5e175 while y^eta alone overflows a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["specfun", "whittaker", "--eta", "-20", "--mu", "10", "--y", "1e-20",
                       "--out", str(tmp_path)])
        assert rc == 0
        got = float(read_csv(tmp_path / "specfun-whittaker.csv")[2][0][3])
        with mp.workdps(40):
            ref = float(mp.whitw(-20, 10, mp.mpf("1e-20")))
        assert abs(got - ref) <= 1e-11 * abs(ref)

    def test_whittaker_real_mu_series_tiny_y_value(self, tmp_path):
        # 2 mu = 1/2 is not an integer, so the terminating 1F1 term serves y = 1e-100,
        # where the ODE stopped with "Required step size is less than spacing"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["specfun", "whittaker", "--eta", "2.25", "--mu", "0.25", "--y", "1e-100",
                       "--out", str(tmp_path)])
        assert rc == 0
        got = float(read_csv(tmp_path / "specfun-whittaker.csv")[2][0][3])
        with mp.workdps(40):
            ref = float(mp.whitw(2.25, 0.25, mp.mpf("1e-100")))
        assert abs(got - ref) <= 5e-12 * abs(ref)

    @pytest.mark.parametrize("ymax", ["99999999999999999999999", "9999999999999999999",
                                      "1" + "0" * 309], ids=["1e23", "1e19", "1e309"])
    def test_sym2_ymax_beyond_int64_exits(self, tmp_path, capsys, ymax):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sym2", "--form", "eta7", "--ymax", ymax, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: need a(n^2) to n={ymax}, i.e. M >= {int(ymax) ** 2}\n")
