import ast
import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import PERFBENCH, load_perfbench

import quenchfront
from quenchfront import acceptance, bvp, cli, grid
from quenchfront.cli import RunConfig, load_profile, main, read_csv, write_csv


def run(argv):
    return main(argv)


def loaded(cfg_file, command):
    """The settings a config file gives ``command``, as ``main`` loads them."""
    cfg = RunConfig()
    cfg.load(cfg_file, cli.build_parser().parse_args([command]).flags)
    return cfg


def config_line(path):
    return next(line for line in Path(path).read_text().splitlines()
                if line.startswith("# config:"))


class TestConfig:
    def test_file_then_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delta=0.2\nc=1.5\n# a comment\n\n")
        cfg = loaded(cfg_file, "solve")
        assert cfg.delta == 0.2 and cfg.c == 1.5 and cfg.given == {"delta", "c"}
        out = tmp_path / "p.csv"
        assert run(["--config", str(cfg_file), "solve", "--delta", "0.3", "--h", "0.04",
                    "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["delta"]) == 0.3 and float(header["c"]) == 1.5

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_key=1\n")
        with pytest.raises(ValueError):
            loaded(cfg_file, "solve")

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delta 0.2\n")
        with pytest.raises(ValueError):
            loaded(cfg_file, "solve")

    @pytest.mark.parametrize("line, says", [
        ("h=abc", "could not convert string to float: 'abc'"),
        ("k=2.5", "invalid literal for int()"),
        ("not_a_key=1", "unknown config key 'not_a_key'"),
        ("spectrum=banana", "expected 1/true/yes/on or 0/false/no/off, got 'banana'")])
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, line, says):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"# a comment\nc=1.5\n{line}\n")
        key = line.partition("=")[0]
        command = "spectrum" if key == "k" else "solve"   # a command with that flag
        with pytest.raises(ValueError, match=f"^{re.escape(f'{cfg_file}:3: {key}: {says}')}"):
            loaded(cfg_file, command)
        assert run(["--config", str(cfg_file), command]) == 2
        assert f"{cfg_file}:3: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1", "TRUE", "Yes", "on", "0", "False", "NO", "off"])
    def test_boolean_spellings_in_any_case(self, value, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"spectrum={value}\n")
        assert loaded(cfg_file, "solve").spectrum is (value.lower() in ("1", "true", "yes", "on"))

    def test_echo_contains_effective_values(self):
        # only the settings read, and of those not the output path
        cfg = RunConfig(delta=0.25, out="p.csv")
        cfg.read = {"delta", "out", "xmin"}
        assert cfg.echo() == ["delta=0.25"]


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "profile", {"c": 0.0, "note": "x"},
                  {"x": np.array([0.0, 1.0]), "u": np.array([3.0, 4.0])},
                  RunConfig())
        header, cols = read_csv(path)
        assert header["kind"] == "profile"
        assert cols["u"][1] == 4.0

    def test_rows_print_each_cell_as_17_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        a = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 3.0, 0.1, -1.0 / 3.0]
        b = list(range(len(a)))   # an integer column prints like its floats
        write_csv(path, "profile", {}, {"a": np.array(a), "b": b}, RunConfig())
        rows = path.read_text().splitlines()[-len(a):]
        assert rows == [f"{x:.17g},{float(y):.17g}" for x, y in zip(a, b)]

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="x=3, u=2"):
            write_csv(path, "profile", {}, {"x": [0.0, 1.0, 2.0], "u": [3.0, 4.0]},
                      RunConfig())
        assert not path.exists()

    @pytest.mark.parametrize("n_rows", [0, 1, *(cli.CSV_BLOCK_ROWS + k for k in (-1, 0, 1)),
                                        2 * cli.CSV_BLOCK_ROWS + 1])
    def test_streamed_rows_match_one_shot_text(self, n_rows, tmp_path):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 3.0, 0.1, -1.0 / 3.0]
        a = np.resize(special, n_rows) * np.linspace(1.0, 2.0, n_rows)
        columns = {"a": a, "b": np.arange(n_rows), "c": a[::-1].copy()}
        header = {"c": -57.3, "note": "x"}
        trailing = ["# comment one", "# u0_rel_err=1.5e-09"]
        cfg = RunConfig(c=-57.3)
        path = tmp_path / "t.csv"
        write_csv(path, "branch", header, columns, cfg, trailing)
        # the text of the writer that built the whole file in memory
        lines = ["# schema_version=1", "# kind=branch",
                 f"# generated_by=quenchfront {quenchfront.__version__}",
                 "# c=-57.299999999999997", "# note=x",
                 "# config: " + " ".join(cfg.echo()), "a,b,c"]
        rows = [f"{x:.17g},{float(y):.17g},{z:.17g}" for x, y, z in zip(*columns.values())]
        assert path.read_bytes() == ("\n".join(lines + rows + trailing) + "\n").encode()

    @pytest.mark.parametrize("row, named", [
        ("1,2,3", "line 6: 3 cells for 2 columns"),
        ("1,abc", "line 6: could not convert string to float: 'abc'")])
    def test_malformed_row_located(self, row, named, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(f"# schema_version=1\n# kind=profile\n# c=0\nx,u\n0,1\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv, {named}"):
            read_csv(path)
        out = tmp_path / "x.csv"
        assert run(["solve", "--c", "0", "--h", "0.04", "--seed-file", str(path),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and f"bad.csv, {named}" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda t: t.replace("# c=0\n", ""), "no '# c=' header line"),
        (lambda t: t.replace("x,u\n", "x,v\n"), "no 'u' column"),
        (lambda t: t.replace("\n5,", "\n5.5,"), "leaves the uniform increasing grid "
                                                "at data row 6: x=5.5"),
        (lambda t: t.split("\n5,")[0] + "\n", "x column gives no grid: need n >= 9"),
        (lambda t: t.replace("\n11,", "\ninf,"), "x column gives no grid: grid bounds "
                                                 "must be finite, got"),
        (lambda t: t.replace("\n5,", "\nnan,"), "leaves the uniform increasing grid "
                                                "at data row 6: x=nan"),
        (lambda t: t.replace("# c=0\n", "# c=nan\n"), "'# c=' header line gives c=nan"),
        (lambda t: t.replace(",0.25\n", ",nan\n"), "u is not finite at data row 4: u=nan")],
        ids=["no_c", "no_u", "x_off_grid", "too_few_rows", "x_inf_last", "x_nan", "c_nan",
             "u_nan"])
    def test_unusable_profile_named(self, edit, named, tmp_path, capsys):
        path = tmp_path / "seed.csv"
        rows = "".join(f"{i},{1.0 / (i + 1)}\n" for i in range(12))
        path.write_text(edit(f"# schema_version=1\n# kind=profile\n# c=0\nx,u\n{rows}"))
        with pytest.raises(ValueError, match=f"seed.csv: .*{named}"):
            load_profile(path)
        out = tmp_path / "x.csv"
        assert run(["solve", "--c", "0", "--h", "0.04", "--seed-file", str(path),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and "seed.csv: " in err and named in err
        assert not out.exists()

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema_version=99\nx,u\n0,1\n")
        with pytest.raises(ValueError, match="schema"):
            read_csv(path)

    def test_missing_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,u\n0,1\n")
        with pytest.raises(ValueError, match="schema"):
            read_csv(path)


class TestSolveCommand:
    def test_solve_writes_profile(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "0", "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert header["kind"] == "profile"
        assert float(header["c"]) == 0.0
        assert float(header["x_delta"]) == pytest.approx(1.51115, abs=1e-3)
        assert float(header["u_at_zero"]) == pytest.approx(0.5191034, abs=1e-5)
        assert int(header["crossing_count"]) == 1
        assert header["admissible"] == "True"
        assert np.abs(cols["residual"]).max() < 1e-9
        # the log of the right tail's Airy coefficient k, which stays finite
        # where k overflows, and its spread over the fit window; no amplitudes
        assert ("log_k" in header and "log_k_spread" in header
                and not [k for k in header if k.startswith(("alpha", "log_alpha"))])

    def test_required_bounds_domain_has_a_tail_window(self, tmp_path):
        # x_max = 23.25 is required_bounds(-50)'s right edge (u ~ 1e-2 one
        # unit inside): the fit window is what lies past u = 1e-2, under 1 unit
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "-50", "--xmax", "23.25", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert math.isfinite(float(header["log_k"]))
        assert float(header["log_k_spread"]) < 1e-3

    @staticmethod
    def traced_peak(argv):
        """Traced heap peak of one command, in MiB, from an empty band cache."""
        bvp.equation_band.cache_clear()
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_widest_default_solve_peaks_below_2_6_mib(self, tmp_path, capsys):
        # c = 13 has the largest default grid that solves at h = 0.01 (9,087
        # nodes, a 0.65 MB band; c = -200 has 8,215): 2.1-2.3 MiB traced peak.
        # A Jacobian copy beside the cached band gave 2.7-2.8, and a second
        # cached band copy and a CSV built in memory 5.1
        assert self.traced_peak(["solve", "--c", "13", "--h", "0.01",
                                 "--out", str(tmp_path / "p.csv")]) < 2.6

    def test_compare_tanh_peaks_below_3_5_mib(self, tmp_path, capsys):
        # the tanh front's 12,001 nodes set the peak: its cached band and
        # dgbsv's work array, 3.0 MiB traced; a Jacobian copy and the inner
        # front's band kept cached beside them gave 4.06
        assert self.traced_peak(["compare-tanh", "--eps", "0.001", "--c", "0.1",
                                 "--out", str(tmp_path / "ct.csv")]) < 3.5

    def test_failed_newton_linear_solve_names_its_run(self, tmp_path, capsys, monkeypatch):
        # LAPACK reporting a zero pivot in column 2 of every Jacobian
        real = grid.flapack.dgbsv
        monkeypatch.setattr(grid.flapack, "dgbsv",
                            lambda *args, **kwargs: (*real(*args, **kwargs)[:3], 3))
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "-10", "--h", "0.04", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=SingularJacobianError" in err and "zero pivot in column 2" in err
        n = bvp.default_grid(-10.0, 0.04).n
        for named in ("c=-10,", "h=0.04,", f"n={n}", "iteration 1"):
            assert named in err
        assert not out.exists()

    def test_solve_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["solve", "--c", "0", "--out", str(out1)])
        run(["solve", "--c", "0", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("flags, named", [
        (["--c", "0", "--h", "0"], "h=0.0"), (["--c", "0", "--h", "nan"], "h=nan"),
        (["--c", "nan"], "c=nan"), (["--c", "inf"], "c=inf"),
        (["--c", "0", "--h", "1e-310"], "at h=1e-310 must be finite")])
    def test_non_finite_input_rejected(self, flags, named, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["solve", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--c", "0", "--h", "1e-8"], "n=4500000001"), (["--c", "1e4"], "n=2500014501")])
    def test_grid_over_node_limit_rejected(self, flags, named, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["solve", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and named in err and "node limit" in err
        assert not out.exists()

    def test_margin_validation_error(self, tmp_path, capsys):
        code = run(["solve", "--c", "0", "--xmax", "2",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error kind=MarginError" in err

    def test_non_admissible_solve_names_its_c_and_grid(self, tmp_path, capsys):
        # at c = 13 the right edge moved out from 18.61 to 20 puts the tail
        # past the u-form reach: Newton converges to a profile whose tail
        # has underflowed to exact zeros
        code = run(["solve", "--c", "13", "--h", "0.04", "--xmax", "20",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error kind=SolverError" in err
        for part in ("c=13 ", "h=0.04 ", "x_min=-72.28 ", "x_max=20 ",
                     "n=2308", "non-admissible"):
            assert part in err

    def test_non_admissible_seed_file_solve_fails_without_writing(self, tmp_path,
                                                                  capsys):
        # a good h = 0.01 front on c = 13's default domain seeds the same
        # coarse-mesh solve as above: the seeded path is judged by the same verdict
        seed = tmp_path / "seed.csv"
        assert run(["solve", "--c", "13", "--out", str(seed)]) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "13", "--h", "0.04", "--xmax", "20", "--seed-file",
                    str(seed), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for part in ("error kind=SolverError", "non-admissible", "c=13 ",
                     "n=2308: non-positive value at x=19.76"):
            assert part in err
        assert not out.exists()

    def test_newton_failure_names_its_c_and_grid(self, tmp_path, capsys):
        # perfbench's worker keeps the last 500 characters of stderr and
        # looks for the error class there
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "30", "--h", "0.04", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error kind=MaxIterationsError detail=no convergence "
                              "in 50 iterations at c=30, h=0.04, n=6888, residual ")
        assert len(err) < 300
        assert not out.exists()

    def test_past_the_u_form_reach_fails_without_writing(self, tmp_path, capsys):
        # the converged u(x) underflows to exact zeros in the right tail
        out = tmp_path / "p.csv"
        assert run(["solve", "--spectrum", "--c", "13.2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for part in ("error kind=SolverError", "non-admissible", "c=13.2 ", "n=9221"):
            assert part in err
        assert not out.exists()

    def test_direct_solve_at_large_c_is_admissible(self, tmp_path):
        # the seed's cut-off decays at the leading edge's rate c/2, so one
        # Newton solve lands on the positive, decreasing front here
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "10.23", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["u_at_zero"]) > 0.0
        assert int(header["crossing_count"]) == 1
        assert header["admissible"] == "True"
        assert run(["solve", "--c", "9.14", "--out", str(tmp_path / "q.csv")]) == 0

    @pytest.mark.parametrize("c, x_min", [("-10", "-100"), ("-3", "-60")])
    def test_closed_form_seed_on_a_wide_left_domain(self, c, x_min, tmp_path):
        # the c <= -3 seed stays finite where erfc(-x/sqrt(-c)) underflows
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", c, "--xmin", x_min, "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["xmin"]) == float(x_min)
        assert header["admissible"] == "True"

    def test_solve_with_spectrum_header(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "0", "--spectrum", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["lambda0"]) == pytest.approx(-1.5185, abs=2e-3)

    def test_lambda0_residual_in_headers(self, tmp_path):
        for argv in (["solve", "--c", "0", "--spectrum"],
                     ["spectrum", "--c", "0", "--k", "1"],
                     ["spectrum", "--c", "0", "--k", "3"]):
            out = tmp_path / "p.csv"
            assert run([*argv, "--out", str(out)]) == 0
            header, _ = read_csv(out)
            # ||T v - lambda0 v||_2 at roundoff: ||T||_inf ~ 4/h^2 = 4e4
            assert 0.0 < float(header["lambda0_residual"]) <= 1e-10

    def test_seed_file_roundtrip(self, tmp_path):
        out = tmp_path / "p.csv"
        run(["solve", "--c", "0", "--out", str(out)])
        p = load_profile(out)
        assert p.grid.n == len(p.u)
        out2 = tmp_path / "q.csv"
        assert run(["solve", "--c", "0.1", "--seed-file", str(out),
                    "--out", str(out2)]) == 0
        header, _ = read_csv(out2)
        assert float(header["u_at_zero"]) < 0.5191034  # decreasing in c

    def test_seed_file_moves_with_the_delayed_interface(self, tmp_path):
        # the c = 12 front seeds c = 12.05 shifted by -(12.05^2 - 12^2)/4, as
        # continuation predicts; left where it was, Newton does not converge
        seed, cold, seeded = (tmp_path / f"{name}.csv" for name in ("s", "cold", "seeded"))
        assert run(["solve", "--c", "12", "--out", str(seed)]) == 0
        assert run(["solve", "--c", "12.05", "--out", str(cold)]) == 0
        assert run(["solve", "--c", "12.05", "--seed-file", str(seed),
                    "--out", str(seeded)]) == 0
        assert np.abs(read_csv(seeded)[1]["u"] - read_csv(cold)[1]["u"]).max() <= 1e-10


class TestBranchCommand:
    def test_small_branch_csv(self, tmp_path, hm_profile):
        out = tmp_path / "branch.csv"
        assert run(["branch", "--cmin", "-1", "--cmax", "1", "--dc", "0.5",
                    "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert header["kind"] == "branch"
        cs = cols["c"]
        assert cs.min() == pytest.approx(-1.0) and cs.max() == pytest.approx(1.0)
        assert np.all(np.diff(cs) > 0)
        # crossing uniqueness is a c >= 0 statement; counts for c < 0 are
        # recorded but not constrained
        assert np.all(cols["crossing_count"][cs >= 0] == 1)
        assert np.all(np.diff(cols["u_at_zero"]) < 0)  # monotone in c
        assert np.all(cols["lambda0"] < 0)
        assert np.all(np.isfinite(cols["log_k"]))
        assert np.all(np.isfinite(cols["log_k_spread"]))
        # the c = 0 row is the fit of the c = 0 front
        [log_k0] = cols["log_k"][cs == 0.0]
        fit = quenchfront.fit_tail_coefficients(hm_profile)
        assert np.allclose(np.exp(log_k0), np.exp(fit.log_k), rtol=1e-12, atol=0.0)
        assert "alpha_plus" not in cols and "log_alpha_plus" not in cols

    @pytest.mark.parametrize("cmin, cmax", [("0", "1"), ("-1", "0")])
    def test_keeps_the_anchor_at_an_end_of_the_range(self, cmin, cmax, tmp_path):
        out = tmp_path / "branch.csv"
        assert run(["branch", "--cmin", cmin, "--cmax", cmax, "--dc", "0.5",
                    "--h", "0.04", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        assert np.count_nonzero(cols["c"] == 0.0) == 1
        assert cols["c"].min() == pytest.approx(float(cmin))
        assert cols["c"].max() == pytest.approx(float(cmax))

    def test_rejects_bad_range(self, capsys):
        assert run(["branch", "--cmin", "2", "--cmax", "-2"]) == 2
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_spectrum_command(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--c", "0", "--k", "3", "--out", str(out)]) == 0
        header, cols = read_csv(out)
        eigs = [float(t) for t in header["eigenvalues"].split(";")]
        assert len(eigs) == 3 and eigs[0] == pytest.approx(-1.5185, abs=2e-3)
        assert cols["ground_state"].max() == pytest.approx(1.0)

    def test_evolve_command(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "0", "--t-end", "5", "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert float(header["measured_rate"]) < -1.0
        assert cols["deviation"][-1] < cols["deviation"][0]
        assert int(header["steps"]) == 500 and float(header["step_s"]) > 0.0
        assert float(header["peak_growth"]) == max(cols["deviation"]) / cols["deviation"][0]

    def test_evolve_header_reports_the_stepper_set_up_time(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "0", "--h", "0.04", "--t-end", "0.1",
                    "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert 0.0 < float(header["factor_s"]) < 10.0
        assert int(header["steps"]) == 10

    @pytest.mark.parametrize("flags, t_end, expected", [
        (["--h", "0.04"], "5", -1.5185), (["--h", "0.04"], "0.1", -1.5185),
        # the tanh front's lambda0 is the c = 0 one scaled by eps^{2/3}
        (["--ramp", "tanh", "--eps", "0.01"], "0.1", 0.01 ** (2 / 3) * -1.5185)],
        ids=["linear", "linear-short", "tanh-short"])
    def test_evolve_header_compares_the_rate_with_lambda0(self, flags, t_end, expected,
                                                          tmp_path):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "0", *flags, "--t-end", t_end, "--out", str(out)]) == 0
        header, _ = read_csv(out)
        rate, lam0 = float(header["measured_rate"]), float(header["lambda0"])
        assert lam0 == pytest.approx(expected, rel=2e-3)
        gap, samples = float(header["rate_rel_gap"]), int(header["rate_samples"])
        if t_end == "0.1":   # too short a run to fit: the gap stays nan
            assert np.isnan(rate) and np.isnan(gap) and samples == 0
        else:
            assert gap == abs(rate - lam0) / abs(lam0) and gap <= 0.2
            assert samples >= 3

    def test_evolve_default_run_names_its_fit_window(self, tmp_path):
        # rate_samples counts the deviation samples measured_rate fitted, out
        # of the t_end / (dt * record_every) + 1 recorded: the default 30
        # time units at dt = 0.01 record 301
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "0", "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert len(cols["t"]) == 301
        assert 3 <= int(header["rate_samples"]) < 301
        assert np.isfinite(float(header["measured_rate"]))

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_evolve_runs_only_imex_cn(self, source, tmp_path, capsys):
        # argparse's choices refuse another --scheme; a config file has no
        # scheme key at all
        out = tmp_path / "e.csv"
        argv = ["evolve", "--c", "0", "--h", "0.04", "--t-end", "0.1", "--out", str(out)]
        if source == "flag":
            with pytest.raises(SystemExit) as exit_:
                run([*argv, "--scheme", "imex_euler"])
            assert exit_.value.code == 2
            assert "invalid choice: 'imex_euler'" in capsys.readouterr().err
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("scheme=imex_euler\n")
            assert run(["--config", str(cfg), *argv]) == 2
            err = capsys.readouterr().err
            assert "error kind=ValueError" in err and "unknown config key 'scheme'" in err
        assert not out.exists()
        assert run([*argv, "--scheme", "imex_cn"]) == 0
        written = out.read_text()
        assert "# scheme=imex_cn" in written
        assert "scheme" not in next(line for line in written.splitlines()
                                    if line.startswith("# config:"))

    @pytest.mark.parametrize("flags, named", [
        (["--t-end", "inf"], "t_end=inf"), (["--dt", "nan"], "dt=nan"),
        (["--dt", "inf"], "dt=inf"), (["--dt", "0.5", "--t-end", "0.2"], "dt=0.5 and t_end=0.2"),
        (["--dt", "1e-300", "--t-end", "1"], "dt=1e-300 and t_end=1 ")])
    def test_evolve_unrunnable_time_settings_rejected(self, flags, named, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "0", "--h", "0.04", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and named in err
        assert not out.exists()

    def test_evolve_blow_up_names_its_run(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--c", "12", "--dt", "0.2", "--t-end", "25",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=BlowUpError" in err and "blow-up at step" in err
        for named in ("c=12,", "dt=0.2,", "scheme=imex_cn,", "h=0.01,", "n=8448"):
            assert named in err
        assert len(err) < 300
        assert not out.exists()

    # measured gaps 3.6e-3 (the h = 0.04 mesh's lambda0 sits that far from
    # the stepper's) and 2.3e-5
    @pytest.mark.parametrize("flags, gap", [(["--c", "8", "--h", "0.04"], 1e-2),
                                            (["--c", "4"], 1e-3)],
                             ids=["c8-h0.04", "c4-h0.01"])
    def test_evolve_past_c4_stays_finite(self, flags, gap, tmp_path):
        # with the cubic explicit whole these blew up (c = 8 at step 117 on
        # h = 0.04, c = 4 at step 2,816 on h = 0.01); linearised about the
        # front they decay at lambda0
        out = tmp_path / "e.csv"
        assert run(["evolve", *flags, "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["rate_rel_gap"]) <= gap

    def test_evolve_tanh_perturbs_the_tanh_front(self, tmp_path):
        out = tmp_path / "et.csv"
        assert run(["evolve", "--ramp", "tanh", "--eps", "0.01", "--c", "0",
                    "--t-end", "1", "--out", str(out)]) == 0
        _, cols = read_csv(out)
        # the 1e-3 bump decays; a front of the wrong ramp would jump to O(1)
        assert cols["t"][1] > 0.0 and cols["deviation"][1] <= 2e-3

    def test_evolve_header_echoes_the_grid_solved_on(self, tmp_path):
        # the tanh front has its own grid, whatever the config's h says
        out = tmp_path / "et.csv"
        assert run(["evolve", "--ramp", "tanh", "--eps", "0.01", "--c", "0",
                    "--t-end", "0.1", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["h"]) == pytest.approx(0.05)
        assert (header["xmin"], header["xmax"], header["n"]) == ("-300", "300", "12001")
        assert " h=" not in config_line(out)   # it reads no h, so echoes none

    @pytest.mark.parametrize("flag", ["--h", "--tol"])
    def test_evolve_tanh_rejects_unread_flags(self, flag, tmp_path, capsys):
        out = tmp_path / "et.csv"
        assert run(["evolve", "--ramp", "tanh", "--eps", "0.01", "--c", "0",
                    flag, "0.02", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error kind=ValueError" in err and f"not use the given {flag[2:]}" in err
        assert not out.exists()

    def test_evolve_tanh_rejects_unread_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ramp=tanh\nh=0.02\nxmin=-50\nxmax=50\nseed_file=p.csv\n")
        assert run(["--config", str(cfg), "evolve", "--eps", "0.01",
                    "--out", str(tmp_path / "et.csv")]) == 2
        assert "not use the given xmin, xmax, h, seed_file" in capsys.readouterr().err

    def test_evolve_config_file_bad_ramp_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ramp=step\n")
        assert run(["--config", str(cfg), "evolve", "--c", "0", "--t-end", "0.1",
                    "--out", str(tmp_path / "e.csv")]) == 2
        assert "error kind=ValueError" in capsys.readouterr().err

    def test_compare_tanh_command(self, tmp_path):
        out = tmp_path / "ct.csv"
        assert run(["compare-tanh", "--eps", "0.01", "--c", "0",
                    "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert float(header["sup_gap"]) <= 0.05 * 0.01 ** (1.0 / 3.0)
        assert "interface" in out.read_text()
        assert np.allclose(cols["gap"], cols["u_tanh"] - cols["u_inner_scaled"])
        assert (header["xmin"], header["xmax"], header["n"]) == ("-300", "300", "12001")

    @pytest.mark.parametrize("flag", ["--h", "--tol"])
    def test_compare_tanh_rejects_unread_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["compare-tanh", "--eps", "0.01", "--c", "0", flag, "0.02"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_compare_tanh_rejects_unread_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h=0.02\ntol=1e-9\n")
        assert run(["--config", str(cfg), "compare-tanh", "--eps", "0.01",
                    "--c", "0", "--out", str(tmp_path / "ct.csv")]) == 2
        assert "not use the given h, tol" in capsys.readouterr().err

    @pytest.mark.parametrize("config, argv, command, unread", [
        ("ramp=tanh\neps=0.01\n", ["solve", "--c", "0", "--h", "0.04"], "solve", "eps, ramp"),
        ("ramp=tanh\neps=0.01\n", ["spectrum", "--c", "0", "--k", "2", "--h", "0.04"],
         "spectrum", "eps, ramp"),
        ("ramp=tanh\neps=0.01\n", ["branch", "--cmin", "0", "--cmax", "0.5", "--h", "0.04"],
         "branch", "eps, ramp"),
        ("ramp=banana\n", ["solve", "--c", "0", "--h", "0.04"], "solve", "ramp"),
        ("ramp=linear\neps=0.01\n", ["solve", "--c", "0", "--h", "0.04"], "solve", "eps, ramp"),
        # solve has no --ramp: it reads no ramp, even the one it solves
        ("ramp=linear\n", ["solve", "--c", "0", "--h", "0.04"], "solve", "ramp"),
        ("", ["evolve", "--c", "0", "--h", "0.04", "--t-end", "0.1", "--eps", "0.01"],
         "evolve --ramp linear", "eps"),
        ("ramp=linear\n", ["compare-tanh", "--eps", "0.01", "--c", "0"], "compare-tanh", "ramp"),
        ("ramp=tanh\n", ["compare-tanh", "--eps", "0.01", "--c", "0"], "compare-tanh", "ramp"),
    ], ids=["solve", "spectrum", "branch", "solve-bad-ramp", "solve-eps", "solve-linear-ramp",
            "evolve-linear-eps", "compare-tanh-linear", "compare-tanh-tanh"])
    def test_unread_ramp_keys_refused(self, config, argv, command, unread, tmp_path, capsys):
        # the header would echo a ramp or eps the command never read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        assert run(["--config", str(cfg), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error kind=ValueError detail={command} " in err
        assert err.rstrip().endswith(f"it does not use the given {unread}")
        assert not out.exists()

    @pytest.mark.parametrize("config, argv, unread", [
        ("xmin=-40\nxmax=30\n", ["branch", "--cmin", "0", "--cmax", "0.5", "--h", "0.04"],
         "xmin, xmax"),
        ("k=3\ndt=0.5\ncmin=-9\n", ["solve", "--h", "0.04"], "cmin, k, dt"),
        ("h=0.02\ntol=1e-6\n", ["validate", "--criteria", "9"], "h, tol")],
        ids=["branch-domain", "solve-k-dt-cmin", "validate-h-tol"])
    def test_config_keys_a_command_does_not_read_refused(self, config, argv, unread,
                                                          tmp_path, capsys):
        # the header would echo values that shaped nothing in the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "o.csv"
        assert run(["--config", str(cfg), *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error kind=ValueError detail={argv[0]} reads only ")
        assert captured.err.rstrip().endswith(f"it does not use the given {unread}")
        assert "PASS" not in captured.out and not out.exists()

    def test_spectrum_has_no_delta_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run(["spectrum", "--delta", "0.5"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --delta 0.5" in capsys.readouterr().err

    def test_spectrum_and_evolve_take_the_front_flags(self, tmp_path):
        # the domain and seed flags of solve, which both commands read
        seed = tmp_path / "seed.csv"
        front = ["--c", "0", "--h", "0.04", "--xmin", "-20", "--xmax", "14"]
        assert run(["solve", *front, "--out", str(seed)]) == 0
        spec, evol = tmp_path / "s.csv", tmp_path / "e.csv"
        for argv, out in ((["spectrum", "--k", "1"], spec), (["evolve", "--t-end", "0.1"], evol)):
            assert run([*argv, *front, "--seed-file", str(seed), "--out", str(out)]) == 0
            assert (f" xmin=-20 xmax=14 h=0.040000000000000001 tol=1e-10 seed_file={seed} "
                    in config_line(out))
        x = read_csv(spec)[1]["x"]
        header = read_csv(evol)[0]
        assert (x[0], x[-1]) == (-20.0, 14.0) and (header["xmin"], header["xmax"]) == ("-20", "14")

    @pytest.mark.parametrize("argv", [
        ["solve", "--h", "0.04"], ["branch", "--cmin", "-0.5", "--cmax", "0.5", "--h", "0.04"],
        ["spectrum", "--k", "1", "--h", "0.04"], ["evolve", "--h", "0.04", "--t-end", "0.1"],
        ["evolve", "--ramp", "tanh", "--eps", "0.01", "--t-end", "0.1"],
        ["compare-tanh", "--eps", "0.01"], ["validate", "--criteria", "4"]],
        ids=["solve", "branch", "spectrum", "evolve-linear", "evolve-tanh", "compare-tanh",
             "validate"])
    def test_each_command_reads_exactly_its_settings(self, argv, tmp_path, monkeypatch):
        # a flag the command does not read, or a setting it reads without a
        # flag, shows as a difference; the echo's own reads do not count
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        made = []

        class Recording(RunConfig):
            def __post_init__(self):
                super().__post_init__()
                self.seen = set()
                made.append(self)

            def __getattribute__(self, name):
                if name in fields:
                    object.__getattribute__(self, "seen").add(name)
                return object.__getattribute__(self, name)

            def echo(self):
                seen = set(self.seen)
                try:
                    return super().echo()
                finally:
                    self.seen = seen

        monkeypatch.setattr(cli, "RunConfig", Recording)
        assert run([*argv, "--out", str(tmp_path / "o.csv")]) == 0
        [cfg] = made
        assert cfg.seen == cfg.read

    def test_compare_tanh_eps_validation(self, capsys):
        assert run(["compare-tanh", "--eps", "0.5", "--c", "0"]) == 2

    def test_validate_subset(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run(["validate", "--criteria", "9,11", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS  9" in printed and "PASS 11" in printed
        assert out.read_text().count("PASS") == 2


@pytest.mark.parametrize("criteria", ["99", "0", "1,12"])
def test_validate_rejects_unknown_criterion(criteria, capsys):
    assert run(["validate", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert "error kind=ValueError" in captured.err and "numbered 1-11" in captured.err
    assert "PASS" not in captured.out


def _written_under_blas_threads(tmp_path, argv):
    """The bytes of the file that ``argv`` writes under one BLAS thread and
    under two, each from a fresh interpreter."""
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(quenchfront.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "quenchfront.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        written.append(out.read_bytes())
    return written


def test_spectrum_output_does_not_depend_on_blas_threads(tmp_path):
    # a BLAS dot product or norm sums in an order set by its thread count;
    # the written file must come out the same under one thread and two
    one, two = _written_under_blas_threads(tmp_path, ["solve", "--spectrum", "--c", "-200"])
    assert one == two


def test_evolve_output_does_not_depend_on_blas_threads(tmp_path):
    # the stepper's sweeps and arithmetic must not read the thread count
    # either; only the two wall-time lines may differ
    one, two = (written.splitlines() for written in _written_under_blas_threads(
        tmp_path, ["evolve", "--c", "1", "--h", "0.04", "--t-end", "2"]))
    timed = (b"# step_s=", b"# factor_s=")
    assert sum(line.startswith(timed) for line in one) == 2
    assert ([line for line in one if not line.startswith(timed)]
            == [line for line in two if not line.startswith(timed)])


def test_cold_import_loads_no_interpolate_optimize_or_special(tmp_path):
    # a fresh interpreter, so no module imported by the tests counts; two
    # short solves (c = 0 has no drift term, c = -1 builds the D1 band) and
    # a short evolve (the stepper and its lambda0 header) then show that no
    # operation imports them lazily either.  scipy's compiled
    # LAPACK module (scipy.linalg._flapack) is allowed, the scipy.linalg
    # package and numpy.ma are not
    probe = ("import sys, quenchfront.cli; "
             "codes = [quenchfront.cli.main(['solve', '--c', c, '--h', '0.04', "
             "'--out', sys.argv[1]]) for c in ('0', '-1')]; "
             "codes.append(quenchfront.cli.main(['evolve', '--c', '0', '--h', '0.04', "
             "'--t-end', '0.1', '--out', sys.argv[1]])); "
             "print(codes, sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'interpolate'], ['scipy', 'optimize'], "
             "['scipy', 'special'], ['decimal'], ['numpy', 'ma']) "
             "or m == 'scipy.linalg'))")
    env = dict(os.environ, PYTHONPATH=str(Path(quenchfront.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "p.csv")], env=env,
                         check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_cold_solve_leaves_the_acceptance_suite_unloaded(tmp_path):
    # only validate reads the suite; every other command skips compiling it
    probe = ("import sys, quenchfront.cli; "
             "code = quenchfront.cli.main(['solve', '--c', '0', '--h', '0.04', "
             "'--out', sys.argv[1]]); "
             "print(code, 'quenchfront.acceptance' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(quenchfront.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "p.csv")], env=env,
                         check=True, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "0 False"


def test_commands_and_fits_call_no_numpy_lapack(tmp_path, monkeypatch, accept_ctx):
    # numpy's least-squares path runs dgelsd in numpy's own bundled LAPACK,
    # whose first call raises the peak RSS by about 1.2 MB; every fit is a
    # closed-form slope on numpy sums and every solve goes through scipy
    def refuse(*args, **kwargs):
        raise AssertionError("numpy's LAPACK least squares was called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    out = str(tmp_path / "out.csv")
    for argv in (["evolve", "--t-end", "2", "--h", "0.04"], ["solve", "--spectrum"],
                 ["spectrum"], ["branch", "--cmin", "-2", "--cmax", "1", "--h", "0.04"],
                 ["compare-tanh"]):
        assert run([*argv, "--out", out]) == 0, argv
    assert acceptance.criterion_2(accept_ctx).measured["decay_k"] > 0.0
    assert acceptance.criterion_9(accept_ctx).passed


def test_sources_fit_and_solve_without_numpy_linalg():
    # the same claim read off the sources: no np.polyfit, no numpy.linalg
    # routine (its LinAlgError may be subclassed) and no @ matrix product
    found = []
    for path in sorted(Path(quenchfront.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "polyfit" or (node.attr != "LinAlgError"
                                               and isinstance(node.value, ast.Attribute)
                                               and node.value.attr == "linalg")):
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert found == []


def test_parser_accepts_every_benchmark_command(monkeypatch):
    # perfbench/run.py builds each workload's command lines (evolve's pass
    # --scheme imex_cn); a flag or choice the parser dropped would fail the
    # benchmark's operations, and fails here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = load_perfbench("run")
    rng = random.Random(1)
    ops = [*bench.branch_ops(rng), *bench.evolve_ops(rng, {}), *bench.solve_ops(rng)]
    assert {op.argv[0] for op in ops} == {"branch", "evolve", "solve", "spectrum",
                                          "compare-tanh"}
    parser = cli.build_parser()
    for op in ops:
        assert parser.parse_args(op.argv).command == op.argv[0], op.label
