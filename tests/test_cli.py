import numpy as np
import pytest

from quenchfront import cli
from quenchfront.cli import RunConfig, load_profile, main, read_csv, write_csv


def run(argv):
    return main(argv)


class TestConfig:
    def test_file_then_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delta=0.2\nc=1.5\n# a comment\n\n")
        cfg = RunConfig.from_file(cfg_file)
        assert cfg.delta == 0.2 and cfg.c == 1.5
        cfg.apply("delta", "0.3")
        assert cfg.delta == 0.3

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("not_a_key=1\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(cfg_file)

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delta 0.2\n")
        with pytest.raises(ValueError):
            RunConfig.from_file(cfg_file)

    def test_echo_contains_effective_values(self):
        cfg = RunConfig(delta=0.25)
        assert "delta=0.25" in cfg.echo()


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, "profile", {"c": 0.0, "note": "x"},
                  {"x": np.array([0.0, 1.0]), "u": np.array([3.0, 4.0])},
                  RunConfig())
        header, cols = read_csv(path)
        assert header["kind"] == "profile"
        assert cols["u"][1] == 4.0

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

    def test_solve_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["solve", "--c", "0", "--out", str(out1)])
        run(["solve", "--c", "0", "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_margin_validation_error(self, tmp_path, capsys):
        code = run(["solve", "--c", "0", "--xmax", "2",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error kind=MarginError" in err

    def test_stalled_fallback_reports_where_it_stopped(self, tmp_path, capsys):
        # the seed converges to a non-admissible profile and the fallback
        # continuation from c = 0 stalls near c = -103.0 on this coarse mesh
        code = run(["solve", "--c", "-200", "--h", "0.04",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error kind=SolverError" in err
        for part in ("c=-200 ", "h=0.04 ", "x_min=-25 ", "x_max=94.56 ",
                     "n=2990", "stopped at c=-103.0", "non-admissible"):
            assert part in err

    def test_direct_solve_with_negative_tail_falls_back(self, tmp_path):
        # Newton from the heuristic seed leaves non-positive nodes (~ -1e-100)
        # in the decayed right tail here; continuation from c = 0 takes over
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "10.23", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["u_at_zero"]) > 0.0
        assert int(header["crossing_count"]) == 1
        assert header["admissible"] == "True"
        assert run(["solve", "--c", "9.14", "--out", str(tmp_path / "q.csv")]) == 0

    def test_solve_with_spectrum_header(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["solve", "--c", "0", "--spectrum", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert float(header["lambda0"]) == pytest.approx(-1.5185, abs=2e-3)

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


class TestBranchCommand:
    def test_small_branch_csv(self, tmp_path):
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

    def test_compare_tanh_command(self, tmp_path):
        out = tmp_path / "ct.csv"
        assert run(["compare-tanh", "--eps", "0.01", "--c", "0",
                    "--out", str(out)]) == 0
        header, cols = read_csv(out)
        assert float(header["sup_gap"]) <= 0.05 * 0.01 ** (1.0 / 3.0)
        assert "interface" in out.read_text()
        assert np.allclose(cols["gap"], cols["u_tanh"] - cols["u_inner_scaled"])

    def test_compare_tanh_eps_validation(self, capsys):
        assert run(["compare-tanh", "--eps", "0.5", "--c", "0"]) == 2

    def test_validate_subset(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run(["validate", "--criteria", "9,11", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS  9" in printed and "PASS 11" in printed
        assert out.read_text().count("PASS") == 2
