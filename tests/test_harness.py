import json
import math

import numpy as np
import pytest

import helmfft.cli
import helmfft.harness
import helmfft.solver
from helmfft.assembly import build_rhs, fold_dirichlet, residual_l2
from helmfft.cli import main, parse_config_file
from helmfft.harness import (CSV_COLUMNS, MetricsRow, emit_table, make_problem,
                             measure, observed_orders, run_convergence,
                             run_scaling)
from helmfft.solver import SolverConfig
from helmfft.stencil import SchemeKind, coefficient_table


def sample_row():
    return MetricsRow(scheme="4", grid="16^3", max_err=1.2345678e-3,
                      l2_err=2.5e-4, l2_res=3.0e-13, setup_s=0.01,
                      transform_s=0.02, exchange_s=0.0, tridiag_s=0.015,
                      total_s=0.05)


class TestObservedOrders:
    def test_exact_power_law(self):
        hs = [0.1, 0.05, 0.025]
        errs = [h**4 for h in hs]
        orders = observed_orders(errs, hs)
        assert all(o == pytest.approx(4.0, rel=1e-12) for o in orders)

    def test_uneven_refinement_uses_true_ratio(self):
        h0, h1 = math.pi / 126, math.pi / 251
        errs = [h0**2, h1**2]
        (order,) = observed_orders(errs, [h0, h1])
        assert order == pytest.approx(2.0, rel=1e-12)


class TestRunConvergence:
    def test_single_grid_no_order(self):
        rows, orders = run_convergence(SchemeKind.SECOND_ORDER, "variable-k", [12])
        assert len(rows) == 1
        assert orders == []
        assert rows[0].l2_res < 1e-10

    @pytest.mark.parametrize("sizes", [[32, 16], [6, 6]])
    def test_grids_must_ascend(self, sizes):
        with pytest.raises(ValueError):  # equal sizes give no order: log(h/h) = 0
            run_convergence(SchemeKind.SECOND_ORDER, "variable-k", sizes)

    def test_two_grids_give_order(self):
        # grids resolving the k ~ 19 oscillation, past the preasymptotic range
        rows, orders = run_convergence(SchemeKind.SECOND_ORDER, "variable-k",
                                       [48, 96])
        assert len(rows) == 2 and len(orders) == 1
        assert 1.7 <= orders[0] <= 2.4

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            make_problem("mystery", SchemeKind.SECOND_ORDER, 8)

    def test_convdiff_scheme_pairing_enforced(self):
        with pytest.raises(ValueError):
            make_problem("convdiff", SchemeKind.SECOND_ORDER, 8)


class TestRunScaling:
    def test_single_worker_row(self):
        rows = run_scaling(SchemeKind.SECOND_ORDER, "variable-k", 12, [1])
        assert len(rows) == 1
        assert rows[0].grid.endswith("/w1")

    def test_outputs_invariant_across_workers(self):
        rows = run_scaling(SchemeKind.SECOND_ORDER, "variable-k", 12, [1, 2, 4],
                           mode="shared")
        assert len(rows) == 3
        errs = {row.max_err for row in rows}
        assert len(errs) == 1  # identical numerics, identical metrics

    def test_partitioned_mode(self):
        rows = run_scaling(SchemeKind.FOURTH_ORDER, "variable-k", 12, [1, 2],
                           mode="partitioned")
        assert rows[1].exchange_s >= 0.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_scaling(SchemeKind.SECOND_ORDER, "variable-k", 8, [1], mode="magic")

    def test_a_one_ulp_drift_between_layouts_raises(self, monkeypatch):
        def drifting(problem, config, label_suffix=""):
            row, solution = measure(problem, config, label_suffix)
            if label_suffix == "/w2":
                solution.values.flat[7] = np.nextafter(solution.values.flat[7], np.inf)
            return row, solution

        monkeypatch.setattr(helmfft.harness, "measure", drifting)
        with pytest.raises(AssertionError):
            run_scaling(SchemeKind.SECOND_ORDER, "variable-k", 8, [1, 2])


class TestEmitTable:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_table([], "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_row_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_table([sample_row()], "csv", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "4" and cells[1] == "16^3"
        assert cells[2] == "1.2345678e-03"
        assert len(cells) == len(CSV_COLUMNS)

    def test_markdown_table(self, tmp_path):
        path = tmp_path / "table.md"
        emit_table([sample_row()], "md", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("| scheme |")
        assert set(lines[1].replace("|", "")) == {"-"}
        assert lines[2].count("|") == len(CSV_COLUMNS) + 1

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_table([], "xml", tmp_path / "t.xml")


class TestMeasure:
    def test_metrics_match_direct_checks(self):
        problem = make_problem("variable-k", SchemeKind.FOURTH_ORDER, 16)
        row, solution = measure(problem, SolverConfig())
        assert row.scheme == "4"
        assert row.grid == "16^3"
        assert row.l2_res <= 1e-10
        assert row.total_s >= row.transform_s

    def test_rhs_built_once_residual_unchanged(self, monkeypatch):
        problem = make_problem("variable-k", SchemeKind.SIXTH_ORDER, 12)
        calls = []

        def counting(*args):
            calls.append(args)
            return build_rhs(*args)

        monkeypatch.setattr(helmfft.harness, "build_rhs", counting)
        monkeypatch.setattr(helmfft.solver, "build_rhs", counting)
        row, solution = measure(problem, SolverConfig())
        assert len(calls) == 1
        # the residual of a separately built and folded right-hand side
        rhs = build_rhs(problem.scheme, problem.source, problem.profile, problem.grid)
        table = coefficient_table(problem.scheme, problem.profile, problem.grid)
        folded = fold_dirichlet(rhs, problem.boundary, table, problem.grid)
        assert row.l2_res == residual_l2(solution, folded, table, problem.grid)
        assert row.setup_s <= row.total_s


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# study setup\nscheme=4\ngrid=24\nworkers = 2\n\nmode=shared\n")
        values = parse_config_file(path)
        assert values == {"scheme": "4", "grid": "24", "workers": "2",
                          "mode": "shared"}

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scheme 4\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestCli:
    def test_solve_small_grid(self, capsys):
        assert main(["solve", "--scheme", "2", "--problem", "variable-k",
                     "--grid", "10"]) == 0
        out = capsys.readouterr().out
        assert "10^3" in out

    def test_shared_solve_prints_the_sequential_errors(self, capsys, monkeypatch):
        modes, real = [], helmfft.cli.measure
        monkeypatch.setattr(helmfft.cli, "measure",
                            lambda p, config: modes.append(config.mode) or real(p, config))
        columns = {}
        for mode in (["seq"], ["shared", "--workers", "2"]):
            assert main(["solve", "--scheme", "4", "--grid", "10", "--mode", *mode]) == 0
            header, row = capsys.readouterr().out.split("\n")[:2]
            columns[mode[0]] = dict(zip(header.split(), row.split()))
        assert modes == [helmfft.solver.Sequential(), helmfft.solver.SharedWorkers(2)]
        for name in ("max_err", "l2_err", "l2_res"):
            assert columns["shared"][name] == columns["seq"][name], name

    def test_solve_with_oracle(self):
        assert main(["solve", "--scheme", "4", "--problem", "variable-k",
                     "--grid", "6", "--oracle"]) == 0

    def test_oracle_size_limit(self, capsys, monkeypatch):
        calls, real = [], helmfft.cli.measure
        monkeypatch.setattr(helmfft.cli, "measure", lambda *args: calls.append(args) or real(*args))
        assert main(["solve", "--grid", "12", "--oracle"]) == 1
        captured = capsys.readouterr()
        assert calls == [] and captured.out == ""  # refused before the solve
        payload = json.loads(captured.err.strip())
        assert "8^3" in payload["detail"]

    def test_convergence_verb_with_output(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--scheme", "2", "--problem", "variable-k",
                     "--grids", "10,20", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(",".join(CSV_COLUMNS))
        assert "observed order" in capsys.readouterr().out

    def test_convergence_equal_grids_exit_with_one_json_line(self, capsys):
        assert main(["convergence", "--scheme", "2", "--grids", "6,6"]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and json.loads(err[0])["error"] == "ValueError"

    def test_convergence_failure_on_one_grid_names_its_mode(self, capsys, monkeypatch):
        from helmfft.errors import SingularSystemError

        def failing(problem, config, label_suffix=""):
            if problem.grid.n_x == 10:
                raise SingularSystemError("vanishing pivot", n=1, m=2)
            return measure(problem, config, label_suffix)

        monkeypatch.setattr(helmfft.harness, "measure", failing)
        assert main(["convergence", "--scheme", "2", "--problem", "variable-k",
                     "--grids", "8,10,16"]) == 2
        captured = capsys.readouterr()
        assert "observed order" not in captured.out
        payload = json.loads(captured.err.strip())
        assert payload["error"] == "singular-system"
        assert (payload["n"], payload["m"]) == (1, 2)

    def test_scaling_verb(self, capsys):
        code = main(["scaling", "--scheme", "2", "--problem", "variable-k",
                     "--grid", "12", "--worker-list", "1,2"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("scheme=2\nproblem=variable-k\ngrid=10\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        assert "10^3" in capsys.readouterr().out

    def test_config_file_format_key_is_the_flag_name(self, tmp_path, capsys):
        cfg, out = tmp_path / "s.cfg", tmp_path / "row.md"
        cfg.write_text("scheme=2\nproblem=variable-k\ngrid=8\nformat=md\n")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("| scheme |")
        assert set(lines[1].replace("|", "")) == {"-"}
        capsys.readouterr()
        cfg.write_text("grid=8\nfmt=md\n")  # not a flag name
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "fmt" in json.loads(capsys.readouterr().err.strip())["detail"]

    @pytest.mark.parametrize("key, value", [("mode", "bogus"), ("format", "xml"),
                                            ("scheme", "9"), ("problem", "nope"),
                                            ("workers", "two"), ("oracle", "bogus"),
                                            ("grid", "8,8,8")])
    def test_config_file_values_checked_like_flags(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"grid=8\n{key}={value}\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and key in json.loads(err[0])["detail"]
        with pytest.raises(SystemExit) as flag_exit:  # the same value as a flag
            main(["solve", "--grid", "8", f"--{key}", value])
        assert flag_exit.value.code == 2

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("grid=10\nscheme=2\nproblem=variable-k\n")
        assert main(["solve", "--config", str(cfg), "--grid", "8"]) == 0
        assert "8^3" in capsys.readouterr().out

    def test_config_key_without_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("grid=8\ntransform=per-plane\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "transform" in payload["detail"]

    def test_error_is_machine_readable(self, capsys):
        assert main(["solve", "--grid", "0"]) == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "ValueError"

    def test_resonance_maps_to_distinct_exit_code(self, capsys, monkeypatch):
        from helmfft import cli
        from helmfft.errors import SingularSystemError

        def boom(problem, config, label_suffix=""):
            raise SingularSystemError("vanishing pivot", n=3, m=5)

        monkeypatch.setattr(cli, "measure", boom)
        assert main(["solve", "--scheme", "2", "--problem", "variable-k",
                     "--grid", "8"]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "singular-system"
        assert (payload["n"], payload["m"]) == (3, 5)

    def test_markdown_output(self, tmp_path):
        out = tmp_path / "row.md"
        assert main(["solve", "--scheme", "2", "--problem", "variable-k",
                     "--grid", "8", "--format", "md", "--out", str(out)]) == 0
        assert out.read_text().startswith("| scheme |")

    def test_partitioned_mode_from_cli(self, capsys):
        assert main(["solve", "--scheme", "2", "--problem", "variable-k",
                     "--grid", "12", "--mode", "partitioned", "--parts", "2",
                     "--workers", "2"]) == 0
        assert "12^3" in capsys.readouterr().out
