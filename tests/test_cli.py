"""The batch front end: config validation, exit codes, artifacts, determinism."""

import csv
import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import conjresp
from conjresp import contract_inverse, flow, gradient, load_field, solve_for_field
from conjresp import cli
from conjresp.cli import main
from conjresp.config import build_grid, build_map, build_rho, build_strategy, load_config
from conjresp.fields import flux_of_form


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def doubling_config(**overrides):
    cfg = {
        "scenario_id": "doubling-cos",
        "grid": {"resolution": [128]},
        "map": {"kind": "linear", "A": [[2]]},
        "rho": {"modes": [[1, 1.0, 0.0]]},
        "strategy": "canonical",
        "verify": {"t_values": [1e-2, 5e-3, 2.5e-3], "steps": 16,
                   "transfer_t": 0.02, "transfer_resolution": 256},
    }
    cfg.update(overrides)
    return cfg


# per dimension, for the solve cases: a map with a non-flat density, and strategy.custom
SOLVE_INPUTS = {
    1: ({"kind": "custom", "A": [[1]], "eta_modes": [[1, 0.3, 0.1]]}, {"harmonic": [0.1]}),
    2: ({"kind": "custom", "A": [[2, 1], [1, 1]],
         "eta_modes": [[1, 0, 0.2, 0.1], [1, -2, 0.05, -0.1]]},
        {"harmonic": [0.1, -0.05], "alpha_modes": [[1, 2, 0.03, 0.01]]}),
}


class TestSolve:
    @pytest.mark.parametrize("dim", [1, 2], ids=["1d-128", "2d-32x16"])
    @pytest.mark.parametrize("strategy", ["canonical", "gradient", "custom"])
    def test_written_files_are_the_library_solve(self, tmp_path, strategy, dim):
        cfg = doubling_config() if dim == 1 else _cat_config()
        cfg["map"], custom = SOLVE_INPUTS[dim]
        cfg["rho"]["center"] = True  # mean-zero against the density
        cfg["strategy"] = {"custom": custom} if strategy == "custom" else strategy
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        potential = ["u"] if strategy == "gradient" else [f"theta{i}" for i in range(dim)]
        names = potential + [f"X{i}" for i in range(dim)]
        assert sorted(p.name for p in out.iterdir()) == sorted(f"solve_{n}.json" for n in names)

        run = load_config(path)
        grid = build_grid(run)
        omega = build_map(run, grid).density
        X = solve_for_field(build_rho(run, grid, omega), omega, build_strategy(run, grid))
        written = [load_field(out / f"solve_X{i}.json").values for i in range(dim)]
        assert all(np.array_equal(w, x.values) for w, x in zip(written, X.components))
        loaded = [load_field(out / f"solve_{n}.json") for n in potential]
        rebuilt = (gradient(loaded[0]) if strategy == "gradient"
                   else contract_inverse(flux_of_form(loaded), omega))
        assert all(np.array_equal(r.values, w) for r, w in zip(rebuilt.components, written))

    def test_theta_files_hold_the_coefficients_of_dx_and_dy(self, tmp_path):
        # a custom strategy adds h0 dx + h1 dy + d alpha to the canonical theta
        # = theta0 dx + theta1 dy, so each written file moves by its own piece
        cfg = _cat_config()
        cfg["map"], custom = SOLVE_INPUTS[2]
        cfg["rho"]["center"] = True
        written = []
        for strategy in ("canonical", {"custom": custom}):
            path = write_config(tmp_path, dict(cfg, strategy=strategy))
            out = tmp_path / f"out{len(written)}"
            assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
            written.append([load_field(out / f"solve_theta{i}.json").values for i in range(2)])
        canonical, shifted = written
        alpha = build_strategy(load_config(path), build_grid(load_config(path))).alpha
        for i, h in enumerate(custom["harmonic"]):
            assert np.array_equal(shifted[i], (canonical[i] + h) + alpha.derivative(i).values)

    def test_doubling_canonical_writes_oracle_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, doubling_config())
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        field = load_field(out / "solve_X0.json")
        x = np.arange(128) / 128
        assert np.max(np.abs(field.values + np.sin(2 * np.pi * x) / (2 * np.pi))) <= 1e-12
        assert (out / "solve_theta0.json").exists()
        captured = capsys.readouterr()
        assert "div(eta X) + rho eta" in captured.out

    def test_nonzero_mean_rho_exits_2(self, tmp_path, capsys):
        cfg = doubling_config()
        cfg["rho"] = {"modes": [[1, 1.0, 0.0], [0, 0.1, 0.0]]}  # adds constant 0.1
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "mean-zero" in capsys.readouterr().err

    @pytest.mark.parametrize("eta_modes", [[[2, 0.0005, 0.0], [1, 0.0, 0.0003]],
                                           [[1, 0.3, 0.1]]])
    def test_round_off_gradient_request_solves_to_zero(self, tmp_path, capsys, eta_modes):
        # a centred constant rho leaves max|rho eta| ~ 1e-18, mostly a mean that
        # no u reaches, so no CG step can reduce it
        cfg = doubling_config(grid={"resolution": [64]},
                              map={"kind": "custom", "A": [[1]], "eta_modes": eta_modes},
                              rho={"modes": [[0, 0.007, 0.0]], "center": True},
                              strategy="gradient")
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        for name in ("u", "X0"):
            assert load_field(out / f"solve_{name}.json").max_abs == 0.0

    def test_gradient_with_warped_density(self, tmp_path, capsys):
        cfg = doubling_config()
        cfg["scenario_id"] = "gradient-warped"
        cfg["grid"] = {"resolution": [256]}
        cfg["map"] = {"kind": "custom", "A": [[1]], "eta_modes": [[1, 0.5, 0.0]]}
        cfg["rho"] = {"modes": [[2, 1.0, 0.0]]}
        cfg["strategy"] = "gradient"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert (out / "solve_u.json").exists()
        line = capsys.readouterr().out
        relative = float(line.strip().split("relative ")[1].rstrip(")"))
        assert relative <= 1e-8

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_under_resolved_warped_density_exits_3_before_writing(self, tmp_path, capsys,
                                                                   command):
        # tail/peak 4.7e-2 at N = 64: the map is refused where it is built
        cfg = doubling_config(grid={"resolution": [64]},
                              map={"kind": "warped_doubling",
                                   "generator_modes": [[4, 0.04, 0.0]]})
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "under-resolved" in err and "4.7e-02" in err and "raise N" in err
        assert not any(out.iterdir())

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, doubling_config(output={"format": "csv"}))
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        text = (out / "solve_X0.csv").read_text()
        assert text.splitlines()[0] == "x1,value"

    def test_format_flag_exits_2_naming_itself(self, tmp_path, capsys):
        # output.format is the one place the field format is set
        cfg = write_config(tmp_path, doubling_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, "--out", str(out), "--format", "csv"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_the_parser_is_built_once_per_process(self, tmp_path):
        cfg = write_config(tmp_path, doubling_config())
        parser = cli._build_parser()
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert cli._build_parser() is parser

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = doubling_config()
        cfg["rho"]["centre"] = True  # typo for "center"
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "centre" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, entry, resolution", [
        ("solve", "rho.modes", [64, 0.0, 1.0], [128]),  # k = N/2: im vanishes on the grid
        ("solve", "rho.modes", [-200, 1.0, 0.0], [256]),  # would alias to k = 56
        ("verify", "map.eta_modes", [1, 8, 0.1, 0.0], [32, 16]),
        ("sweep", "rho.modes", [20, 1.0, 0.0], [128]),  # fits 128 but not a resolution 32
    ])
    def test_mode_the_grid_cannot_hold_exits_2_naming_it(self, tmp_path, capsys, command,
                                                         key, entry, resolution):
        cfg = _doubling_sweep_config() if command == "sweep" else doubling_config()
        if len(resolution) == 2:
            cfg = _cat_config()
            cfg["map"] = {"kind": "custom", "A": [[2, 1], [1, 1]], "eta_modes": [entry]}
        else:
            cfg["grid"]["resolution"] = resolution
            cfg["rho"]["modes"] = [entry]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"{key}: mode entry {json.dumps(entry)}" in err
        assert "below N/2" in err and not out.exists()


class TestVerify:
    def test_flow_map_past_its_term_cap_exits_3_naming_t(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(flow, "SERIES_TERMS", 3)
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, doubling_config()),
                     "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence error: the flow map at t = 0.0025 did not converge")
        assert "after 3 terms" in err and not any(out.iterdir())

    def test_doubling_scenario_passes(self, tmp_path):
        cfg = write_config(tmp_path, doubling_config())
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["response"]["passed"] and report["derivative"]["passed"]
        assert report["transfer"]["residual"] <= 1e-4
        assert 1.8 <= report["response"]["fitted_order"] <= 2.3

    def test_identity_map_scenario(self, tmp_path):
        cfg = doubling_config()
        cfg["scenario_id"] = "identity"
        cfg["map"] = {"kind": "linear", "A": [[1]]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["transfer"] is None  # identity is not expanding
        assert max(report["derivative"]["error"]) <= 1e-10

    def test_degenerate_t_sweep_fails(self, tmp_path, capsys):
        cfg = doubling_config()
        cfg["verify"]["t_values"] = [0.5]
        path = write_config(tmp_path, cfg)
        code = main(["verify", "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 4
        assert "failed" in capsys.readouterr().err

    def test_weakly_expanding_warped_map_gets_a_transfer_check(self, tmp_path):
        # min |F'| - 1 = 0.0061 is below the one expansion rule (0.01), but the
        # map's preimages go through the doubling map: the check runs, exact
        cfg = doubling_config()
        cfg["grid"] = {"resolution": [64]}
        cfg["map"] = {"kind": "warped_doubling", "generator_modes": [[1, 0.064, 0.0]]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["verify", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["transfer"]["passed"] and report["transfer"]["residual"] <= 1e-13
        assert abs(report["response"]["fitted_order"] - 2.0) <= 1e-3
        assert abs(report["derivative"]["fitted_order"] - 2.0) <= 1e-3

    def test_warped_map_whose_interpolant_fails_verifies_exactly(self, tmp_path, capsys):
        # an N-point interpolant of this map's lift has a transfer residual of
        # 5.6e-6 at N = 256; held as the conjugacy, the deformed map's is exact
        modes = [[3, 0.0331 * np.cos(1.277), 0.0331 * np.sin(1.277)]]
        cfg = doubling_config(grid={"resolution": [256]},
                              map={"kind": "warped_doubling", "generator_modes": modes})
        cfg["verify"]["transfer_resolution"] = 512
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, cfg), "--out", str(out),
                     "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        transfer = json.loads((out / "report.json").read_text())["transfer"]
        assert transfer["resolution"] == 512 and transfer["residual"] <= 1e-13

    def test_missing_t_values_exits_2(self, tmp_path):
        cfg = doubling_config()
        del cfg["verify"]["t_values"]
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestMoser:
    def test_identical_densities(self, tmp_path):
        cfg = {
            "grid": {"resolution": [64]},
            "moser": {"eta0_modes": [[1, 0.3, 0.0]], "eta1_modes": [[1, 0.3, 0.0]],
                      "steps": 32},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["moser", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "moser_report.json").read_text())
        assert report["pushforward_residual"] <= 1e-12

    def test_transport_to_cosine_density_with_conjugation(self, tmp_path):
        cfg = {
            "scenario_id": "moser-cos",
            "grid": {"resolution": [128]},
            "map": {"kind": "linear", "A": [[2]]},
            "moser": {"eta1_modes": [[1, 0.5, 0.0]], "steps": 256,
                      "check_conjugated": True, "transfer_resolution": 256},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["moser", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "moser_report.json").read_text())
        assert report["pushforward_residual"] <= 1e-6
        assert report["transfer"]["residual"] <= 1e-4

    def test_failure_names_the_failing_check_with_its_residual_and_tolerance(
            self, tmp_path, capsys):
        # targets too steep for their grid: at N = 32 both checks fail, at
        # N = 16 only the pushforward
        for resolution, eta1_modes, transfer_passes in (
                (32, [[1, 0.9, 0.0]], False), (16, [[1, 0.8, 0.0], [2, 0.15, 0.0]], True)):
            cfg = {
                "grid": {"resolution": [resolution]},
                "map": {"kind": "linear", "A": [[2]]},
                "moser": {"eta1_modes": eta1_modes, "steps": 16,
                          "check_conjugated": True, "transfer_resolution": resolution},
            }
            path = write_config(tmp_path, cfg)
            out = tmp_path / f"o{resolution}"
            assert main(["moser", "--config", path, "--out", str(out), "--quiet"]) == 3
            report = json.loads((out / "moser_report.json").read_text())
            assert report["pushforward_tol"] == 1e-6
            assert report["transfer"]["passed"] is transfer_passes
            err = capsys.readouterr().err
            assert f"pushforward residual {report['pushforward_residual']:.3e} > 1.0e-06" in err
            transfer = (f"conjugated-map transfer residual "
                        f"{report['transfer']['residual']:.3e} > 1.0e-04")
            assert (transfer in err) is not transfer_passes

    # two benchmark ops (seed 1702 op 15, seed 1701 op 4) whose pushforward
    # and conjugated-map transfer residuals reached 1.4e-6 and 4.3e-5 when
    # each factor of a Moser map stretched up to 0.5
    RESOLVED_ONLY_BY_SHORT_FACTORS = [
        {"grid": {"resolution": [48, 48]},
         "moser": {"eta0_modes": [[1, 2, -0.280811, -0.04292]],
                   "eta1_modes": [[-2, -2, -0.147534, 0.218544]], "steps": 16}},
        {"grid": {"resolution": [128]}, "map": {"kind": "linear", "A": [[2]]},
         "moser": {"eta1_modes": [[3, -0.407072, 0.56784]], "steps": 128,
                   "check_conjugated": True, "transfer_resolution": 512}},
    ]

    @pytest.mark.parametrize("cfg", RESOLVED_ONLY_BY_SHORT_FACTORS, ids=["48x48", "doubling"])
    def test_short_factors_resolve_the_transport(self, tmp_path, cfg):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["moser", "--config", path, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "moser_report.json").read_text())
        assert report["pushforward_residual"] <= 1e-7
        if "check_conjugated" in cfg["moser"]:
            assert report["transfer"]["residual"] <= 1e-5
        # steps is the configured value, unread; substeps the Taylor steps
        # taken, one per factor
        assert report["steps"] == cfg["moser"]["steps"]
        assert report["submaps"] > 1 and report["substeps"] == report["submaps"]

    @pytest.mark.parametrize("cfg, signs", [
        (RESOLVED_ONLY_BY_SHORT_FACTORS[1], [-1.0, 1.0]),
        (RESOLVED_ONLY_BY_SHORT_FACTORS[0], [1.0]),
    ], ids=["conjugated-check", "2-d"])
    def test_one_build_of_the_directions_a_run_reads(self, tmp_path, monkeypatch, cfg, signs):
        # the conjugated check reads both directions, built in one batch; a
        # run without it builds only the inverse, whose factor times are
        # positive (a forward factor flows from its end to its start)
        batches, build = [], flow._moser_factors

        def counting(grid, values, gradients, starts, times):
            batches.append(sorted(set(np.sign(times))))
            return build(grid, values, gradients, starts, times)

        monkeypatch.setattr(flow, "_moser_factors", counting)
        path = write_config(tmp_path, cfg)
        assert main(["moser", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert batches == [signs]

    def test_moser_map_past_its_term_cap_exits_3_naming_the_factor(self, tmp_path, capsys,
                                                                     monkeypatch):
        monkeypatch.setattr(flow, "SERIES_TERMS", 3)
        out = tmp_path / "out"
        path = write_config(tmp_path, self.RESOLVED_ONLY_BY_SHORT_FACTORS[0])
        assert main(["moser", "--config", path, "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("convergence error: the Moser map at t = -1 did not converge: "
                              "the series of its factor from s = 0 to s = ")
        assert "after 3 terms" in err and not any(out.iterdir())

    def test_conjugated_check_rejects_non_invariant_eta0(self, tmp_path, capsys):
        cfg = {
            "grid": {"resolution": [128]},
            "map": {"kind": "linear", "A": [[2]]},
            "moser": {"eta0_modes": [[1, 0.2, 0.1]], "eta1_modes": [[2, 0.15, -0.1]],
                      "steps": 128, "check_conjugated": True},
        }
        path = write_config(tmp_path, cfg)
        assert main(["moser", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "eta0" in err and "invariant density" in err

    @pytest.mark.parametrize("resolution, A, eta1_modes", [
        ([64], [[1]], [[1, 0.3, 0.0]]),
        ([16, 16], [[2, 1], [1, 1]], [[1, 0, 0.3, 0.0]]),
    ], ids=["identity", "cat"])
    def test_conjugated_check_rejects_a_non_expanding_map_before_transport(
            self, tmp_path, capsys, monkeypatch, resolution, A, eta1_modes):
        def no_transport(*args, **kwargs):
            raise AssertionError("moser_transport ran before the map was checked")

        monkeypatch.setattr("conjresp.cli.moser_transport", no_transport)
        cfg = {
            "grid": {"resolution": resolution},
            "map": {"kind": "linear", "A": A},
            "moser": {"eta1_modes": eta1_modes, "steps": 16, "check_conjugated": True},
        }
        path = write_config(tmp_path, cfg)
        assert main(["moser", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "moser.check_conjugated needs an expanding circle map" in err

    def test_missing_target_exits_2(self, tmp_path):
        cfg = {"grid": {"resolution": [64]}, "moser": {"steps": 16}}
        path = write_config(tmp_path, cfg)
        assert main(["moser", "--config", path, "--out", str(tmp_path / "o")]) == 2


class TestSweep:
    def test_row_count(self, tmp_path):
        cfg = doubling_config()
        cfg["grid"] = {"resolution": [64]}
        cfg["verify"]["transfer_resolution"] = 128
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ("scenario_id,N,t,response_error,derivative_error,"
                            "transfer_residual,fitted_order,order_stderr")
        assert len(lines) == 4  # header + 3 t rows

    def test_resolution_sweep_is_stable(self, tmp_path):
        cfg = doubling_config()
        cfg["verify"]["resolutions"] = [64, 128, 256]
        cfg["verify"]["transfer_resolution"] = 128
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
        assert len(lines) == 9
        # three t values per grid: each grid's fit has a standard error
        assert all(float(line.split(",")[7]) >= 0.0 for line in lines)
        smallest_t = {}
        for line in lines:
            cells = line.split(",")
            n, t, err = int(cells[1]), float(cells[2]), float(cells[3])
            if t == 2.5e-3:
                smallest_t[n] = err
        values = list(smallest_t.values())
        assert max(values) <= 2.0 * min(values)  # spectral saturation

    def test_config_grid_matches_verify_without_resolutions(self, tmp_path):
        # a non-square grid must run as given, exactly as verify runs it
        cfg = {
            "grid": {"resolution": [32, 16]},
            "map": {"kind": "linear", "A": [[2, 1], [1, 1]]},
            "rho": {"modes": [[1, 1, 1.0, 0.0], [0, 3, 0.5, 0.2]]},
            "verify": {"t_values": [1e-2, 5e-3], "steps": 4},
        }
        path = write_config(tmp_path, cfg)
        verify_out, sweep_out = tmp_path / "v", tmp_path / "s"
        assert main(["verify", "--config", path, "--out", str(verify_out), "--quiet"]) == 0
        assert main(["sweep", "--config", path, "--out", str(sweep_out), "--quiet"]) == 0
        report = json.loads((verify_out / "report.json").read_text())
        rows = [line.split(",") for line in
                (sweep_out / "sweep.csv").read_text().strip().split("\n")[1:]]
        assert [int(row[1]) for row in rows] == [32, 32]
        assert [float(row[3]) for row in rows] == report["response"]["error"]
        assert [float(row[4]) for row in rows] == report["derivative"]["error"]
        # two t values: a fitted order, and no standard error (null in the report)
        assert [float(row[6]) for row in rows] == [report["response"]["fitted_order"]] * 2
        assert report["response"]["order_stderr"] is None
        assert [row[7] for row in rows] == ["nan", "nan"]

    def test_empty_t_list_exits_2(self, tmp_path):
        cfg = doubling_config()
        cfg["verify"]["t_values"] = []
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_scenario_id_with_csv_specials_reads_back(self, tmp_path):
        scenario_id = 'a,b "c"\nd'
        cfg = doubling_config(scenario_id=scenario_id)
        cfg["grid"] = {"resolution": [64]}
        cfg["verify"]["transfer_resolution"] = 128
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out), "--quiet"]) == 0
        with open(out / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["scenario_id"] for row in rows] == [scenario_id] * 3
        assert [float(row["t"]) for row in rows] == cfg["verify"]["t_values"]
        assert all(None not in row for row in rows)  # no cell beyond the header

    def test_byte_identical_reruns(self, tmp_path):
        cfg = doubling_config()
        cfg["grid"] = {"resolution": [64]}
        cfg["verify"]["transfer_resolution"] = 128
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", path, "--out", str(out1), "--quiet"]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2), "--quiet"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def _cat_config():
    return {
        "grid": {"resolution": [32, 16]},
        "map": {"kind": "linear", "A": [[2, 1], [1, 1]]},
        "rho": {"modes": [[1, 1, 1.0, 0.0], [0, 3, 0.5, 0.2]]},
        "verify": {"t_values": [1e-2, 5e-3], "steps": 4},
    }


def _doubling_sweep_config():
    cfg = doubling_config()
    cfg["verify"]["resolutions"] = [32, 64]
    cfg["verify"]["transfer_resolution"] = 128
    return cfg


def _warped_config():
    return doubling_config(grid={"resolution": [128]},
                           map={"kind": "warped_doubling", "generator_modes": [[1, 0.03, 0.02]]},
                           rho={"modes": [[1, 1.0, 0.0], [3, 0.3, 0.2]], "center": True},
                           strategy="gradient")


# (command, config, {grid resolution: (flow maps built, series runs)}): two
# maps per distinct t (3 t_values and transfer_t on the circle, 2 t_values
# on the torus, the 3 t_values of a sweep at each resolution), however many
# checks use them, and one run of series terms per field for all of them; a
# warped doubling map's construction adds its own pair, of its own field
FLOW_MAP_BUILDS = [
    ("verify", lambda: doubling_config(grid={"resolution": [64]}), {(64,): (8, 1)}),
    ("verify", _cat_config, {(32, 16): (4, 1)}),
    ("sweep", _doubling_sweep_config, {(32,): (6, 1), (64,): (6, 1)}),
    ("verify", _warped_config, {(128,): (10, 2)}),
]


@pytest.mark.parametrize("command, config, builds", FLOW_MAP_BUILDS,
                         ids=["circle-verify", "torus-verify", "sweep", "warped-verify"])
def test_each_flow_map_is_built_once_per_run(tmp_path, monkeypatch, command, config, builds):
    built, runs = Counter(), Counter()
    build, terms = flow._build_flow_maps, flow._series_terms

    def building(X, times):
        maps = build(X, times)
        built[X.grid.resolution] += len(maps)
        return maps

    def running(grid, velocity, shear):
        runs[grid.resolution] += 1
        return terms(grid, velocity, shear)

    monkeypatch.setattr(flow, "_build_flow_maps", building)
    monkeypatch.setattr(flow, "_series_terms", running)
    path = write_config(tmp_path, config())
    assert main([command, "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert built == {resolution: maps for resolution, (maps, _) in builds.items()}
    assert runs == {resolution: count for resolution, (_, count) in builds.items()}
    gc.collect()
    assert not flow._FLOW_MAPS  # the maps die with the run's fields


# (command, config) runs whose flow maps share one run of series terms per
# field, the warped doubling map adding one for its own generator
BATCHED_RUNS = [
    ("verify", doubling_config(grid={"resolution": [64]})),
    ("verify", _cat_config()),
    ("verify", _warped_config()),
    ("sweep", _doubling_sweep_config()),
]


@pytest.mark.parametrize("command, config", BATCHED_RUNS,
                         ids=["circle-verify", "torus-verify", "warped-verify", "sweep"])
def test_batched_builds_write_the_files_of_pairwise_builds(tmp_path, monkeypatch, command,
                                                          config):
    # the oracle builds one +-t pair at a time, each from its own series run
    build = flow._build_flow_maps

    def pairwise(X, times):
        return [phi for t in times for phi in build(X, [t])]

    path = write_config(tmp_path, config)
    outputs = []
    for name in ("batched", "pairwise"):
        if name == "pairwise":
            monkeypatch.setattr(flow, "_build_flow_maps", pairwise)
        out = tmp_path / name
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


# (command, config) runs whose files must not depend on the BLAS thread count
THREAD_RUNS = [
    ("verify", {"grid": {"resolution": [64, 64]},
                "map": {"kind": "custom", "A": [[2, 1], [1, 1]],
                        "eta_modes": [[1, 0, 0.2, 0.1], [1, -2, 0.05, -0.1]]},
                "rho": {"modes": [[1, 1, 0.6, 0.0], [0, 3, 0.3, 0.2]], "center": True},
                "strategy": "gradient", "verify": {"t_values": [1e-2, 5e-3], "steps": 4}}),
    ("verify", doubling_config(grid={"resolution": [256]},
                               map={"kind": "warped_doubling",
                                    "generator_modes": [[1, 0.03, 0.02]]},
                               rho={"modes": [[1, 1.0, 0.0], [3, 0.3, 0.2]], "center": True},
                               strategy={"custom": {"harmonic": [0.1]}})),
    ("sweep", _doubling_sweep_config()),
    ("moser", {"grid": {"resolution": [32, 32]},
               "moser": {"eta0_modes": [[1, 1, 0.1, 0.05]],
                         "eta1_modes": [[0, 1, 0.1, 0.0], [2, -1, 0.05, 0.05]],
                         "steps": 16}}),
    ("moser", {"grid": {"resolution": [128]}, "map": {"kind": "linear", "A": [[2]]},
               "moser": {"eta1_modes": [[1, 0.3, 0.1], [3, 0.1, -0.05]], "steps": 128,
                         "check_conjugated": True, "transfer_resolution": 512}}),
    ("verify", doubling_config(grid={"resolution": [256]},
                               map={"kind": "warped_doubling",
                                    "generator_modes": [[2, 0.03, 0.02]]},
                               rho={"modes": [[1, 1.0, 0.0], [2, 0.2, -0.1]], "center": True})),
    ("moser", TestMoser.RESOLVED_ONLY_BY_SHORT_FACTORS[0]),
]
RUN_ALL = ("import json, sys\n"
           "from conjresp.cli import main\n"
           "sys.exit(max(main(args) for args in json.loads(sys.argv[1])))")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    configs = [write_config(tmp_path, cfg, f"config{i}.json")
               for i, (_, cfg) in enumerate(THREAD_RUNS)]
    outputs = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        runs = [[command, "--config", config, "--out", str(root / str(i)), "--quiet"]
                for i, ((command, _), config) in enumerate(zip(THREAD_RUNS, configs))]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(conjresp.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({p.relative_to(root).as_posix(): p.read_bytes()
                        for p in root.rglob("*") if p.is_file()})
    assert sorted(outputs[0]) == ["0/report.json", "1/report.json", "2/sweep.csv",
                                  "3/moser_report.json", "4/moser_report.json",
                                  "5/report.json", "6/moser_report.json"]
    assert outputs[0] == outputs[1]


class TestConfigValidation:
    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = doubling_config()
        cfg["extra_section"] = {}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_strategy(self, tmp_path):
        cfg = doubling_config(strategy="optimal")
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_custom_strategy_roundtrip(self, tmp_path):
        cfg = doubling_config(strategy={"custom": {"harmonic": [0.1]}})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        shifted = load_field(out / "solve_X0.json")
        x = np.arange(128) / 128
        expected = -np.sin(2 * np.pi * x) / (2 * np.pi) + 0.1
        assert np.max(np.abs(shifted.values - expected)) <= 1e-12

    def test_grid_dim_mismatch(self, tmp_path, capsys):
        # the dimension is len(grid.resolution); grid.dim is not a key
        cfg = doubling_config()
        cfg["grid"] = {"dim": 2, "resolution": [64]}
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "['dim'] in section 'grid'" in capsys.readouterr().err


def _set(path, value):
    def edit(cfg):
        section = cfg
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return edit


def _with_moser(edit):
    def both(cfg):
        cfg["moser"] = {"eta1_modes": [[1, 0.3, 0.0]], "steps": 16}
        edit(cfg)
    return both


def _without_verify_steps(edit):
    def both(cfg):
        del cfg["verify"]["steps"]
        edit(cfg)
    return both


# (command, edit of a valid 1-d 64-point doubling config, key the error must name
# [, test id, which defaults to the key])
MALFORMED = [
    ("verify", _set(["verify", "steps"], 16.0), "verify.steps"),
    ("verify", _set(["verify", "steps"], "16"), "verify.steps"),
    ("verify", _set(["verify", "t_values"], 0.01), "verify.t_values"),
    # verify.steps is the flow maps' one step setting, and the grid's dimension its length
    ("sweep", _without_verify_steps(_set(["flow", "steps"], 16)), "['flow']", "flow.steps"),
    ("verify", _set(["grid", "dim"], 1), "['dim'] in section 'grid'", "grid.dim"),
    ("verify", _set(["verify", "transfer_t"], None), "verify.transfer_t"),
    ("verify", _set(["rho", "modes"], 5), "rho.modes"),
    ("verify", _set(["strategy"], {"custom": {"harmonic": 5}}), "strategy.custom.harmonic"),
    ("verify", _set(["map", "A"], [["a"]]), "map.A"),
    ("moser", _with_moser(_set(["moser", "steps"], 16.5)), "moser.steps"),
    ("verify", _set(["verify", "transfer_resolution"], 100.7), "verify.transfer_resolution"),
    ("verify", _set(["rho", "center"], "false"), "rho.center"),
    ("moser", _with_moser(_set(["moser", "check_conjugated"], "no")), "moser.check_conjugated"),
    ("verify", _set(["map", "eta_modes"], [[1, 0.3, 0.0]]), "eta_modes"),
    ("solve", _set(["output", "prefix"], 5), "output.prefix"),
    ("verify", _set(["verify", "t_values"], [float("inf"), 0.01]), "verify.t_values",
     "verify.t_values-infinite"),
    ("verify", _set(["verify", "t_values"], [float("nan"), 0.01]), "verify.t_values",
     "verify.t_values-nan"),
    ("verify", _set(["verify", "transfer_t"], float("inf")), "verify.transfer_t",
     "verify.transfer_t-infinite"),
    ("verify", _set(["verify", "transfer_t"], float("nan")), "verify.transfer_t",
     "verify.transfer_t-nan"),
    ("moser", _with_moser(_set(["moser", "pushforward_tol"], float("nan"))),
     "moser.pushforward_tol"),
    ("verify", _set(["verify", "steps"], 0), "verify.steps", "verify.steps-zero"),
    ("sweep", _without_verify_steps(_set(["flow", "steps"], -1)), "['flow']",
     "flow.steps-negative"),
    ("moser", _with_moser(_set(["moser", "steps"], 0)), "moser.steps", "moser.steps-zero"),
    ("verify", _set(["rho", "modes"], [[1, float("nan"), 0.0]]), "rho.modes", "rho.modes-nan"),
    ("verify", _set(["verify", "transfer_resolution"], 0), "verify.transfer_resolution",
     "verify.transfer_resolution-zero"),
    ("moser", _with_moser(_set(["moser", "transfer_resolution"], 6)),
     "moser.transfer_resolution"),
    # moser's tolerances are the constants config.PUSHFORWARD_TOL and TRANSFER_TOL
    ("moser", _with_moser(_set(["moser", "pushforward_tol"], -1)),
     "['pushforward_tol'] in section 'moser'", "moser.pushforward_tol-negative"),
    ("moser", _with_moser(_set(["moser", "pushforward_tol"], 0)),
     "['pushforward_tol'] in section 'moser'", "moser.pushforward_tol-zero"),
    ("moser", _with_moser(_set(["moser", "transfer_tol"], -1)),
     "['transfer_tol'] in section 'moser'", "moser.transfer_tol-negative"),
    ("moser", _with_moser(_set(["moser", "transfer_tol"], 0)),
     "['transfer_tol'] in section 'moser'", "moser.transfer_tol-zero"),
    # T_0 = T, so a transfer check at t = 0 tests nothing
    ("verify", _set(["verify", "transfer_t"], 0), "verify.transfer_t must be positive",
     "verify.transfer_t-zero"),
    ("verify", _set(["verify", "transfer_t"], -0.02), "verify.transfer_t must be positive",
     "verify.transfer_t-negative"),
    ("solve", _set(["map"], {"kind": "custom", "A": [[2]], "eta_modes": [[1, 0.3, 0.1]]}),
     "map.eta_modes", "map.eta_modes-not-invariant"),
    ("solve", _set(["output", "prefix"], "sub/x"), "output.prefix", "output.prefix-path"),
]
# (id, command, edit, key): list elements, checked where the list is used
MALFORMED_ELEMENTS = [
    ("rho.modes-entry-not-a-list", "verify", _set(["rho", "modes"], [5]), "rho.modes"),
    ("rho.modes-bool-amplitude", "verify", _set(["rho", "modes"], [[1, True, 0]]), "rho.modes"),
    ("rho.modes-float-wavenumber", "verify", _set(["rho", "modes"], [[1.5, 1.0, 0.0]]),
     "rho.modes"),
    ("grid.resolution-fractional", "verify", _set(["grid", "resolution"], [64.7]),
     "grid.resolution"),
    ("verify.resolutions-fractional", "sweep", _set(["verify", "resolutions"], [64.7]),
     "verify.resolutions"),
    *[(f"strategy.custom.harmonic-{name}", "verify",
       _set(["strategy"], {"custom": {"harmonic": harmonic}}), "strategy.custom.harmonic")
      for name, harmonic in [("list-entry", [[1]]), ("string-entry", ["x"]),
                             ("numeric-string-entry", ["0.5"]), ("bool-entry", [True]),
                             ("count", [0.1, 0.2])]],
    ("strategy.custom.alpha_modes-1d", "verify",
     _set(["strategy"], {"custom": {"alpha_modes": [[1, 0.1, 0.0]]}}),
     "strategy.custom.alpha_modes"),
]


@pytest.mark.parametrize("command, edit, key",
                         [pytest.param(*case[:3], id=case[-1]) for case in MALFORMED]
                         + [pytest.param(*case, id=name) for name, *case in MALFORMED_ELEMENTS])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, command, edit, key):
    cfg = doubling_config()
    cfg["grid"] = {"resolution": [64]}
    edit(cfg)
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out" / "run"
    assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and key in err
    assert not out.parent.exists()  # every directory the run created is gone


def test_exit_2_leaves_an_existing_out_in_place(tmp_path):
    cfg = doubling_config()
    cfg["grid"] = {"resolution": [64]}
    cfg["map"] = {"kind": "custom", "A": [[2]], "eta_modes": [[1, 0.3, 0.1]]}
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept").write_text("")
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                 "--quiet"]) == 2
    assert (out / "kept").read_text() == ""


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, doubling_config())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["solve", "--config", path, "--out", str(taken), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("validation error: cannot create output directory")
    assert taken.read_text() == ""


def test_non_positive_density_message_has_plain_numbers(tmp_path, capsys):
    cfg = doubling_config()
    cfg["grid"] = {"resolution": [64]}
    cfg["map"] = {"kind": "custom", "A": [[2]], "eta_modes": [[1, 2.0, 0.0]]}
    path = write_config(tmp_path, cfg)
    assert main(["verify", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "at grid point (0.5,)" in err and "np.float64" not in err
