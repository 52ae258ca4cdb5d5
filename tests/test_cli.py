"""End-to-end tests of the command line entry point.

Every test drives ``lingrow.cli.main`` with a JSON config written to a
temp directory and checks exit codes and on-disk artifacts.  The committed
fixture pair under ``tests/fixtures`` pins an 8x8 denoising run against an
independently computed dense-Newton solution.
"""

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

import lingrow
from lingrow import cli, solver
from lingrow.cli import main
from lingrow.config import ConfigError, parse_config
from lingrow.grids import Field, Grid2, Mask
from lingrow.instances import make_function
from lingrow.moser import select_radius
from lingrow.pgmio import field_from_csv, field_to_csv, read_pgm
from lingrow.solver import MinimalityReport

from . import oracles

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def density_config(**density):
    return {"density": density}


# the regularized density of a small rung: delta phi_1.5 + minimal_surface
REGULARIZED_MS = {"kind": "combined", "delta": 1e-6, "mu": 1.5,
                  "base": {"kind": "minimal_surface"}}


def denoise_config(value=2.5, noise=0.0, nx=8, lam=0.7, seed=3,
                   schedule=(0.1, 0.01), tol=1e-11):
    return {
        "seed": seed,
        "grid": {"nx": nx, "ny": nx, "h": 1.0 / nx},
        "solver": {"mu": 1.5, "delta_schedule": list(schedule),
                   "residual_tol": tol},
        "problem": {"kind": "fidelity",
                    "density": {"kind": "minimal_surface"},
                    "f": {"synthetic": {"kind": "constant", "value": value,
                                        "noise": noise}},
                    "lambda": lam},
        "minimality_trials": 20,
    }


def affine_dirichlet_config(nx=10):
    return {
        "seed": 0,
        "grid": {"nx": nx, "ny": nx, "h": 1.0 / nx},
        "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01]},
        "problem": {"kind": "dirichlet",
                    "density": {"kind": "minimal_surface"},
                    "u0": {"synthetic": {"kind": "affine", "ax": 1.0,
                                         "ay": -0.5, "c": 2.0}}},
        "minimality_trials": 20,
    }


def zero_moser_config(j_max=3):
    cfg = denoise_config(value=0.0, nx=32, lam=1.0, tol=1e-10)
    cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.3, "j_max": j_max}
    cfg["s_values"] = [0.0, 1.0]
    cfg["minimality_trials"] = 10
    return cfg


# what `solve` writes on the default four-rung schedule
SOLVE_FILES = ["solution_0p0001.pgm", "solution_0p001.pgm",
               "solution_0p01.pgm", "solution_0p1.pgm", "solution_final.csv",
               "trace.csv", "trace.json"]


def run(tmp_path, command, payload, out="out"):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    if out_dir.is_dir():
        for name in os.listdir(out_dir):
            if name.endswith(".json"):
                read_json(out_dir / name)
    return rc, out_dir


def read_json(path):
    """Parse strict JSON: a report may not hold Infinity or NaN."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def tree_bytes(root):
    """Map of relative file name to raw content for a flat output dir."""
    return {name: (root / name).read_bytes() for name in os.listdir(root)}


class TestDensityCheck:
    def test_phi_mu_certifies(self, tmp_path):
        rc, out = run(tmp_path, "density-check", density_config(
            kind="phi_mu", mu=2.0))
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["all_passed"] is True
        assert set(report) == {"profile", "checks", "constants",
                               "all_passed"}
        assert report["constants"]["mu_certified"] == pytest.approx(2.0,
                                                                    abs=0.05)

    def test_minimal_surface_certifies_mu_three(self, tmp_path):
        rc, out = run(tmp_path, "density-check", density_config(
            kind="minimal_surface"))
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["constants"]["mu_certified"] == pytest.approx(3.0,
                                                                    abs=0.05)

    def test_a_regularized_minimal_surface_certifies_its_delta_term(
            self, tmp_path):
        """The floor of delta phi_1.5 + minimal_surface is at least
        delta (1+t)^-1.5, so 1.5 holds, though at delta 1e-6 the
        minimal-surface term still dominates the floor at t = 1e4."""
        rc, out = run(tmp_path, "density-check", density_config(
            **REGULARIZED_MS))
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["all_passed"] is True
        assert report["constants"]["mu_certified"] == 1.5
        assert report["constants"]["nu6"] == 1e-6

    def test_the_report_gives_where_the_origin_checks_were_read(
            self, tmp_path):
        rc, out = run(tmp_path, "density-check", density_config(
            kind="minimal_surface"))
        assert rc == 0
        checks = read_json(out / "condition_report.json")["checks"]
        assert checks["value_zero_at_origin"]["at_t"] == 0.0
        assert checks["slope_zero_at_origin"]["at_t"] == 0.0

    def test_a_density_check_section_exits_two_with_one_line(self, tmp_path,
                                                             capsys):
        """The sample is fixed, so a section that would set it is an
        unknown key."""
        cfg = density_config(kind="minimal_surface")
        cfg["density_check"] = {"t_max": 50.0, "samples": 300}
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "lingrow: unknown config key(s): density_check\n"
        assert not out.exists()

    def test_sub_linear_mu_rejected_at_parse(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "density-check", density_config(
            kind="phi_mu", mu=0.5))
        assert rc == 2
        assert capsys.readouterr().err.startswith("lingrow:")

    def test_line_breaks_in_a_message_stay_on_one_line(self, tmp_path,
                                                       capsys):
        cfg = density_config(kind="phi_mu", mu=2.0)
        cfg["solver"] = {"a\rb\nc": 1}
        rc, _ = run(tmp_path, "density-check", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "lingrow: unknown solver key(s): a\\nb\\nc\n"

    def test_an_over_deep_json_file_exits_two_with_one_line(self, tmp_path,
                                                            capsys):
        """JSON nested past the interpreter's stack is a malformed config,
        not a traceback."""
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        rc = main(["density-check", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "lingrow: config is nested too deeply to parse\n"
        assert not out.exists()

    def test_a_density_nested_past_its_bound_exits_two_with_one_line(
            self, tmp_path, capsys):
        """32 'base' levels certify; 600 are refused at parse, before the
        report writer would overflow the stack on them."""
        def nest(depth):
            density = {"kind": "minimal_surface"}
            for _ in range(depth):
                density = {"kind": "combined", "delta": 0.1, "mu": 1.5,
                           "base": density}
            return density
        cfg = density_config(**nest(32))
        rc, out = run(tmp_path, "density-check", cfg, out="ok")
        assert rc == 0 and (out / "condition_report.json").is_file()
        cfg["density"] = nest(33)
        with pytest.raises(ConfigError, match="at most 32 'base' levels"):
            parse_config(cfg)
        cfg["density"] = nest(600)
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad density: a density nests at most 32 'base' "
            "levels\n")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["density-check", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "lingrow:" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x", "--out", "y"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--config", "{cfg}"],
        ["bogus", "--config", "{cfg}", "--out", "{out}"],
        ["solve", "--config", "{cfg}", "--out", "{out}", "--seed", "abc"],
        ["solve", "--config", "{cfg}", "--out", "{out}", "--seed", "7"],
    ], ids=["no-out", "bogus-command", "seed-abc", "seed-7"])
    def test_a_malformed_command_line_exits_two_with_one_line(
            self, tmp_path, capsys, argv):
        """No usage text: one ``lingrow:`` line, as for a malformed config.
        The config's ``seed`` is the only seed, so ``--seed`` is unknown."""
        cfg = write_config(tmp_path, denoise_config())
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(cfg=cfg, out=out) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestSolve:
    def test_a_misspelt_key_exits_two_with_one_line(self, tmp_path, capsys):
        cfg = denoise_config()
        cfg["problem"]["lamda"] = 0.5
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert capsys.readouterr().err == \
            "lingrow: unknown problem key(s): lamda\n"
        assert not out.exists()

    def test_constant_denoising_artifacts(self, tmp_path):
        rc, out = run(tmp_path, "solve", denoise_config())
        assert rc == 0
        u = field_from_csv(out / "solution_final.csv")
        assert np.max(np.abs(u.values - 2.5)) <= 1e-8
        trace = read_json(out / "trace.json")
        assert [r["delta"] for r in trace["records"]] == [0.1, 0.01]
        for rec in trace["records"]:
            counts = [rec["krylov_iters"], rec["iters"], rec["backtracks"]]
            assert all(isinstance(c, int) for c in counts)
            assert counts[0] >= counts[1] >= 0 and counts[2] >= 0
        assert trace["minimality"]["passed"] is True
        for rec in trace["records"]:
            ints, maxval = read_pgm(out / rec["pgm"])
            assert ints.shape == (8, 8)
            assert np.all(ints <= maxval)
        assert (out / "trace.csv").read_text().startswith("delta,")

    def test_trace_lists_the_nested_start_of_rung_0(self, tmp_path):
        rc, out = run(tmp_path, "solve", denoise_config(
            nx=32, noise=0.5, tol=1e-10))
        assert rc == 0
        records = read_json(out / "trace.json")["records"]
        (coarse,) = records[0]["coarse"]
        assert coarse["grid"] == [16, 16] and coarse["converged"] is True
        assert coarse["krylov_iters"] >= coarse["iters"] >= 1
        assert records[1]["coarse"] == []

    def test_a_combined_problem_density_solves(self, tmp_path):
        """The solve adds its own delta term to a density that is already
        combined."""
        cfg = denoise_config(nx=16, noise=0.5, tol=1e-10)
        cfg["problem"]["density"] = {"kind": "combined", "delta": 0.1,
                                     "mu": 1.5,
                                     "base": {"kind": "minimal_surface"}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        trace = read_json(out / "trace.json")
        assert [r["delta"] for r in trace["records"]] == [0.1, 0.01]
        assert trace["minimality"]["passed"] is True

    def test_affine_dirichlet_is_a_fixed_point(self, tmp_path):
        rc, out = run(tmp_path, "solve", affine_dirichlet_config())
        assert rc == 0
        trace = read_json(out / "trace.json")
        assert [r["iters"] for r in trace["records"]] == [0, 0]
        grid = Grid2(10, 10, 0.1)
        expected = Field.from_function(
            grid, lambda X, Y: 1.0 * X - 0.5 * Y + 2.0)
        u = field_from_csv(out / "solution_final.csv")
        assert np.max(np.abs(u.values - expected.values)) <= 1e-12
        # the quantized image of an x-increasing affine field is monotone
        ints, _ = read_pgm(out / "solution_0p01.pgm")
        assert np.all(np.diff(ints, axis=0) >= 0)

    @pytest.mark.parametrize("grid, problem", [
        ({"nx": 2, "ny": 2, "h": 0.5},
         {"kind": "dirichlet", "density": {"kind": "minimal_surface"},
          "u0": {"synthetic": {"kind": "affine", "ax": 1.0, "ay": 2.0,
                               "c": 0.0}}}),
        ({"nx": 2, "ny": 9, "h": 0.1},
         {"kind": "fidelity", "density": {"kind": "minimal_surface"},
          "f": {"synthetic": {"kind": "constant", "value": 1.0}}}),
    ], ids=["dirichlet-2x2", "fidelity-2x9"])
    def test_a_grid_two_cells_wide_solves(self, tmp_path, capsys, grid,
                                          problem):
        """The default interior ball holds a cell centre on a side of 2
        cells, so the run writes all its files."""
        cfg = {"grid": grid, "solver": {"mu": 1.5}, "problem": problem}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(out)) == SOLVE_FILES
        assert read_json(out / "trace.json")["minimality"]["passed"] is True

    @pytest.mark.parametrize("h", [1e-160, 1e-300])
    def test_a_spacing_whose_square_underflows_exits_two_before_solving(
            self, tmp_path, capsys, h):
        cfg = affine_dirichlet_config(nx=8)
        cfg["grid"]["h"] = h
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad grid: h is too small: its square underflows the "
            "normal floats\n")
        assert not out.exists()

    def test_a_spacing_of_1e_150_still_solves(self, tmp_path):
        cfg = affine_dirichlet_config(nx=8)
        cfg["grid"]["h"] = 1e-150
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        assert (out / "trace.json").is_file()

    def test_a_flat_solution_past_1e16_writes_its_images(self, tmp_path,
                                                         capsys):
        """A flat range widens to lo + 1, or to the next float where that
        rounds back to lo."""
        cfg = affine_dirichlet_config(nx=8)
        del cfg["solver"]["delta_schedule"]
        cfg["problem"]["u0"] = {"synthetic": {"kind": "constant",
                                              "value": 1e300}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(out)) == SOLVE_FILES
        records = read_json(out / "trace.json")["records"]
        assert len(records) == 4
        for rec in records:
            assert rec["pgm_lo"] == 1e300 == rec["interior_sup"]
            assert rec["pgm_hi"] == math.nextafter(1e300, math.inf)
            ints, _ = read_pgm(out / rec["pgm"])
            assert np.all(ints == 0)

    def test_matches_committed_newton_fixture(self, tmp_path):
        out_dir = tmp_path / "out"
        rc = main(["solve", "--config", os.path.join(FIXTURES, "oracle8.json"),
                   "--out", str(out_dir)])
        assert rc == 0
        got = field_from_csv(out_dir / "solution_final.csv")
        ref = field_from_csv(os.path.join(FIXTURES, "oracle8_solution.csv"))
        assert np.max(np.abs(got.values - ref.values)) <= 1e-6

    def test_seed_override_changes_the_data(self, tmp_path):
        with open(os.path.join(FIXTURES, "oracle8.json")) as fh:
            cfg = json.load(fh)
        cfg["seed"] = 7
        rc, out_dir = run(tmp_path, "solve", cfg)
        assert rc == 0
        got = field_from_csv(out_dir / "solution_final.csv")
        ref = field_from_csv(os.path.join(FIXTURES, "oracle8_solution.csv"))
        assert np.max(np.abs(got.values - ref.values)) > 1e-3

    def test_a_seed_of_2_to_the_64_exits_two_with_one_line(self, tmp_path,
                                                           capsys):
        """The audit's SplitMix64 counter is 64 bits wide, so seeds that
        agree modulo 2^64 would draw alike; 2^64 - 1 is the largest."""
        cfg = denoise_config()
        cfg["seed"] = 2 ** 64 - 1
        assert parse_config(cfg).seed == 2 ** 64 - 1
        cfg["seed"] = 2 ** 64
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert capsys.readouterr().err == \
            "lingrow: 'seed' must be less than 2^64\n"
        assert not out.exists()

    def test_exhausted_budget_exits_one_with_error_note(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
        cfg = denoise_config(noise=1.0, schedule=(0.1,), tol=1e-14)
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 1
        assert capsys.readouterr().err == ""
        trace = read_json(out / "trace.json")
        assert set(trace) == {"error"}
        assert "delta=0.1" in trace["error"]
        assert not (out / "solution_final.csv").exists()

    @pytest.mark.parametrize("command, summary, keys", [
        ("solve", "trace.json", {"error"}),
        ("moser", "moser_summary.json", {"error"}),
        ("full-report", "report.json", {"error", "density_passed"}),
    ])
    def test_every_command_notes_an_exhausted_budget(
            self, tmp_path, capsys, monkeypatch, command, summary, keys):
        """Each command writes the failed solve to its summary file, and
        nothing to stderr.  At 20x20 the first annulus of the ball is two
        cells wide, so the audit's geometry passes before the solve."""
        monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
        cfg = denoise_config(nx=20, noise=1.0, schedule=(0.1,), tol=1e-14)
        cfg["density"] = {"kind": "minimal_surface"}
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.45, "j_max": 1}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 1
        assert capsys.readouterr().err == ""
        note = read_json(out / summary)
        assert set(note) == keys
        assert "delta=0.1" in note["error"]
        assert note.get("density_passed", True) is True
        assert not (out / "solution_final.csv").exists()


    def test_malformed_csv_datum_exits_two_with_one_line(self, tmp_path,
                                                         capsys):
        u = Field(Grid2(8, 8, 1.0 / 8), np.ones((8, 8, 1)))
        field_to_csv(tmp_path / "f.csv", u)
        lines = (tmp_path / "f.csv").read_text().splitlines()
        (tmp_path / "f.csv").write_text("\n".join(lines + [lines[9]]) + "\n")
        cfg = denoise_config()
        cfg["problem"]["f"] = {"csv": {"path": "f.csv"}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: bad CSV field:")
        assert "repeats a cell and channel" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_negative_pgm_sample_exits_two_with_one_line(self, tmp_path,
                                                         capsys):
        pixels = " ".join(["5"] * 63 + ["-7"])
        (tmp_path / "f.pgm").write_text(f"P2\n8 8\n255\n{pixels}\n")
        cfg = denoise_config()
        cfg["problem"]["f"] = {"pgm": {"path": "f.pgm", "lo": 0, "hi": 1}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: bad PGM field:")
        assert "negative" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_pgm_range_too_wide_for_a_float_exits_two_with_one_line(
            self, tmp_path, capsys):
        """hi - lo overflows a float: the range is rejected before the
        samples are mapped, so no warning precedes the one line."""
        (tmp_path / "f.pgm").write_text("P2\n8 8\n255\n" + "0 5 " * 32 + "\n")
        cfg = denoise_config()
        cfg["problem"]["f"] = {"pgm": {"path": "f.pgm", "lo": -1.7e308,
                                       "hi": 1.7e308}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad PGM field: declared range is too wide: hi - lo "
            "overflows a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("problem, reason", [
        ({"f": {"synthetic": {"kind": "constant", "value": 1e160}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"synthetic": {"kind": "inverse_sqrt_spike",
                              "center": [0.8, 0.8], "cap": 1e300}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"synthetic": {"kind": "constant", "value": 1.0,
                              "noise": 1e300}}},
         "bad fidelity problem: the data are too large"),
        # the default start's off-mask mean overflows as well
        ({"f": {"synthetic": {"kind": "affine", "ax": 1e307}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"synthetic": {"kind": "constant", "value": 1e308}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"csv": {"path": "f.csv"}}},
         "bad fidelity problem: the data are too large"),
        ({"kind": "dirichlet",
          "u0": {"synthetic": {"kind": "edge_spike", "height": 1e200}}},
         "bad synthetic datum: the data are too large"),
        ({"kind": "dirichlet",
          "u0": {"synthetic": {"kind": "affine", "ax": 1e200}}},
         "bad synthetic datum: the data are too large"),
        ({"kind": "dirichlet", "u0": {"csv": {"path": "u0.csv"}}},
         "bad dirichlet datum: the data are too large"),
        # neighbouring values of +-1.5e308 overflow their ring difference
        ({"kind": "dirichlet", "u0": {"csv": {"path": "ring.csv"}}},
         "bad dirichlet datum: the data are too large"),
        ({"lambda": 1e20},
         "bad fidelity problem: lam must lie in [1e-12, 1e8]"),
        ({"lambda": 1e-300},
         "bad fidelity problem: lam must lie in [1e-12, 1e8]"),
    ], ids=["f-1e160", "cap-1e300", "noise-1e300", "affine-1e307",
            "f-1e308", "csv-fidelity-1e308", "spike-1e200",
            "affine-1e200", "csv-dirichlet-1e200", "csv-ring-1.5e308",
            "lambda-1e20", "lambda-1e-300"])
    def test_data_past_the_float_range_exit_two_before_solving(
            self, tmp_path, capsys, problem, reason):
        """Data whose energy without the delta term overflows a float, or
        a data weight outside [1e-12, 1e8], are a malformed config, caught
        before the solve with one line and no warning."""
        g = Grid2(16, 16, 1.0 / 16)
        spike = np.zeros((16, 16, 1))
        spike[8, 8, 0] = 1e200
        field_to_csv(tmp_path / "u0.csv", Field(g, spike))
        field_to_csv(tmp_path / "f.csv", Field.full(g, 1e308))
        ring = np.zeros((16, 16, 1))
        ring[0::2] = 1.5e308
        ring[1::2] = -1.5e308
        field_to_csv(tmp_path / "ring.csv", Field(g, ring))
        cfg = denoise_config(nx=16)
        if problem.get("kind") == "dirichlet":
            del cfg["problem"]["f"], cfg["problem"]["lambda"]
        cfg["problem"].update(problem)
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: " + reason), err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_huge_datum_under_the_mask_does_not_enter_the_solve(
            self, tmp_path, capsys):
        """A datum past the float range where the mask hides it is not
        data: the run solves as with a tame value there."""
        solutions = []
        for under in (1e200, 2.5):
            values = np.full((16, 16, 1), 2.5)
            values[4:12, 4:12, 0] = under
            field_to_csv(tmp_path / "f.csv",
                         Field(Grid2(16, 16, 1.0 / 16), values))
            cfg = denoise_config(nx=16)
            cfg["problem"]["f"] = {"csv": {"path": "f.csv"}}
            cfg["problem"]["mask"] = {"rect": [0.25, 0.25, 0.75, 0.75]}
            rc, out = run(tmp_path, "solve", cfg, out=f"out-{under}")
            assert rc == 0, capsys.readouterr().err
            solutions.append((out / "solution_final.csv").read_bytes())
        assert solutions[0] == solutions[1]

    @pytest.mark.parametrize("value", [9e307, 1e308])
    def test_a_flat_dirichlet_datum_near_the_float_range_solves(
            self, tmp_path, capsys, value):
        """The nested start halves the 32^2 ring by means of halves, so
        no pair sum overflows."""
        cfg = affine_dirichlet_config(nx=32)
        cfg["problem"]["u0"] = {"synthetic": {"kind": "constant",
                                              "value": value}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        assert (out / "trace.json").is_file()
        assert capsys.readouterr().err == ""

    def test_a_masked_datum_of_1e308_solves(self, tmp_path, capsys):
        """The nested start's coarse copy reads no datum under the mask,
        so four masked values of 1e308 are never summed."""
        values = np.full((32, 32, 1), 2.5)
        values[8:16, 8:16, 0] = 1e308
        field_to_csv(tmp_path / "f.csv",
                     Field(Grid2(32, 32, 1.0 / 32), values))
        cfg = denoise_config(nx=32)
        cfg["problem"]["f"] = {"csv": {"path": "f.csv"}}
        cfg["problem"]["mask"] = {"rect": [0.25, 0.25, 0.5, 0.5]}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
        assert (out / "trace.json").is_file()
        assert capsys.readouterr().err == ""

    def test_a_mass_that_overflows_exits_two_with_one_line(self, tmp_path,
                                                            capsys):
        """A spacing of 1e150 with lam 1e8 overflows the data term's mass:
        the data are rejected with one line and no warning."""
        cfg = denoise_config(nx=16, lam=1e8)
        cfg["grid"]["h"] = 1e150
        cfg["problem"]["mask"] = {"rect": [4e150, 4e150, 12e150, 12e150]}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: bad fidelity problem: the data are "
                              "too large"), err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"],
                             ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, out):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        (tmp_path / "afile").write_text("")
        rc, _ = run(tmp_path, "solve", denoise_config(), out=out)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: cannot create output directory")
        assert len(err.splitlines()) == 1
        assert (tmp_path / "afile").read_text() == ""

    def test_a_report_that_cannot_be_written_exits_two_with_one_line(
            self, tmp_path, capsys):
        target = tmp_path / "out" / "trace.csv"
        target.mkdir(parents=True)
        rc, _ = run(tmp_path, "solve", denoise_config())
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lingrow: cannot write {str(target)!r}: ")
        assert len(err.splitlines()) == 1


class TestMoser:
    def test_zero_data_audit_passes(self, tmp_path):
        rc, out = run(tmp_path, "moser", zero_moser_config())
        assert rc == 0
        summary = read_json(out / "moser_summary.json")
        assert summary["passed"] is True
        assert summary["ball"]["center"] == [0.5, 0.5]
        assert summary["ball"]["epsilon0"] is None
        for tag in ("0p1", "0p01"):
            rep = read_json(out / f"moser_{tag}.json")
            assert rep["masses"] == [1.0, 1.0, 1.0, 1.0]
            assert rep["passed"] is True
            assert (out / f"moser_{tag}.csv").read_text().startswith(
                "j,R_j,s_j,a_j,c_j")
        lines = (out / "sup_vs_delta.csv").read_text().strip().splitlines()
        assert lines[0] == "delta,interior_sup"
        assert [float(ln.split(",")[1]) for ln in lines[1:]] == [0.0, 0.0]

    def test_an_overflowing_cutoff_power_fails_its_check_silently(
            self, tmp_path, capsys):
        """At s = 1e300 the powers of |u| = 2.5 overflow: that check fails
        with a note naming the overflow and null constants, without a
        warning, and s = 1 is audited as before."""
        cfg = zero_moser_config()
        cfg["problem"]["f"]["synthetic"]["value"] = 2.5
        cfg["s_values"] = [1.0, 1e300]
        rc, out = run(tmp_path, "moser", cfg)
        assert rc == 1
        assert capsys.readouterr().err == ""
        ordinary, huge = read_json(out / "moser_0p01.json")["caccioppoli"]
        assert ordinary["passed"] is True
        assert huge["passed"] is False
        assert "overflow" in huge["note"]
        assert huge["variation"] is None
        assert huge["c_levels"] and set(huge["c_levels"]) == {None}

    def test_auto_ball_selection(self, tmp_path):
        cfg = zero_moser_config()
        cfg["ball"] = {"auto": True, "x0": [0.5, 0.5], "j_max": 3}
        rc, out = run(tmp_path, "moser", cfg)
        assert rc == 0
        ball = read_json(out / "moser_summary.json")["ball"]
        # zero data: half the boundary distance, threshold 1/(16 lam^2)
        assert ball["r0"] == 0.25
        assert ball["epsilon0"] == 0.0625
        assert ball["j_max"] == 3

    def test_moser_without_a_ball_exits_two(self, tmp_path, capsys):
        rc, out = run(tmp_path, "moser", denoise_config())
        assert rc == 2
        assert "needs a 'ball' section" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_ball_needs_fidelity(self, tmp_path, capsys):
        cfg = affine_dirichlet_config()
        cfg["ball"] = {"auto": True, "x0": [0.5, 0.5]}
        rc, _ = run(tmp_path, "moser", cfg)
        assert rc == 2
        assert "fidelity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["density-check", "solve", "moser"])
    @pytest.mark.parametrize("ball", [
        {"center": [0.5, 0.5], "r0": 0.3, "j_max": 2000},
        {"auto": True, "x0": [0.5, 0.5], "j_max": 2000},
    ], ids=["explicit", "auto"])
    def test_both_ball_forms_meet_the_depth_rule_when_the_config_loads(
            self, tmp_path, capsys, ball, command):
        """A family too deep for a float fails every command alike, whether
        its radius is given or chosen from the datum."""
        cfg = denoise_config(nx=16)
        cfg["ball"] = ball
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad ball: ball family too deep: 2^j_max is not a "
            "finite float\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["density-check", "solve"])
    def test_an_auto_ball_on_a_dirichlet_problem_fails_when_the_config_loads(
            self, tmp_path, capsys, command):
        cfg = affine_dirichlet_config()
        cfg["ball"] = {"auto": True, "x0": [0.5, 0.5]}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad ball: auto ball selection needs a fidelity problem\n")
        assert not out.exists()

    def test_a_grid_whose_squared_side_overflows_exits_two(self, tmp_path,
                                                          capsys):
        cfg = zero_moser_config()
        cfg["grid"]["h"] = 1e300
        rc, out = run(tmp_path, "moser", cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: bad grid: h is too large: the squared side of the "
            "domain overflows a float\n")
        assert not out.exists()

    def test_ball_off_the_grid_exits_two(self, tmp_path, capsys):
        cfg = zero_moser_config()
        cfg["ball"] = {"center": [0.05, 0.05], "r0": 0.2, "j_max": 3}
        rc, _ = run(tmp_path, "moser", cfg)
        assert rc == 2
        assert "lingrow:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["moser", "full-report"])
    def test_ball_without_cell_centres_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        cfg = denoise_config()
        cfg["density"] = {"kind": "minimal_surface"}
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.01}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow:") and "cell centre" in err
        assert len(err.splitlines()) == 1
        assert not (out / "trace.json").exists()

    @pytest.mark.parametrize("command", ["moser", "full-report"])
    def test_thin_innermost_ball_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command):
        """Too few cells in the innermost ball is found before the solve
        and before ``--out`` is made: nothing is written."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        cfg = denoise_config(nx=16)
        cfg["density"] = {"kind": "minimal_surface"}
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.2, "j_max": 3}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow:")
        assert "innermost ball holds 12 cell centres" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("ball", [
        {"center": [0.5, 0.5], "r0": 0.3, "j_max": 1024},
        {"auto": True, "x0": [0.5, 0.5], "j_max": 1024},
    ], ids=["n2-j1024", "auto-j1024"])
    def test_a_family_too_deep_for_a_float_exits_two_before_solving(
            self, tmp_path, capsys, monkeypatch, ball):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        cfg = zero_moser_config()
        cfg["ball"] = ball
        rc, out = run(tmp_path, "moser", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow:") and "ball family too deep" in err
        assert len(err.splitlines()) == 1
        # both forms fail when the config loads, before --out is made
        assert not out.exists()

    @pytest.mark.parametrize("ball", [
        {"center": [0.5, 0.5], "r0": 0.3, "n": 2},
        {"auto": True, "x0": [0.5, 0.5], "n": 2},
    ], ids=["explicit", "auto"])
    def test_a_dimension_key_exits_two_before_solving(
            self, tmp_path, capsys, ball):
        """The family is two-dimensional, as the grids are: ``n`` is no
        ball key, for either form, and nothing is written."""
        cfg = zero_moser_config()
        cfg["ball"] = ball
        rc, out = run(tmp_path, "moser", cfg)
        assert rc == 2
        assert capsys.readouterr().err == \
            "lingrow: unknown ball key(s): n\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moser", "full-report"])
    def test_annuli_thinner_than_two_cells_exit_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command):
        """A family whose first annulus (R_0 - R_1 = r0/4 = 0.05) is
        thinner than two cells (0.0625) passes the cell count (j_max 1),
        but no annulus can carry the Caccioppoli cutoff; this is found
        before the solve, with no artifact and no numpy warning."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        cfg = zero_moser_config()
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.2, "j_max": 1}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: no annulus is at least two cells wide; enlarge r0 or "
            "refine the grid\n")
        assert not out.exists()

    def test_minimality_trials_zero_exits_two_before_solving(
            self, tmp_path, capsys):
        cfg = denoise_config()
        cfg["minimality_trials"] = 0
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert "minimality_trials" in capsys.readouterr().err
        assert not out.exists()

    def test_minimality_trials_past_their_bound_exit_two_before_solving(
            self, tmp_path, capsys):
        """The count is refused at parse, before the ladder runs and before
        the audit would allocate one energy per trial; 10^5, the bound,
        parses."""
        cfg = denoise_config()
        cfg["minimality_trials"] = 10 ** 5
        assert parse_config(cfg).minimality_trials == 10 ** 5
        cfg["minimality_trials"] = 10 ** 12
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert capsys.readouterr().err == \
            "lingrow: 'minimality_trials' must be at most 100000\n"
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        ("solve", "solver.delta_schedule"), ("moser", "s_values")])
    def test_lists_past_their_bound_exit_two_before_solving(
            self, tmp_path, capsys, command, key):
        """A delta schedule keeps every rung's field in the trace, and each
        s value costs three power arrays per Moser level: both lists are
        refused past 64 entries at parse, before anything is written; 64
        parse."""
        cfg = zero_moser_config()
        values = [0.9 ** (k + 1) for k in range(65)]
        if key == "s_values":
            cfg["s_values"] = values[:64]
            assert len(parse_config(cfg).s_values) == 64
            cfg["s_values"] = values
            message = "'s_values' holds at most 64 values"
        else:
            cfg["solver"]["delta_schedule"] = values[:64]
            assert len(parse_config(cfg).solver.delta_schedule) == 64
            cfg["solver"]["delta_schedule"] = values
            message = "'solver.delta_schedule' holds at most 64 deltas"
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        assert capsys.readouterr().err == f"lingrow: {message}\n"
        assert not out.exists()


class TestFullReport:
    def full_config(self):
        cfg = {
            "seed": 11,
            "density": {"kind": "minimal_surface"},
            "grid": {"nx": 24, "ny": 24, "h": 1.0 / 24},
            "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01],
                       "residual_tol": 1e-9},
            "problem": {"kind": "fidelity",
                        "density": {"kind": "minimal_surface"},
                        "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                                            "center": [0.8, 0.8],
                                            "cap": 100.0, "noise": 0.5}},
                        "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
                        "lambda": 0.5},
            "ball": {"center": [0.5, 0.5], "r0": 0.4, "j_max": 3},
            "s_values": [0.0, 1.0],
            "minimality_trials": 15,
        }
        return cfg

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = self.full_config()
        rc1, out1 = run(tmp_path, "full-report", cfg, out="a")
        rc2, out2 = run(tmp_path, "full-report", cfg, out="b")
        assert rc1 == rc2
        first, second = tree_bytes(out1), tree_bytes(out2)
        assert sorted(first) == sorted(second)
        assert first == second

    def test_certifies_the_density_the_problem_minimizes(self, tmp_path):
        """density-check certifies the top-level density; full-report the
        problem's, which is the one its solve minimizes."""
        cfg = self.full_config()
        cfg["density"] = {"kind": "phi_mu", "mu": 1.5}
        rc, out = run(tmp_path, "density-check", cfg, out="check")
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["profile"] == {"kind": "phi_mu", "mu": 1.5}
        rc, out = run(tmp_path, "full-report", cfg, out="full")
        report = read_json(out / "condition_report.json")
        assert report["profile"] == {"kind": "minimal_surface"}
        summary = read_json(out / "report.json")
        assert summary["density_passed"] is report["all_passed"] is True
        assert rc == (0 if summary["passed"] else 1)

    def test_a_regularized_density_passes_its_certificate(self, tmp_path):
        """A Dirichlet problem on delta phi_1.5 + minimal_surface at delta
        1e-6.  The grid is 20x20 because 16x16 holds no ball family: the
        widest first annulus is r0/4 (n = 2), and two cells of it need r0
        to be half the side."""
        cfg = affine_dirichlet_config(nx=20)
        cfg["problem"]["density"] = REGULARIZED_MS
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.45, "j_max": 1}
        rc, out = run(tmp_path, "full-report", cfg)
        assert read_json(out / "report.json")["density_passed"] is True
        report = read_json(out / "condition_report.json")
        assert report["constants"]["mu_certified"] == 1.5
        assert rc == 0

    def test_report_summarizes_all_checks(self, tmp_path):
        rc, out = run(tmp_path, "full-report", self.full_config())
        report = read_json(out / "report.json")
        assert set(report) == {"density_passed", "minimality_passed",
                               "moser_passed", "ball", "passed"}
        assert report["density_passed"] is True
        assert report["minimality_passed"] is True
        assert rc == (0 if report["passed"] else 1)
        assert (out / "condition_report.json").exists()
        assert (out / "trace.csv").exists()
        assert (out / "sup_vs_delta.csv").exists()
        assert (out / "moser_0p01.csv").exists()

    @pytest.mark.parametrize("channels", [2, 3])
    def test_a_multi_channel_dirichlet_report(self, tmp_path, channels):
        """N = 2: the edge spike beside the affine x - y; N = 3: the spike,
        its transpose and x - y, whose Newton product couples each channel
        to two others; both read from CSV.  No rung writes a PGM or a
        render range, the final solution has N rows per cell, the audits
        read magnitudes, and a second run writes the same bytes."""
        grid = Grid2(32, 32, 0.03125)
        X, Y = grid.centers()
        cfg = spike_config()
        spike = make_function(cfg["problem"]["u0"]["synthetic"])
        stack = [spike(X, Y), spike(Y, X)][:channels - 1] + [X - Y]
        field_to_csv(tmp_path / "u0.csv",
                     Field(grid, np.stack(stack, axis=-1)))
        cfg["problem"]["u0"] = {"csv": {"path": "u0.csv"}}
        rc, out = run(tmp_path, "full-report", cfg, out="a")
        assert rc == 0
        records = read_json(out / "trace.json")["records"]
        assert len(records) == 4
        assert all(rec["pgm"] is rec["pgm_lo"] is rec["pgm_hi"] is None
                   for rec in records)
        names = os.listdir(out)
        assert not [name for name in names if name.endswith(".pgm")]
        for suffix in (".json", ".csv"):
            assert len([name for name in names if name.startswith("moser_")
                        and name.endswith(suffix)]) == len(records)
        lines = (out / "solution_final.csv").read_text().splitlines()
        assert len(lines) == 1 + channels * 32 * 32
        final = field_from_csv(out / "solution_final.csv")
        assert final.grid == grid and final.channels == channels
        # the audit's sup is that of |u| over the limit ball
        audit = read_json(out / "moser_0p0001.json")
        inside = (X - 0.5) ** 2 + (Y - 0.5) ** 2 < audit["r_inf"] ** 2
        magnitude = np.linalg.norm(final.values, axis=-1)
        assert audit["sup_bound"]["observed"] == pytest.approx(
            magnitude[inside].max(), rel=1e-15)
        assert magnitude[inside].max() > np.abs(final.values[inside]).max()
        rc, again = run(tmp_path, "full-report", cfg, out="b")
        assert rc == 0 and tree_bytes(again) == tree_bytes(out)

    def test_a_two_channel_fidelity_report(self, tmp_path):
        """N = 2 with a data term: the inverse-sqrt spike beside the affine
        x - y, read from CSV, fitted off the mask, with an automatic ball.
        No rung writes a PGM, the final solution has two rows per cell, the
        ball is chosen from |f| and the audit's sup is that of |u|, and a
        second run writes the same bytes."""
        grid = Grid2(64, 64, 0.015625)
        X, Y = grid.centers()
        spike = make_function({"kind": "inverse_sqrt_spike",
                               "center": [0.8, 0.8], "cap": 100.0})
        datum = Field(grid, np.stack([spike(X, Y), X - Y], axis=-1))
        field_to_csv(tmp_path / "pair.csv", datum)
        cfg = {"grid": {"nx": 64, "ny": 64, "h": 0.015625},
               "solver": {"mu": 1.5},
               "problem": {"kind": "fidelity",
                           "density": {"kind": "minimal_surface"},
                           "f": {"csv": {"path": "pair.csv"}},
                           "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
                           "lambda": 0.5},
               "ball": {"auto": True, "x0": [0.25, 0.45], "j_max": 2}}
        rc, out = run(tmp_path, "full-report", cfg, out="a")
        assert rc == 0
        records = read_json(out / "trace.json")["records"]
        assert len(records) == 4
        assert all(rec["pgm"] is rec["pgm_lo"] is rec["pgm_hi"] is None
                   for rec in records)
        assert not [name for name in os.listdir(out) if name.endswith(".pgm")]
        lines = (out / "solution_final.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 64 * 64
        final = field_from_csv(out / "solution_final.csv")
        assert final.grid == grid and final.channels == 2
        # r0 and eps0 are those of the datum's magnitude |f|
        f = Field(grid, np.hypot(datum.values[:, :, 0], datum.values[:, :, 1]))
        chosen = select_radius(f, Mask.from_rect(grid, 0.1, 0.4, 0.3, 0.6),
                               0.5, (0.25, 0.45))
        ball = read_json(out / "report.json")["ball"]
        assert (ball["r0"], ball["epsilon0"]) == chosen == (0.125, 0.25)
        # the audit's sup is that of |u| over the limit ball
        audit = read_json(out / "moser_0p0001.json")
        inside = (X - 0.25) ** 2 + (Y - 0.45) ** 2 < audit["r_inf"] ** 2
        magnitude = np.hypot(final.values[:, :, 0], final.values[:, :, 1])
        assert audit["sup_bound"]["observed"] == magnitude[inside].max()
        assert magnitude[inside].max() > np.abs(final.values[inside]).max()
        rc, again = run(tmp_path, "full-report", cfg, out="b")
        assert rc == 0 and tree_bytes(again) == tree_bytes(out)


def spike_config(n=32, **ball):
    """The n^2 edge spike with a ball family of r0 0.3, as keyed."""
    return {
        "grid": {"nx": n, "ny": n, "h": 1.0 / n},
        "solver": {"mu": 1.5},
        "problem": {"kind": "dirichlet",
                    "density": {"kind": "minimal_surface"},
                    "u0": {"synthetic": {"kind": "edge_spike",
                                         "height": 100.0, "width": 0.1,
                                         "center": [0.5, 0.0],
                                         "background": [2.0, 1.0, 1.0]}}},
        "ball": {"center": [0.5, 0.5], "r0": 0.3, "j_max": 3, **ball},
    }


def without(cfg, *keys):
    return {k: v for k, v in cfg.items() if k not in keys}


def with_problem(cfg, **entries):
    return {**cfg, "problem": {**cfg["problem"], **entries}}


NO_RADIUS = {
    "grid": {"nx": 16, "ny": 16, "h": 0.0625},
    "solver": {"mu": 1.5},
    "problem": {"kind": "fidelity", "density": {"kind": "minimal_surface"},
                "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                                    "center": [0.5, 0.5], "cap": 1e6}},
                "lambda": 0.5},
    "ball": {"auto": True, "x0": [0.5, 0.5]},
}

# a 64^2 inpainting datum whose one masked cell holds a spike of 1e200, with
# a ball chosen from the datum
MASKED = {
    "grid": {"nx": 64, "ny": 64, "h": 0.015625},
    "solver": {"mu": 1.5},
    "problem": {"kind": "fidelity", "density": {"kind": "minimal_surface"},
                "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                                    "center": [0.2, 0.45], "cap": 1e200}},
                "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
                "lambda": 0.5},
    "ball": {"auto": True, "x0": [0.25, 0.45], "j_max": 2},
}


@pytest.mark.parametrize("command,payload,message", [
    ("moser", without(spike_config(), "ball"),
     "config needs a 'ball' section for this command"),
    ("full-report", without(spike_config(), "ball"),
     "config needs a 'ball' section for this command"),
    ("solve", without(spike_config(), "problem"),
     "config needs a 'problem' section"),
    ("moser", without(spike_config(), "problem"),
     "config needs a 'problem' section"),
    ("full-report", without(spike_config(), "problem"),
     "config needs a 'problem' section"),
    ("density-check", without(spike_config(), "problem"),
     "config needs a 'density' or a 'problem'"),
    ("moser", spike_config(r0=0.1),
     "innermost ball holds 12 cell centres; at least 50 required"),
    ("full-report", spike_config(r0=0.1),
     "innermost ball holds 12 cell centres; at least 50 required"),
    ("moser", NO_RADIUS, "no admissible radius above 3h: "),
    ("full-report", NO_RADIUS, "no admissible radius above 3h: "),
    ("solve", {**MASKED, "ball": {**MASKED["ball"], "auto": "false"}},
     "'ball.auto' must be true or false"),
    ("solve", {**spike_config(), "solver": {"mu": 1.5, "max_iters": 200}},
     "unknown solver key(s): max_iters"),
    ("solve", with_problem(denoise_config(nx=16),
                           mask={"rect": [0.6, 0.6, 0.2, 0.2]}),
     "bad mask rect: rect [x0, y0, x1, y1] needs x0 < x1 and y0 < y1"),
], ids=["moser-noball", "full-report-noball", "solve-noproblem",
        "moser-noproblem", "full-report-noproblem",
        "density-check-nodensity", "moser-thinball", "full-report-thinball",
        "moser-noradius", "full-report-noradius", "solve-autostring",
        "solve-maxiters", "solve-emptyrect"])
def test_a_config_the_command_cannot_run_leaves_no_output_directory(
        tmp_path, capsys, command, payload, message):
    """A missing section, a family the grid cannot audit, an auto ball
    with no admissible radius and a key, a flag or a rect the config does
    not take are found before ``--out`` is made."""
    rc, out = run(tmp_path, command, payload)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("lingrow: " + message)
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("payload,code", [
    # 2^1023 is the largest power of two a float holds
    (with_problem({**spike_config(r0=0.45, j_max=1023),
                   "grid": {"nx": 64, "ny": 64, "h": 0.015625}},
                  u0={"synthetic": {"kind": "edge_spike", "height": 100.0,
                                    "width": 0.1, "center": [0.5, 0.0],
                                    "background": [0.0, 0.0, 0.0]}}), 0),
    # an L^2 norm or a magnitude of 1e300 overflows unless factored; the
    # audits fail their cutoff checks
    (with_problem(spike_config(), u0={"synthetic": {"kind": "constant",
                                                    "value": 1e300}}), 1),
    (with_problem(spike_config(), u0={"csv": {"path": "flat-pair.csv"}}), 1),
    (MASKED, 0),
], ids=["family-1023", "flat-1e300", "flat-pair-1e300", "masked-1e200"])
def test_an_audit_near_the_float_range_leaves_stderr_empty(
        tmp_path, capsys, payload, code):
    """Each run exits 0 or 1 on its audit's verdict, with no warning."""
    field_to_csv(tmp_path / "flat-pair.csv",
                 Field.full(Grid2(32, 32, 0.03125), 1e300, channels=2))
    rc, out = run(tmp_path, "moser", payload)
    assert rc == code
    assert capsys.readouterr().err == ""
    assert read_json(out / "moser_summary.json")["passed"] is (code == 0)


def test_rungs_that_agree_to_six_digits_get_their_own_files(tmp_path):
    """Each rung's PGM and Moser JSON/CSV pair is named by the ``repr`` of
    its delta, so deltas that agree to six significant digits do not
    overwrite each other's files."""
    cfg = {
        "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32},
        "solver": {"mu": 1.5, "delta_schedule": [0.1000001, 0.1, 0.01]},
        "problem": {"kind": "dirichlet",
                    "density": {"kind": "minimal_surface"},
                    "u0": {"synthetic": {"kind": "edge_spike",
                                         "height": 100.0, "width": 0.1,
                                         "center": [0.5, 0.0],
                                         "background": [2.0, 1.0, 1.0]}}},
        "ball": {"center": [0.5, 0.5], "r0": 0.3, "j_max": 3},
        "minimality_trials": 10,
    }
    rc, out = run(tmp_path, "full-report", cfg)
    assert rc == 0
    records = read_json(out / "trace.json")["records"]
    names = [rec["pgm"] for rec in records]
    assert names == ["solution_0p1000001.pgm", "solution_0p1.pgm",
                     "solution_0p01.pgm"]
    files = os.listdir(out)
    assert sorted(f for f in files if f.startswith("solution_")
                  and f.endswith(".pgm")) == sorted(names)
    for ext in ("json", "csv"):
        assert sorted(f for f in files if f.startswith("moser_")
                      and f.endswith("." + ext)) == sorted(
            f"moser_{tag}.{ext}" for tag in ("0p1000001", "0p1", "0p01"))


def test_report_tables_match_the_oracle_byte_for_byte(tmp_path, monkeypatch):
    """A 32^2 full-report writes ``trace.csv``, every ``moser_<tag>.csv``
    and ``sup_vs_delta.csv`` exactly as the oracle renders the records and
    reports the run computed, and ``trace.json`` holds the minimality
    audit's fields without its per-trial margins."""
    solved, audited = [], []

    def solve(*args, **kwargs):
        solved.extend(cli_solve(*args, **kwargs))
        return solved

    def audit(*args, **kwargs):
        audited.append(cli_audit(*args, **kwargs))
        return audited[-1]

    cli_solve, cli_audit = cli.continuation_solve, cli.moser_report
    monkeypatch.setattr(cli, "continuation_solve", solve)
    monkeypatch.setattr(cli, "moser_report", audit)
    cfg = {
        "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32},
        "solver": {"mu": 1.5},
        "problem": {"kind": "dirichlet",
                    "density": {"kind": "minimal_surface"},
                    "u0": {"synthetic": {"kind": "edge_spike",
                                         "height": 100.0, "width": 0.1,
                                         "center": [0.5, 0.0],
                                         "background": [2.0, 1.0, 1.0]}}},
        "ball": {"center": [0.5, 0.5], "r0": 0.3, "j_max": 3},
        "minimality_trials": 10,
    }
    rc, out = run(tmp_path, "full-report", cfg)
    assert rc == 0
    assert len(solved) == len(audited) == 4
    assert (out / "trace.csv").read_text() == oracles.trace_csv(solved)
    for rec, rep in zip(solved, audited):
        tag = cli._delta_tag(rec.delta)
        assert (out / f"moser_{tag}.csv").read_text() == \
            oracles.moser_csv(rep)
    assert (out / "sup_vs_delta.csv").read_text() == \
        oracles.sup_vs_delta_csv(solved, audited)
    fields = {f.name for f in dataclasses.fields(MinimalityReport)}
    minimality = read_json(out / "trace.json")["minimality"]
    assert set(minimality) == fields - {"margins"}


@dataclasses.dataclass
class _Check:
    worst: float
    levels: np.ndarray
    note: str = ""


def test_reports_write_non_finite_floats_as_null(tmp_path):
    """A recursion constant past the float range is inf; a report writes it,
    and nan, as null, and a finite payload exactly as ``json.dump`` does.
    A dataclass is written as its fields, a numpy array or scalar as its
    ``tolist``."""
    path = tmp_path / "r.json"
    cli._write_json(str(path), {"c": [1.0, math.inf, np.float64(-np.inf)],
                                "x": math.nan, "t": (2.5, math.inf),
                                "ok": True, "note": "", "n": 3,
                                "flag": np.bool_(True),
                                "a": np.array([[0.5, np.nan], [np.inf, 2.0]]),
                                "check": _Check(math.inf,
                                                np.array([1.0, -np.inf]))})
    assert read_json(path) == {"c": [1.0, None, None], "x": None,
                               "t": [2.5, None], "ok": True, "note": "",
                               "n": 3, "flag": True,
                               "a": [[0.5, None], [None, 2.0]],
                               "check": {"worst": None, "levels": [1.0, None],
                                         "note": ""}}
    finite = {"b": [0.1, np.float64(1e-300)], "a": {"z": 2, "y": None}}
    cli._write_json(str(path), finite)
    assert path.read_text() == json.dumps(finite, indent=2,
                                          sort_keys=True) + "\n"


def run_python(*args, threads=1):
    """Run a fresh interpreter that imports lingrow from this checkout,
    with ``threads`` BLAS/OpenMP threads; return the words of its standard
    output."""
    src = os.path.dirname(os.path.dirname(lingrow.__file__))
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: BLAS may run one thread whatever it is "
                           "asked for, so the comparison would check nothing")
def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS splits a dot product over its threads above 10 000
    elements, so an inner product handed to BLAS would round by the thread
    count.  A 100x100 grid has 102^2 = 10 404 padded elements, past that
    cutoff; a 96x96 grid (9 604) would stay under it and check nothing."""
    cfg = write_config(tmp_path, spike_config(100, j_max=5))
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        run_python("-m", "lingrow", "full-report", "--config", cfg,
                   "--out", str(out), threads=threads)
        outs.append(tree_bytes(out))
    assert "solution_final.csv" in outs[0]
    assert outs[0].keys() == outs[1].keys()
    assert [name for name in outs[0] if outs[0][name] != outs[1][name]] == []


@pytest.mark.parametrize("module", ["lingrow", "lingrow.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    cfg = write_config(tmp_path, density_config(kind="minimal_surface"))
    run_python("-m", module, "density-check", "--config", cfg,
               "--out", str(tmp_path / "out"))
    assert (tmp_path / "out" / "condition_report.json").exists()


@pytest.mark.parametrize("datum", ["dirichlet", "fidelity-csv"])
def test_a_full_report_does_not_import_numpy_ma(tmp_path, datum):
    """``np.unique`` imports ``numpy.ma``, 1.3 MB of resident memory; a
    full-report, which reads its datum, certifies its density and audits
    its solve, needs it nowhere.  20x20 is about the smallest grid on which
    a ball family's first annulus is two cells wide."""
    if datum == "dirichlet":
        cfg = affine_dirichlet_config(nx=20)
    else:
        cfg = denoise_config(nx=20)
        rng = np.random.default_rng(4)
        field_to_csv(tmp_path / "f.csv", Field(Grid2(20, 20, 1.0 / 20),
                                               rng.normal(size=(20, 20, 1))))
        cfg["problem"]["f"] = {"csv": {"path": "f.csv"}}
    cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.45, "j_max": 2}
    code = """
import sys
from lingrow.cli import main
rc = main(sys.argv[1:])
print(rc, "numpy.ma" in sys.modules)
"""
    rc, imported = run_python("-c", code, "full-report", "--config",
                              write_config(tmp_path, cfg), "--out",
                              str(tmp_path / "out"))
    assert rc == "0"
    assert imported == "False"


def test_a_noise_free_full_report_does_not_import_numpy_random(tmp_path):
    """``numpy.random`` brings in ``secrets``, ``hashlib`` and OpenSSL,
    about 6 MB of resident memory: ``python -m lingrow full-report`` draws
    its minimality trials from SplitMix64 and imports none of them unless
    a synthetic datum is noisy.  No ball family fits a side of fewer than
    17 cells; 20x20 is the grid of the ``numpy.ma`` check above."""
    cfg = affine_dirichlet_config(nx=20)
    cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.45, "j_max": 2}
    code = """
import runpy, sys
sys.argv[0] = "lingrow"
try:
    runpy.run_module("lingrow", run_name="__main__", alter_sys=True)
except SystemExit as done:
    print(done.code, *(name in sys.modules
                       for name in ("numpy.random", "secrets", "_hashlib")))
"""
    words = run_python("-c", code, "full-report", "--config",
                       write_config(tmp_path, cfg), "--out",
                       str(tmp_path / "out"))
    assert words == ["0", "False", "False", "False"]


# ---------------------------------------------------------------------------
# the allocator policy of the command line


def test_the_cli_sets_both_malloc_thresholds(tmp_path, monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *pair: calls.append(pair))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    rc, _ = run(tmp_path, "density-check",
                density_config(kind="minimal_surface"))
    assert rc == 0
    # M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]


def no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), no_libc],
                         ids=["without-mallopt", "cdll-raises"])
def test_the_cli_runs_without_a_glibc_mallopt(tmp_path, monkeypatch, cdll):
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    rc, out = run(tmp_path, "solve", denoise_config(nx=16, noise=0.5))
    assert rc == 0
    assert (out / "solution_final.csv").exists()


@pytest.mark.skipif(sys.platform == "win32",
                    reason="ctypes.CDLL(None) needs a POSIX dlopen")
def test_importing_lingrow_leaves_the_allocator_alone(tmp_path):
    """Only ``cli.main`` looks up ``mallopt``; the library never does."""
    cfg = write_config(tmp_path, density_config(kind="minimal_surface"))
    code = """
import ctypes, sys
looked_up = []
class Spy(ctypes.CDLL):
    def __getattr__(self, name):
        looked_up.append(name)
        return super().__getattr__(name)
ctypes.CDLL = Spy
import lingrow, lingrow.cli
print(looked_up.count("mallopt"))
lingrow.cli.main(sys.argv[1:])
print(looked_up.count("mallopt"))
"""
    assert run_python("-c", code, "density-check", "--config", cfg,
                      "--out", str(tmp_path / "out")) == ["0", "1"]


@pytest.mark.skipif(not (sys.platform.startswith("linux")
                         and platform.libc_ver()[0] == "glibc"),
                    reason="the allocator policy acts on glibc only")
def test_a_128_solve_does_not_churn_page_faults(tmp_path):
    """The minor page faults of a 128x128 spike solve, counted inside the
    process around ``cli.main``.  Measured on Linux x86-64, glibc 2.36:
    1 133-1 135 with the thresholds set, 25 000-33 500 with glibc's
    defaults, which unmap or trim every freed 128-133 KiB temporary."""
    cfg = write_config(tmp_path,
                       {**without(spike_config(128), "ball"), "seed": 1})
    code = """
import resource, sys
from lingrow.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rc = main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    rc, faults = run_python("-c", code, "solve", "--config", cfg, "--out",
                            str(tmp_path / "out"))
    assert rc == "0"
    assert int(faults) < 5000
