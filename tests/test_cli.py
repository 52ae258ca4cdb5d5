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
from lingrow import cli
from lingrow.cli import main
from lingrow.config import ConfigError, parse_config
from lingrow.grids import Field, Grid2
from lingrow.pgmio import field_from_csv, field_to_csv, read_pgm

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def density_config(**density):
    return {"density": density, "density_check": {"t_max": 50.0, "samples": 300}}


def denoise_config(value=2.5, noise=0.0, nx=8, lam=0.7, seed=3,
                   schedule=(0.1, 0.01), tol=1e-11, max_iters=20000):
    return {
        "seed": seed,
        "grid": {"nx": nx, "ny": nx, "h": 1.0 / nx},
        "solver": {"mu": 1.5, "delta_schedule": list(schedule),
                   "residual_tol": tol, "max_iters": max_iters},
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


def run(tmp_path, command, payload, out="out", extra=()):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    rc = main([command, "--config", cfg, "--out", str(out_dir), *extra])
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
        assert report["sample_count"] == 300
        assert report["constants"]["mu_certified"] == pytest.approx(2.0,
                                                                    abs=0.05)

    def test_minimal_surface_certifies_mu_three(self, tmp_path):
        rc, out = run(tmp_path, "density-check", density_config(
            kind="minimal_surface"))
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["constants"]["mu_certified"] == pytest.approx(3.0,
                                                                    abs=0.05)

    def test_a_t_max_below_the_tail_still_certifies_mu_three(self, tmp_path):
        """The asymptotics are read up to 1e4 whatever t_max is."""
        cfg = density_config(kind="minimal_surface")
        cfg["density_check"]["t_max"] = 0.001
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 0
        report = read_json(out / "condition_report.json")
        assert report["constants"]["mu_certified"] == pytest.approx(3.0,
                                                                    abs=0.05)

    def test_t_max_at_its_bound_certifies(self, tmp_path):
        cfg = density_config(kind="minimal_surface")
        cfg["density_check"]["t_max"] = 1e8
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 0
        assert read_json(out / "condition_report.json")["t_max"] == 1e8

    def test_t_max_past_its_bound_exits_two_with_one_line(self, tmp_path,
                                                          capsys):
        cfg = density_config(kind="minimal_surface")
        cfg["density_check"]["t_max"] = 1e9
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "lingrow: 'density_check.t_max' must be at most 1e8\n"
        assert not out.exists()

    def test_samples_past_their_bound_exit_two_with_one_line(self, tmp_path,
                                                             capsys):
        """The count is refused at parse, before any sample is allocated;
        10^6, the bound, parses."""
        cfg = density_config(kind="phi_mu", mu=1.5)
        cfg["density_check"]["samples"] = 10 ** 6
        assert parse_config(cfg).density_samples == 10 ** 6
        cfg["density_check"]["samples"] = 10 ** 13
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == ("lingrow: 'density_check.samples' must be at most "
                       "1000000\n")
        assert not out.exists()

    def test_sub_linear_mu_rejected_at_parse(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "density-check", density_config(
            kind="phi_mu", mu=0.5))
        assert rc == 2
        assert capsys.readouterr().err.startswith("lingrow:")

    def test_bad_sample_count_exits_two_with_one_line(self, tmp_path,
                                                      capsys):
        cfg = density_config(kind="phi_mu", mu=2.0)
        cfg["density_check"]["samples"] = "x"
        rc, out = run(tmp_path, "density-check", cfg)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("lingrow: 'density_check.samples'")
        assert err.count("\n") == 1
        assert not out.exists()

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
    def test_a_grid_two_cells_wide_solves(self, tmp_path, grid, problem):
        """The default interior ball holds a cell centre on a side of 2
        cells, so the run writes all its files."""
        cfg = {"grid": grid, "solver": {"mu": 1.5}, "problem": problem}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
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

    def test_a_flat_solution_past_1e16_writes_its_images(self, tmp_path):
        """A flat range widens to lo + 1, or to the next float where that
        rounds back to lo."""
        cfg = affine_dirichlet_config(nx=8)
        del cfg["solver"]["delta_schedule"]
        cfg["problem"]["u0"] = {"synthetic": {"kind": "constant",
                                              "value": 1e300}}
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 0
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
        out_dir = tmp_path / "out"
        rc = main(["solve", "--config", os.path.join(FIXTURES, "oracle8.json"),
                   "--out", str(out_dir), "--seed", "7"])
        assert rc == 0
        got = field_from_csv(out_dir / "solution_final.csv")
        ref = field_from_csv(os.path.join(FIXTURES, "oracle8_solution.csv"))
        assert np.max(np.abs(got.values - ref.values)) > 1e-3

    def test_exhausted_budget_exits_one_with_error_note(self, tmp_path,
                                                        capsys):
        cfg = denoise_config(noise=1.0, schedule=(0.1,), tol=1e-14,
                             max_iters=2)
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
            self, tmp_path, capsys, command, summary, keys):
        """Each command writes the failed solve to its summary file, and
        nothing to stderr.  At 20x20 the first annulus of the ball is two
        cells wide, so the audit's geometry passes before the solve."""
        cfg = denoise_config(nx=20, noise=1.0, schedule=(0.1,), tol=1e-14,
                             max_iters=2)
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

    @pytest.mark.parametrize("problem, reason", [
        ({"f": {"synthetic": {"kind": "constant", "value": 1e160}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"synthetic": {"kind": "inverse_sqrt_spike",
                              "center": [0.8, 0.8], "cap": 1e300}}},
         "bad fidelity problem: the data are too large"),
        ({"f": {"synthetic": {"kind": "constant", "value": 1.0,
                              "noise": 1e300}}},
         "bad fidelity problem: the data are too large"),
        ({"kind": "dirichlet",
          "u0": {"synthetic": {"kind": "edge_spike", "height": 1e200}}},
         "bad synthetic datum: the data are too large"),
        ({"kind": "dirichlet",
          "u0": {"synthetic": {"kind": "affine", "ax": 1e200}}},
         "bad synthetic datum: the data are too large"),
        ({"kind": "dirichlet", "u0": {"csv": {"path": "u0.csv"}}},
         "bad dirichlet datum: the data are too large"),
        ({"lambda": 1e20},
         "bad fidelity problem: lam must lie in [1e-12, 1e8]"),
        ({"lambda": 1e-300},
         "bad fidelity problem: lam must lie in [1e-12, 1e8]"),
    ], ids=["f-1e160", "cap-1e300", "noise-1e300", "spike-1e200",
            "affine-1e200", "csv-dirichlet-1e200", "lambda-1e20",
            "lambda-1e-300"])
    def test_data_past_the_float_range_exit_two_before_solving(
            self, tmp_path, capsys, problem, reason):
        """Data whose energy without the delta term overflows a float, or
        a data weight outside [1e-12, 1e8], are a malformed config, caught
        before the solve."""
        spike = np.zeros((16, 16, 1))
        spike[8, 8, 0] = 1e200
        field_to_csv(tmp_path / "u0.csv", Field(Grid2(16, 16, 1.0 / 16), spike))
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
        assert os.listdir(out) == []

    def test_auto_ball_needs_fidelity(self, tmp_path, capsys):
        cfg = affine_dirichlet_config()
        cfg["ball"] = {"auto": True, "x0": [0.5, 0.5]}
        rc, _ = run(tmp_path, "moser", cfg)
        assert rc == 2
        assert "fidelity" in capsys.readouterr().err

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
        """Too few cells in the innermost ball is found before the solve:
        no trace, solution or image is written."""
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
        assert os.listdir(out) == []

    @pytest.mark.parametrize("ball", [
        {"center": [0.5, 0.5], "r0": 0.3, "j_max": 1024},
        {"center": [0.5, 0.5], "r0": 0.3, "n": 3, "j_max": 2000},
        {"center": [0.5, 0.5], "r0": 0.3, "n": 10 ** 400},
        {"auto": True, "x0": [0.5, 0.5], "j_max": 1024},
    ], ids=["n2-j1024", "n3-j2000", "n-huge", "auto-j1024"])
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
        # an explicit family fails at parse time, before --out is made
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("command", ["moser", "full-report"])
    def test_annuli_thinner_than_two_cells_exit_two_before_solving(
            self, tmp_path, capsys, monkeypatch, command):
        """A wide family (n 355: R_0 - R_1 = r0/n^2) passes the cell count,
        but no annulus can carry the Caccioppoli cutoff; this is found
        before the solve, with no artifact and no numpy warning."""
        def no_solve(*args, **kwargs):
            raise AssertionError("solve started")

        monkeypatch.setattr(cli, "continuation_solve", no_solve)
        cfg = zero_moser_config()
        cfg["ball"] = {"center": [0.5, 0.5], "r0": 0.3, "n": 355,
                       "j_max": 20000}
        rc, out = run(tmp_path, command, cfg)
        assert rc == 2
        assert capsys.readouterr().err == (
            "lingrow: no annulus is at least two cells wide; enlarge r0 or "
            "refine the grid\n")
        assert os.listdir(out) == []

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
            "density_check": {"t_max": 20.0, "samples": 200},
            "grid": {"nx": 24, "ny": 24, "h": 1.0 / 24},
            "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01],
                       "residual_tol": 1e-9, "max_iters": 20000},
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


def run_python(*args):
    """Run a fresh interpreter that imports lingrow from this checkout;
    return the words of its standard output."""
    src = os.path.dirname(os.path.dirname(lingrow.__file__))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


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
    cfg = write_config(tmp_path, {
        "seed": 1,
        "grid": {"nx": 128, "ny": 128, "h": 1.0 / 128},
        "solver": {"mu": 1.5},
        "problem": {"kind": "dirichlet",
                    "density": {"kind": "minimal_surface"},
                    "u0": {"synthetic": {
                        "kind": "edge_spike", "height": 100.0, "width": 0.1,
                        "center": [0.5, 0.0], "background": [2.0, 1.0, 1.0]}}},
    })
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
