"""End-to-end tests of the command line entry point.

Every test drives ``lingrow.cli.main`` with a JSON config written to a
temp directory and checks exit codes and on-disk artifacts.  The committed
fixture pair under ``tests/fixtures`` pins an 8x8 denoising run against an
independently computed dense-Newton solution.
"""

import json
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


def run(tmp_path, command, payload, out="out", extra=()):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    rc = main([command, "--config", cfg, "--out", str(out_dir), *extra])
    return rc, out_dir


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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
        nothing to stderr."""
        cfg = denoise_config(nx=16, noise=1.0, schedule=(0.1,), tol=1e-14,
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

    def test_minimality_trials_zero_exits_two_before_solving(
            self, tmp_path, capsys):
        cfg = denoise_config()
        cfg["minimality_trials"] = 0
        rc, out = run(tmp_path, "solve", cfg)
        assert rc == 2
        assert "minimality_trials" in capsys.readouterr().err
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
