"""Synthetic instance builders and JSON run-configuration parsing."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from lingrow.config import ConfigError, RunConfig, load_config, parse_config
from lingrow.energy import DirichletProblem, FidelityProblem
from lingrow.grids import Field, Grid2, Mask
from lingrow.instances import (dirichlet_boundary_spike, fidelity_inverse_sqrt,
                               make_field, make_function, snap_to_cell)
from lingrow.pgmio import field_to_csv, write_pgm
from lingrow.solver import SolverConfig


# ---------------------------------------------------------------------------
# synthetic field functions


def test_basic_functions():
    constant = make_function({"kind": "constant", "value": 3.0})
    assert constant(np.zeros(2), np.ones(2)).tolist() == [3.0, 3.0]
    affine = make_function({"kind": "affine", "ax": 2.0, "ay": -1.0,
                            "c": 0.5})
    assert affine(1.0, 2.0) == 0.5 + 2.0 - 2.0


def test_edge_spike_geometry():
    fn = make_function({"kind": "edge_spike", "height": 100.0, "width": 0.1,
                        "center": (0.5, 0.0), "background": (2.0, 1.0, 1.0)})
    assert fn(0.5, 0.0) == pytest.approx(100.0 + 2.0 + 0.5)
    assert fn(0.55, 0.0) == pytest.approx(50.0 + 2.0 + 0.55)
    assert fn(0.9, 0.9) == pytest.approx(2.0 + 0.9 + 0.9)  # background only


def test_inverse_sqrt_cap_and_decay():
    fn = make_function({"kind": "inverse_sqrt_spike", "center": (0.5, 0.5),
                        "cap": 100.0})
    assert fn(0.5, 0.5) == 100.0  # the singular point is capped
    assert fn(0.75, 0.5) == pytest.approx(2.0)  # 0.25^(-1/2)
    assert fn(0.5 + 1e-9, 0.5) == 100.0


def test_make_function_dispatch():
    g = Grid2(8, 8, 0.125)
    f = Field.from_function(g, make_function({"kind": "constant", "value": 2.0}))
    assert np.all(f.values == 2.0)
    with pytest.raises(ValueError, match="unknown synthetic field kind"):
        make_function({"kind": "mystery"})


def test_snap_to_cell():
    g = Grid2(8, 8, 0.125)
    p = snap_to_cell(g, (0.33, 0.74))
    xs = set((np.arange(8) + 0.5) * 0.125)
    assert p[0] in xs and p[1] in xs
    assert abs(p[0] - 0.33) <= 0.0625 and abs(p[1] - 0.74) <= 0.0625
    assert snap_to_cell(g, (-5.0, 5.0)) == (0.0625, 0.9375)  # clipped


def test_make_field_noise():
    g = Grid2(8, 8, 0.125)
    spec = {"kind": "constant", "value": 1.0, "noise": 0.5}
    a = make_field(g, spec, 3)
    b = make_field(g, spec, 3)
    assert np.array_equal(a.values, b.values)
    assert np.std(a.values) > 0.1
    with pytest.raises(ValueError, match="need a seed"):
        make_field(g, spec)


@pytest.mark.parametrize("seed", [0, 5, 2 ** 64 - 1])
def test_a_noisy_datum_is_the_seeds_normal_draws(seed):
    """The noise of a synthetic datum is ``noise`` times the seed's
    ``default_rng`` standard normals, bit for bit, through the config as
    through ``make_field``."""
    g = Grid2(12, 10, 0.1)
    syn = {"kind": "inverse_sqrt_spike", "center": [0.8, 0.8], "cap": 100.0}
    clean = make_field(g, syn).values
    want = clean + 0.5 * np.random.default_rng(seed).standard_normal(
        clean.shape)
    noisy = dict(syn, noise=0.5)
    assert make_field(g, noisy, seed).values.tobytes() == want.tobytes()
    cfg = parse_config({
        "seed": seed, "grid": {"nx": 12, "ny": 10, "h": 0.1},
        "problem": {"kind": "fidelity",
                    "density": {"kind": "minimal_surface"},
                    "f": {"synthetic": noisy}}})
    assert cfg.problem.f.values.tobytes() == want.tobytes()


def test_make_field_snaps_center():
    g = Grid2(8, 8, 0.125)
    spec = {"kind": "inverse_sqrt_spike", "center": (0.3, 0.7), "cap": 10.0}
    u = make_field(g, spec)
    assert float(np.max(u.values)) == 10.0  # cap attained on the grid


# ---------------------------------------------------------------------------
# packaged instances


def test_dirichlet_boundary_spike_instance():
    problem = dirichlet_boundary_spike()
    assert isinstance(problem, DirichletProblem)
    assert problem.grid == Grid2(128, 128, 1.0 / 128)
    assert problem.density.kind == "minimal_surface"
    u0 = problem.u0_interior()
    assert 90.0 <= float(np.max(u0.values)) <= 104.0
    # away from the spike only the affine background remains
    assert u0.values[120, 120, 0] == pytest.approx(
        2.0 + (120.5 + 120.5) / 128.0)


def test_fidelity_inverse_sqrt_instance():
    problem = fidelity_inverse_sqrt()
    assert isinstance(problem, FidelityProblem)
    assert problem.lam == 0.5
    assert int(problem.mask.member.sum()) == int(Mask.from_rect(
        problem.grid, 0.1, 0.4, 0.3, 0.6).member.sum())
    assert float(np.max(problem.f.values)) >= 98.0  # cap plus noise
    # the datum's noise is seed 0's, as a config at seed 0 draws it
    again = make_field(problem.grid, {"kind": "inverse_sqrt_spike",
                                      "center": (0.8, 0.8), "cap": 100.0,
                                      "noise": 0.5}, 0)
    assert problem.f.values.tobytes() == again.values.tobytes()
    pure = fidelity_inverse_sqrt(mask_rect=None)
    assert int(pure.mask.member.sum()) == 0


# ---------------------------------------------------------------------------
# config parsing


def base_config():
    return {
        "seed": 7,
        "density": {"kind": "phi_mu", "mu": 2.0},
        "grid": {"nx": 16, "ny": 16, "h": 0.0625},
        "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01],
                   "residual_tol": 1e-9},
        "problem": {
            "kind": "dirichlet",
            "density": {"kind": "minimal_surface"},
            "u0": {"synthetic": {"kind": "affine", "ax": 1.0, "c": 2.0}},
        },
        "ball": {"center": [0.5, 0.5], "r0": 0.3, "j_max": 4},
        "s_values": [0.0, 1.0],
        "minimality_trials": 25,
    }


def test_parse_full_dirichlet_config():
    cfg = parse_config(base_config())
    assert cfg.seed == 7
    assert cfg.density.kind == "phi_mu" and cfg.density.mu == 2.0
    assert cfg.problem.grid == Grid2(16, 16, 0.0625)
    assert isinstance(cfg.problem, DirichletProblem)
    assert cfg.solver.residual_tol == 1e-9
    assert cfg.solver.delta_schedule == (0.1, 0.01)
    assert cfg.ball.r0 == 0.3 and cfg.ball.j_max == 4
    assert cfg.s_values == (0.0, 1.0)
    assert cfg.minimality_trials == 25
    # affine datum sampled onto the ghost ring exactly
    u0 = cfg.problem.u0_interior()
    assert u0.values[3, 5, 0] == pytest.approx(2.0 + 3.5 * 0.0625, rel=1e-14)


def test_parse_fidelity_with_mask_and_auto_ball():
    raw = {
        "grid": {"nx": 16, "ny": 16, "h": 0.0625},
        "problem": {
            "kind": "fidelity",
            "density": {"kind": "minimal_surface"},
            "lambda": 0.5,
            "f": {"synthetic": {"kind": "constant", "value": 1.0,
                                "noise": 0.1}},
            "mask": {"rect": [0.25, 0.25, 0.75, 0.75]},
        },
        "ball": {"auto": True, "x0": [0.5, 0.5]},
    }
    cfg = parse_config(raw)
    p = cfg.problem
    assert isinstance(p, FidelityProblem) and p.lam == 0.5
    assert int(p.mask.member.sum()) == 64
    assert cfg.ball is None and cfg.ball_auto_x0 == (0.5, 0.5)


def test_seed_override_controls_noise():
    raw = {
        "seed": 1,
        "grid": {"nx": 8, "ny": 8, "h": 0.125},
        "problem": {
            "kind": "fidelity",
            "density": {"kind": "minimal_surface"},
            "f": {"synthetic": {"kind": "constant", "value": 0.0,
                                "noise": 1.0}},
        },
    }
    a = parse_config(raw)
    b = parse_config(dict(raw, seed=2))
    c = parse_config(dict(raw, seed=2))
    assert b.seed == 2
    assert not np.array_equal(a.problem.f.values, b.problem.f.values)
    assert np.array_equal(b.problem.f.values, c.problem.f.values)


def as_fidelity(raw, **entries):
    """Turn the base config's problem into a fidelity problem with
    ``entries``; the Dirichlet ``u0`` goes, as it is not a fidelity key."""
    del raw["problem"]["u0"]
    raw["problem"].update(kind="fidelity", **entries)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda r: r.update(density={"kind": "phi_mu", "mu": 0.5}), "bad density"),
    (lambda r: r.update(density={"kind": "phi_mu"}), "bad density"),
    (lambda r: r.update(density={"kind": "phi_mu"}),
     "bad density: missing key 'mu'"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant"}}),
     "bad synthetic field: missing key 'value'"),
    (lambda r: r.update(grid={"nx": 1, "ny": 4, "h": 0.1}), "bad grid"),
    (lambda r: r.update(solver={"mu": 2.5}), "between 1 and 2"),
    (lambda r: r.update(solver={"mu": 1.5, "delta_schedule": [0.01, 0.1]}),
     "bad solver section"),
    (lambda r: r["problem"].update(kind="periodic"), "kind must be"),
    (lambda r: r["problem"].pop("u0"), "needs 'u0'"),
    (lambda r: r["problem"].update(
        u0={"synthetic": {"kind": "constant", "value": 0.0, "noise": 0.5}}),
     "noise-free"),
    (lambda r: r["problem"].update(u0={"nonsense": 1}), "must be 'synthetic'"),
    (lambda r: r.update(ball={"center": [0.5], "r0": 0.2}), "2 numbers"),
    (lambda r: r.update(ball={"r0": 0.2}), "needs 'center'"),
    (lambda r: r.update(ball={"auto": True}), "needs 'x0'"),
    (lambda r: r.update(ball={"center": [0.5, 0.5], "r0": -1.0}), "bad ball"),
    (lambda r: r.update(s_values=[]), "non-empty"),
    (lambda r: r.update(seed="x"), "'seed' must be an integer"),
    (lambda r: r.update(seed=1.5), "'seed' must be an integer"),
    (lambda r: r.update(seed=-1), "'seed' must be an integer >= 0"),
    (lambda r: r.update(minimality_trials=0), "'minimality_trials' must be"),
    (lambda r: r.update(minimality_trials="x"), "'minimality_trials' must be"),
    (lambda r: r.update(s_values=["a"]), "'s_values' must be a number >= 0"),
    (lambda r: r.update(s_values=[1.0, -2.0]), "'s_values' must be"),
    # "auto" is a JSON boolean, never read by its truthiness
    *((lambda r, v=v: r["ball"].update(auto=v),
       "'ball.auto' must be true or false")
      for v in ("false", "no", 1, 0.5, 0, None, "", [])),
    (lambda r: r["ball"].update(j_max=2.5), "'ball.j_max' must be an integer"),
    (lambda r: r.update(ball={"auto": True, "x0": ["a", 0.5]}),
     "'x0' must be a finite number"),
    (lambda r: r.update(ball={"center": [0.5, None], "r0": 0.2}),
     "'center' must be"),
    (lambda r: r.update(ball={"center": [0.5, 0.5], "r0": "big"}),
     "'r0' must be"),
    (lambda r: r["problem"]["u0"]["synthetic"].update(noise="x"),
     "'noise' must be"),
    (lambda r: r.update(solver={"max_iter": 5}),
     "unknown solver key\\(s\\): max_iter"),
    (lambda r: r.update(solver={"mu": 1.5, "spectral_steps": False}),
     "unknown solver key\\(s\\): spectral_steps"),
    # values of the wrong type or range inside the converted sections
    (lambda r: r.update(grid={"nx": float("inf"), "ny": 16, "h": 0.0625}),
     "bad grid: 'grid.nx' must be an integer >= 2"),
    (lambda r: r.update(solver={"residual_tol": float("inf")}),
     "bad solver section: 'solver.residual_tol' must be a finite number"),
    # numbers must be JSON numbers and counts integers: none is coerced
    (lambda r: r["grid"].update(nx=16.9), "'grid.nx' must be an integer"),
    (lambda r: r["grid"].update(nx="16"), "'grid.nx' must be an integer"),
    (lambda r: r["grid"].update(h=True), "'grid.h' must be a number > 0"),
    (lambda r: r.update(seed=True), "'seed' must be an integer"),
    # the Newton budget is fixed, not a key
    (lambda r: r.update(solver={"max_iters": 200}),
     "unknown solver key\\(s\\): max_iters"),
    (lambda r: r.update(solver={"delta_schedule": {"0.1": 1}}),
     "'solver.delta_schedule' must be a list of numbers"),
    (lambda r: r.update(solver={"mu": "1.5"}),
     "'solver.mu' must be a finite number"),
    (lambda r: r.update(solver={"residual_tol": "1e-9"}),
     "'solver.residual_tol' must be a finite number"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0}},
        **{"lambda": "0.5"}),
     "'lambda' must be a number > 0"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0}},
        mask={"rect": ["0.1", 0.2, 0.3, 0.4]}),
     "'mask.rect' must be a finite number"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0}},
        mask={"circle": [0.5, 0.5, 0.2]}),
     "mask must be 'rect' or 'pgm'"),
    (lambda r: r["problem"]["u0"].update(synthetic=None),
     "synthetic datum must be an object"),
    (lambda r: r["problem"]["u0"]["synthetic"].update(center="ab"),
     "bad synthetic datum"),
    (lambda r: r["problem"]["u0"]["synthetic"].update(ax=None),
     "bad synthetic datum"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "background": [[[[0.0]]], 1.0, 1.0]}),
     "bad synthetic datum"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "inverse_sqrt_spike",
                                          "center": [0.5]}}),
     "bad synthetic field"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0}},
        mask={"rect": [[0.1], 0.2, 0.3, 0.4]}),
     "bad mask rect"),
    # nor are the numbers of a density or of a synthetic datum
    (lambda r: r.update(density={"kind": "phi_mu", "mu": "1.5"}),
     "bad density: 'mu' must be a finite number"),
    (lambda r: r["problem"].update(density={
        "kind": "combined", "delta": "0.1", "mu": 1.5,
        "base": {"kind": "minimal_surface"}}),
     "bad problem density: 'delta' must be a finite number"),
    (lambda r: r.update(density={
        "kind": "combined", "delta": 0.1, "mu": 1.5,
        "base": {"kind": "phi_mu", "mu": "2"}}),
     "bad density: 'mu' must be a finite"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "height": "100"}),
     "bad synthetic datum: 'height' must be a finite number"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "height": True}),
     "'height' must be a finite"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "width": "0.1"}),
     "'width' must be a finite number"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "center": ["0.5", 0.0]}),
     "'center' must be a finite number"),
    (lambda r: r["problem"]["u0"]["synthetic"].update(center="ab"),
     "'center' needs 2 numbers"),
    (lambda r: r["problem"]["u0"].update(synthetic={
        "kind": "edge_spike", "background": [2.0, 1.0, "1"]}),
     "'background' must be a finite number"),
    (lambda r: r["problem"]["u0"]["synthetic"].update(ay=False),
     "'ay' must be a finite number"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0,
                                          "noise": "0.1"}}),
     "bad synthetic field: 'noise' must be a finite number"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant",
                                          "value": "1.0"}}),
     "'value' must be a finite number"),
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "inverse_sqrt_spike",
                                          "center": [0.5, 0.5],
                                          "cap": "100"}}),
     "'cap' must be a finite number"),
    (lambda r: r.update(seed=2 ** 64), "'seed' must be less than 2\\^64"),
    # a rect with no area is refused, not read as no mask
    (lambda r: as_fidelity(
        r, f={"synthetic": {"kind": "constant", "value": 1.0}},
        mask={"rect": [0.6, 0.6, 0.2, 0.2]}),
     "bad mask rect: rect \\[x0, y0, x1, y1\\] needs x0 < x1 and y0 < y1"),
])
def test_parse_config_errors(mutate, fragment):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


CONSTANT = {"synthetic": {"kind": "constant", "value": 1.0}}
COMBINED_MS = {"kind": "combined", "delta": 0.1, "mu": 1.5,
               "base": {"kind": "minimal_surface"}}


@pytest.mark.parametrize("mutate, message", [
    (lambda r: r.update(minimality_trial=5, s_value=[1.0]),
     "unknown config key(s): minimality_trial, s_value"),
    (lambda r: r.update(density_check={"t_max": 10.0}),
     "unknown config key(s): density_check"),
    (lambda r: r["grid"].update(hx=0.1), "unknown grid key(s): hx"),
    (lambda r: r["problem"].update(f=CONSTANT), "unknown problem key(s): f"),
    (lambda r: as_fidelity(r, f=CONSTANT, lamda=0.5),
     "unknown problem key(s): lamda"),
    (lambda r: r["problem"]["u0"].update(csv={"path": "u0.csv"}),
     "unknown field key(s): csv"),
    (lambda r: as_fidelity(r, f={"pgm": {"path": "f.pgm", "lo": 0.0,
                                         "hi": 1.0, "gamma": 2.0}}),
     "unknown pgm field key(s): gamma"),
    (lambda r: as_fidelity(r, f={"csv": {"path": "f.csv", "sep": ";"}}),
     "unknown csv field key(s): sep"),
    (lambda r: as_fidelity(r, f=CONSTANT, mask={
        "rect": [0.1, 0.1, 0.4, 0.4], "pgm": {"path": "m.pgm"}}),
     "unknown mask key(s): pgm"),
    (lambda r: as_fidelity(r, f=CONSTANT, mask={
        "pgm": {"path": "m.pgm", "invert": True}}),
     "unknown pgm mask key(s): invert"),
    (lambda r: r["ball"].update(jmax=3), "unknown ball key(s): jmax"),
    (lambda r: r.update(ball={"auto": True, "x0": [0.5, 0.5], "r0": 0.2}),
     "unknown ball key(s): r0"),
    (lambda r: r.update(density=dict(COMBINED_MS, delat=0.1)),
     "unknown density key(s): delat"),
    (lambda r: r["problem"].update(density=dict(
        COMBINED_MS, base={"kind": "phi_mu", "mu": 1.2, "delta": 0.1})),
     "unknown density key(s): delta"),
    (lambda r: r["problem"]["u0"].update(
        synthetic={"kind": "edge_spike", "hieght": 5.0}),
     "unknown synthetic datum key(s): hieght"),
    (lambda r: as_fidelity(r, f={"synthetic": {
        "kind": "constant", "value": 1.0, "noize": 0.1}}),
     "unknown synthetic datum key(s): noize"),
], ids=["top-level", "density_check", "grid", "dirichlet-problem",
        "fidelity-problem", "field-two-sources", "pgm-field", "csv-field",
        "mask-two-sources", "pgm-mask", "explicit-ball", "auto-ball",
        "density", "nested-density", "synthetic", "synthetic-noise"])
def test_an_unknown_key_is_a_config_error(mutate, message):
    """A misspelt key is named, never ignored in favour of its default."""
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(raw)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(s_values=[10 ** 400]),
    lambda r: r["ball"].update(r0=-10 ** 400),
], ids=["s_values", "r0"])
def test_an_integer_too_large_for_a_float_is_a_config_error(mutate):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError, match="must be a"):
        parse_config(raw)


@pytest.mark.parametrize("mutate", [
    lambda r: r["problem"].update(u0={"synthetic": {
        "kind": "edge_spike", "width": 0.0, "center": [0.5, 0.0]}}),
    lambda r: as_fidelity(r, f={"synthetic": {"kind": "affine", "ax": 1e308,
                                              "c": 1e308}}),
], ids=["zero-width-spike", "overflowing-affine"])
def test_a_non_finite_synthetic_datum_warns_nothing(mutate):
    """The sample is rejected with one message, and numpy prints nothing."""
    raw = base_config()
    mutate(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(raw)


def test_solver_section_defaults_come_from_solver_config():
    raw = base_config()
    raw["solver"] = {"residual_tol": 1e-7}
    assert parse_config(raw).solver == SolverConfig(residual_tol=1e-7)
    del raw["solver"]
    assert parse_config(raw).solver == SolverConfig()


def test_problem_requires_grid():
    raw = base_config()
    del raw["grid"]
    with pytest.raises(ConfigError, match="needs a 'grid'"):
        parse_config(raw)


def test_fidelity_mask_rect_error():
    raw = {
        "grid": {"nx": 8, "ny": 8, "h": 0.125},
        "problem": {
            "kind": "fidelity",
            "density": {"kind": "minimal_surface"},
            "f": {"synthetic": {"kind": "constant", "value": 1.0}},
            "mask": {"rect": [0.0, 0.0, 1.0]},
        },
    }
    with pytest.raises(ConfigError, match="4 numbers"):
        parse_config(raw)


def test_run_config_requirements():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="'density' or a 'problem'"):
        cfg.require_density()
    with pytest.raises(ConfigError, match="'problem' section"):
        cfg.require_problem()


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()))
    cfg = load_config(path)
    assert cfg.problem.grid.nx == 16

    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_pgm_and_csv_fields_resolved_relative_to_config(tmp_path):
    g = Grid2(8, 8, 0.125)
    u = Field.from_function(g, lambda x, y: x)
    write_pgm(tmp_path / "f.pgm", u, 0.0, 1.0)
    field_to_csv(tmp_path / "f.csv", u)

    raw = {
        "grid": {"nx": 8, "ny": 8, "h": 0.125},
        "problem": {
            "kind": "fidelity",
            "density": {"kind": "minimal_surface"},
            "f": {"pgm": {"path": "f.pgm", "lo": 0.0, "hi": 1.0}},
        },
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert np.max(np.abs(cfg.problem.f.values - u.values)) <= 1.0 / 65535

    raw["problem"]["f"] = {"csv": {"path": "f.csv"}}
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert np.array_equal(cfg.problem.f.values, u.values)

    raw["grid"] = {"nx": 16, "ny": 16, "h": 0.0625}
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="does not match"):
        load_config(path)


def test_mask_pgm_and_dirichlet_datum_from_files(tmp_path):
    g = Grid2(8, 8, 0.125)
    u = Field.from_function(g, lambda x, y: x - 0.5 * y)
    inside = Field.from_function(g, lambda x, y: (x > 0.5) * (y < 0.25))
    write_pgm(tmp_path / "m.pgm", inside, 0.0, 1.0)
    write_pgm(tmp_path / "u.pgm", u, -0.5, 1.0)
    field_to_csv(tmp_path / "u.csv", u)

    raw = {
        "grid": {"nx": 8, "ny": 8, "h": 0.125},
        "problem": {
            "kind": "fidelity",
            "density": {"kind": "minimal_surface"},
            "f": {"csv": {"path": "u.csv"}},
            "mask": {"pgm": {"path": "m.pgm"}},
        },
    }
    cfg = parse_config(raw, base_dir=str(tmp_path))
    # nonzero samples are members
    assert np.array_equal(cfg.problem.mask.member, inside.values[:, :, 0] > 0)
    assert int(cfg.problem.mask.member.sum()) == 8

    raw["problem"] = {"kind": "dirichlet",
                      "density": {"kind": "minimal_surface"},
                      "u0": {"csv": {"path": "u.csv"}}}
    cfg = parse_config(raw, base_dir=str(tmp_path))
    assert isinstance(cfg.problem, DirichletProblem)
    assert np.array_equal(cfg.problem.u0_interior().values, u.values)

    raw["problem"]["u0"] = {"pgm": {"path": "u.pgm", "lo": -0.5, "hi": 1.0}}
    cfg = parse_config(raw, base_dir=str(tmp_path))
    got = cfg.problem.u0_interior().values
    assert np.max(np.abs(got - u.values)) <= 1.5 / 65535
