"""JSON run configuration -> problem objects.

A config is one JSON object; which sections are required depends on the
command.  ``density`` (or the problem's density) feeds ``density-check``;
``grid`` + ``problem`` + ``solver`` feed the continuation solve; ``ball``
(explicit, or ``auto`` around ``x0`` for fidelity problems) feeds the
interior-boundedness audit.  Malformed configs raise ``ConfigError``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .energy import DirichletProblem, FidelityProblem
from .grids import Field, Grid2, Mask
from .instances import make_field, make_function, snap_to_cell
from .moser import BallFamily, _check_depth
from .pgmio import field_from_csv, field_from_pgm, mask_from_pgm
from .profiles import RadialProfile, combined, minimal_surface, phi_mu
from .solver import SolverConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_FLOAT_MAX = float(np.finfo(float).max)


@dataclass
class RunConfig:
    """A parsed run config: the density to certify and its sample grid, the
    grid, problem and solver, the Moser ball family (or the point an
    automatic one is chosen around) and the audits' settings."""

    seed: int = 0
    density: RadialProfile | None = None
    density_t_max: float = 100.0
    density_samples: int = 1000
    grid: Grid2 | None = None
    problem: DirichletProblem | FidelityProblem | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    ball: BallFamily | None = None
    ball_auto_x0: tuple[float, float] | None = None
    ball_n: int = 2
    ball_j_max: int = 6
    s_values: tuple[float, ...] = (0.0, 1.0, 3.0)
    minimality_trials: int = 100

    def require_density(self) -> RadialProfile:
        if self.density is not None:
            return self.density
        if self.problem is not None:
            return self.problem.density
        raise ConfigError("config needs a 'density' or a 'problem'")

    def require_problem(self):
        if self.problem is None:
            raise ConfigError("config needs a 'problem' section")
        return self.problem


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@contextmanager
def _section(prefix: str, *also: type[Exception]):
    """Turn what converting a JSON value of the wrong type, size or range
    raises, and the exceptions in ``also``, into one ``ConfigError``:
    ``prefix: reason``, where a missing key reads ``missing key 'name'``.
    A ``ConfigError`` from a validator inside is a ``ValueError``, so its
    message gains the prefix."""
    try:
        yield
    except (*also, KeyError, IndexError, TypeError, ValueError,
            OverflowError) as err:
        reason = f"missing key {err.args[0]!r}" if isinstance(err, KeyError) \
            else err
        raise ConfigError(f"{prefix}: {reason}") from err


def _keys(spec, section: str, *allowed: str) -> dict:
    """``spec``, an object with no key outside ``allowed``: a misspelt key
    would otherwise be ignored and its default used."""
    _expect(isinstance(spec, dict), f"'{section}' must be an object")
    unknown = sorted(str(k) for k in spec if k not in allowed)
    _expect(not unknown, f"unknown {section} key(s): " + ", ".join(unknown))
    return spec


def _kind_keys(spec: dict, section: str, kinds: dict, *common: str) -> None:
    """``_keys`` with the keys that ``kinds`` lists for ``spec``'s kind; an
    unknown kind is left for its constructor to name."""
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in kinds:
        _keys(spec, section, "kind", *common, *kinds[kind])


# the keys of each kind of density, problem and synthetic datum
_DENSITY_KEYS = {"phi_mu": ("mu",), "minimal_surface": (),
                 "combined": ("mu", "delta", "base")}
_PROBLEM_KEYS = {"dirichlet": ("u0",), "fidelity": ("f", "mask", "lambda")}
_SYNTHETIC_KEYS = {"constant": ("value",), "affine": ("ax", "ay", "c"),
                   "edge_spike": ("height", "width", "center", "background"),
                   "inverse_sqrt_spike": ("center", "cap")}


def _count(value, name: str, least: int) -> int:
    """An integer of at least ``least``; booleans and floats are rejected."""
    _expect(isinstance(value, int) and not isinstance(value, bool)
            and value >= least, f"'{name}' must be an integer >= {least}")
    return value


def _real(value, name: str, least: float | None = None,
          strict: bool = False) -> float:
    """A finite number, optionally bounded below (strictly or not);
    booleans, strings and integers too large for a float are rejected."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= _FLOAT_MAX  # False for NaN and the infinities
    if least is None:
        _expect(ok, f"'{name}' must be a finite number")
    elif strict:
        _expect(ok and value > least, f"'{name}' must be a number > {least:g}")
    else:
        _expect(ok and value >= least,
                f"'{name}' must be a number >= {least:g}")
    return float(value)


# the delta schedule and the Moser exponents hold at most this many entries
_LIST_MAX = 64
# a density nests at most this many ``base`` levels: the profiles and the
# report writers recurse once or twice per level, and 600 levels overflow
# the interpreter's stack while ``condition_report.json`` is written
_DENSITY_DEPTH_MAX = 32


def _parse_density(spec, depth: int = 0) -> RadialProfile:
    """The density ``spec`` describes, ``depth`` levels down a nest, built in
    the walk that checks its depth, keys and JSON numbers (none converted)."""
    _expect(isinstance(spec, dict) and "kind" in spec,
            "profile description must be a dict with a 'kind'")
    _expect(depth <= _DENSITY_DEPTH_MAX, "a density nests at most "
            f"{_DENSITY_DEPTH_MAX} 'base' levels")
    _kind_keys(spec, "density", _DENSITY_KEYS)
    kind = spec["kind"]
    if kind == "phi_mu":
        return phi_mu(_real(spec["mu"], "mu"))
    if kind == "minimal_surface":
        return minimal_surface()
    if kind == "combined":
        return combined(_real(spec["delta"], "delta"), _real(spec["mu"], "mu"),
                        _parse_density(spec["base"], depth + 1))
    raise ConfigError(f"unknown profile kind {kind!r}")


# the numbers of a synthetic datum, and its points with their lengths
_SYNTHETIC_NUMBERS = ("value", "ax", "ay", "c", "height", "width", "cap",
                      "noise")
_SYNTHETIC_POINTS = {"center": 2, "background": 3}


def _check_synthetic(spec) -> None:
    """Every number of a synthetic datum is a JSON number: none is
    converted by ``make_function`` or ``make_field``."""
    _expect(isinstance(spec, dict), "synthetic datum must be an object")
    for key in _SYNTHETIC_NUMBERS:
        if key in spec:
            _real(spec[key], key)
    for key, length in _SYNTHETIC_POINTS.items():
        if key in spec:
            point = spec[key]
            _expect(isinstance(point, list) and len(point) == length,
                    f"'{key}' needs {length} numbers")
            for x in point:
                _real(x, key)
    _kind_keys(spec, "synthetic datum", _SYNTHETIC_KEYS, "noise")


def _parse_field(spec, grid: Grid2, seed: int, base_dir: str) -> Field:
    _expect(isinstance(spec, dict), "field description must be an object")
    if "synthetic" in spec:
        _keys(spec, "field", "synthetic")
        with _section("bad synthetic field"):
            _check_synthetic(spec["synthetic"])
            # sampled silently: the field rejects a sample that is not
            # finite, with one message
            with np.errstate(all="ignore"):
                return make_field(grid, spec["synthetic"], seed)
    if "pgm" in spec:
        p = _keys(_keys(spec, "field", "pgm")["pgm"], "pgm field", "path",
                  "lo", "hi")
        with _section("bad PGM field", OSError):
            f = field_from_pgm(os.path.join(base_dir, p["path"]), grid.h,
                               _real(p["lo"], "pgm.lo"),
                               _real(p["hi"], "pgm.hi"))
        _expect(f.grid == grid, "PGM dimensions do not match the grid")
        return f
    if "csv" in spec:
        _keys(_keys(spec, "field", "csv")["csv"], "csv field", "path")
        with _section("bad CSV field", OSError):
            f = field_from_csv(os.path.join(base_dir, spec["csv"]["path"]))
        _expect(f.grid == grid, "CSV grid does not match the config grid")
        return f
    raise ConfigError("field must be 'synthetic', 'pgm', or 'csv'")


def _parse_mask(spec, grid: Grid2, base_dir: str) -> Mask:
    if spec is None:
        return Mask.empty(grid)
    _expect(isinstance(spec, dict), "mask description must be an object")
    if "rect" in spec:
        r = _keys(spec, "mask", "rect")["rect"]
        _expect(isinstance(r, list) and len(r) == 4, "mask rect needs 4 numbers")
        with _section("bad mask rect"):
            return Mask.from_rect(grid, *(_real(x, "mask.rect") for x in r))
    if "pgm" in spec:
        _keys(_keys(spec, "mask", "pgm")["pgm"], "pgm mask", "path")
        with _section("bad mask PGM", OSError):
            m = mask_from_pgm(os.path.join(base_dir, spec["pgm"]["path"]), grid.h)
        _expect(m.grid == grid, "mask dimensions do not match the grid")
        return m
    raise ConfigError("mask must be 'rect' or 'pgm'")


def _parse_problem(spec, grid: Grid2 | None, seed: int, base_dir: str):
    _expect(isinstance(spec, dict), "'problem' must be an object")
    _expect(grid is not None, "'problem' needs a 'grid' section")
    kind = spec.get("kind")
    _kind_keys(spec, "problem", _PROBLEM_KEYS, "density")
    with _section("bad problem density"):
        density = _parse_density(spec["density"])
    if kind == "dirichlet":
        _expect("u0" in spec, "dirichlet problem needs 'u0'")
        u0_spec = spec["u0"]
        if isinstance(u0_spec, dict) and "synthetic" in u0_spec:
            # analytic data can be sampled on the ghost ring directly
            _keys(u0_spec, "field", "synthetic")
            syn = u0_spec["synthetic"]
            with _section("bad synthetic datum"):
                _check_synthetic(syn)
                _expect(syn.get("noise", 0.0) == 0.0,
                        "dirichlet data must be noise-free")
                syn = dict(syn)
                if "center" in syn:
                    syn["center"] = snap_to_cell(grid, tuple(syn["center"]))
                with np.errstate(all="ignore"):  # as in _parse_field
                    return DirichletProblem.from_function(
                        grid, make_function(syn), density)
        u0 = _parse_field(u0_spec, grid, seed, base_dir)
        with _section("bad dirichlet datum"):
            return DirichletProblem.from_field(u0, density)
    if kind == "fidelity":
        _expect("f" in spec, "fidelity problem needs 'f'")
        f = _parse_field(spec["f"], grid, seed, base_dir)
        mask = _parse_mask(spec.get("mask"), grid, base_dir)
        with _section("bad fidelity problem"):
            lam = _real(spec.get("lambda", 1.0), "lambda", 0.0, strict=True)
            return FidelityProblem(grid, f, mask, lam, density)
    raise ConfigError("problem kind must be 'dirichlet' or 'fidelity'")


def parse_config(raw: dict, base_dir: str = ".") -> RunConfig:
    _keys(raw, "config", "seed", "density", "density_check", "grid",
          "solver", "problem", "ball", "s_values", "minimality_trials")
    cfg = RunConfig()
    cfg.seed = _count(raw.get("seed", 0), "seed", 0)
    # the audit's SplitMix64 counter is 64 bits wide
    _expect(cfg.seed < 2 ** 64, "'seed' must be less than 2^64")

    if "density" in raw:
        with _section("bad density"):
            cfg.density = _parse_density(raw["density"])
    dc = _keys(raw.get("density_check", {}), "density_check", "t_max",
               "samples")
    cfg.density_t_max = _real(dc.get("t_max", 100.0), "density_check.t_max",
                              0.0, strict=True)
    # far below where the profiles' closed forms overflow on the tail
    _expect(cfg.density_t_max <= 1e8,
            "'density_check.t_max' must be at most 1e8")
    cfg.density_samples = _count(dc.get("samples", 1000),
                                 "density_check.samples", 100)
    # 10^6 samples take about 0.3 s and 120 MB to certify
    _expect(cfg.density_samples <= 10 ** 6,
            "'density_check.samples' must be at most 1000000")

    if "grid" in raw:
        g = _keys(raw["grid"], "grid", "nx", "ny", "h")
        with _section("bad grid"):
            cfg.grid = Grid2(_count(g["nx"], "grid.nx", 2),
                             _count(g["ny"], "grid.ny", 2),
                             _real(g["h"], "grid.h", 0.0, strict=True))

    if "solver" in raw:
        s = _keys(raw["solver"], "solver",
                  *(f.name for f in fields(SolverConfig)))
        with _section("bad solver section"):
            # only the keys given; SolverConfig supplies the defaults and
            # checks the ranges
            given = {}
            if "mu" in s:
                given["mu"] = _real(s["mu"], "solver.mu")
            if "delta_schedule" in s:
                sched = s["delta_schedule"]
                _expect(isinstance(sched, list),
                        "'solver.delta_schedule' must be a list of numbers")
                given["delta_schedule"] = tuple(
                    _real(d, "solver.delta_schedule") for d in sched)
            if s.get("residual_tol") is not None:
                given["residual_tol"] = _real(s["residual_tol"],
                                              "solver.residual_tol")
            if "max_iters" in s:
                given["max_iters"] = _count(s["max_iters"],
                                            "solver.max_iters", 1)
            cfg.solver = SolverConfig(**given)

    if "problem" in raw:
        cfg.problem = _parse_problem(raw["problem"], cfg.grid, cfg.seed,
                                     base_dir)

    if "ball" in raw:
        b = raw["ball"]
        _expect(isinstance(b, dict), "'ball' must be an object")
        _keys(b, "ball", "auto", "n", "j_max",
              *(("x0",) if b.get("auto") else ("center", "r0")))
        cfg.ball_n = _count(b.get("n", 2), "ball.n", 2)
        cfg.ball_j_max = _count(b.get("j_max", 6), "ball.j_max", 1)
        if b.get("auto"):
            _expect("x0" in b, "auto ball selection needs 'x0'")
            x0 = b["x0"]
            _expect(isinstance(x0, list) and len(x0) == 2, "'x0' needs 2 numbers")
            cfg.ball_auto_x0 = (_real(x0[0], "x0"), _real(x0[1], "x0"))
            # the radius waits for the datum; the rest is checked here
            with _section("bad ball"):
                _expect(not isinstance(cfg.problem, DirichletProblem),
                        "auto ball selection needs a fidelity problem")
                _check_depth(cfg.ball_n, cfg.ball_j_max)
        else:
            _expect("center" in b and "r0" in b,
                    "ball needs 'center' and 'r0' (or 'auto' with 'x0')")
            c = b["center"]
            _expect(isinstance(c, list) and len(c) == 2,
                    "'center' needs 2 numbers")
            center = (_real(c[0], "center"), _real(c[1], "center"))
            r0 = _real(b["r0"], "r0")
            with _section("bad ball"):
                cfg.ball = BallFamily(center, r0, n=cfg.ball_n,
                                      j_max=cfg.ball_j_max)

    # each rung's field stays in the records (4000 rungs of a 128^2 solve
    # took 559 MB), and each s value costs three power arrays of the outer
    # ball's cells per report
    _expect(len(cfg.solver.delta_schedule) <= _LIST_MAX,
            f"'solver.delta_schedule' holds at most {_LIST_MAX} deltas")
    if "s_values" in raw:
        s = raw["s_values"]
        _expect(isinstance(s, list) and s, "'s_values' must be a non-empty list")
        _expect(len(s) <= _LIST_MAX,
                f"'s_values' holds at most {_LIST_MAX} values")
        cfg.s_values = tuple(_real(x, "s_values", 0.0) for x in s)
    if "minimality_trials" in raw:
        cfg.minimality_trials = _count(raw["minimality_trials"],
                                       "minimality_trials", 1)
        # a trial costs about 0.5 ms at 128^2 (101 take 49-58 ms), so 10^5
        # take about a minute
        _expect(cfg.minimality_trials <= 10 ** 5,
                "'minimality_trials' must be at most 100000")
    return cfg


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    except RecursionError as err:
        raise ConfigError("config is nested too deeply to parse") from err
    return parse_config(raw, base_dir=os.path.dirname(os.fspath(path)) or ".")
