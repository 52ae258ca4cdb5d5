"""Config fuzzing of the command line.

Hypothesis replaces one entry of a valid config, at any depth, with an
arbitrary JSON value (NaN and infinities included) or deletes it.  Every
command must then end with exit code 0, 1 or 2 and at most one
``lingrow:`` line on stderr, never a traceback or a warning; exit code 2
must come before any solve starts.  The solve itself is stubbed: it checks
what it is handed and fails as a non-converged solve does (exit code 1).
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from lingrow import cli
from lingrow.energy import DirichletProblem, FidelityProblem
from lingrow.grids import Ball
from lingrow.solver import SolverConfig, SolverError, SolveStats

FIDELITY = {
    "seed": 3,
    "density": {"kind": "phi_mu", "mu": 1.5},
    "density_check": {"t_max": 50.0, "samples": 200},
    "grid": {"nx": 16, "ny": 16, "h": 0.0625},
    "solver": {"mu": 1.5, "delta_schedule": [0.1, 0.01],
               "residual_tol": 1e-9, "max_iters": 100},
    "problem": {"kind": "fidelity",
                "density": {"kind": "combined", "delta": 0.1, "mu": 1.5,
                            "base": {"kind": "minimal_surface"}},
                "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                                    "center": [0.8, 0.8], "cap": 100.0,
                                    "noise": 0.5}},
                "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
                "lambda": 0.5},
    "ball": {"auto": True, "x0": [0.3, 0.5], "n": 2, "j_max": 2},
    "s_values": [0.0, 1.0],
    "minimality_trials": 5,
}

DIRICHLET = {
    "seed": 0,
    "grid": {"nx": 16, "ny": 12, "h": 0.0625},
    "solver": {"mu": 1.5},
    "problem": {"kind": "dirichlet",
                "density": {"kind": "minimal_surface"},
                "u0": {"synthetic": {"kind": "edge_spike", "height": 100.0,
                                     "width": 0.1, "center": [0.5, 0.0],
                                     "background": [2.0, 1.0, 1.0]}}},
    "ball": {"center": [0.5, 0.375], "r0": 0.3, "j_max": 2},
}


def paths(node, prefix=()):
    """Every key path of a nested config, parents before children."""
    out = []
    if isinstance(node, dict):
        for key, child in node.items():
            out.append(prefix + (key,))
            out.extend(paths(child, prefix + (key,)))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            out.append(prefix + (k,))
            out.extend(paths(child, prefix + (k,)))
    return out


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 64),
                    st.floats(), st.text(max_size=3))
VALUES = st.recursive(
    SCALARS, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.text(max_size=3), kids, max_size=2)),
    max_leaves=5)
DELETE = object()


@st.composite
def mutated_configs(draw):
    base = draw(st.sampled_from([FIDELITY, DIRICHLET]))
    raw = copy.deepcopy(base)
    path = draw(st.sampled_from(paths(base)))
    value = draw(st.one_of(st.just(DELETE), VALUES))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return raw


@given(mutated_configs(),
       st.sampled_from(["density-check", "solve", "moser", "full-report"]))
def test_any_config_exits_cleanly(raw, command):
    calls = []

    def solve(problem, cfg, init=None, interior_ball=None):
        calls.append(command)
        assert isinstance(problem, (DirichletProblem, FidelityProblem))
        assert isinstance(cfg, SolverConfig)
        assert interior_ball is None or (
            isinstance(interior_ball, Ball)
            and problem.grid.contains_ball(interior_ball))
        stats = SolveStats(0, np.inf, 0.0, 0.0, 0, 0, False)
        raise SolverError("stubbed solve", None, stats)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        # a warning is a stderr line too: let it fail the example
        with mock.patch.object(cli, "continuation_solve", solve), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", path,
                           "--out", os.path.join(tmp, "out")])
    lines = [ln for ln in err.getvalue().splitlines()
             if ln.startswith("lingrow:")]
    assert rc in (0, 1, 2)
    assert len(lines) <= 1, lines
    assert err.getvalue() == "".join(ln + "\n" for ln in lines)
    if rc == 2:
        assert not calls and len(lines) == 1
    if calls:
        assert rc == 1 and not lines
