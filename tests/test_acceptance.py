"""Acceptance gate: nine headline guarantees, one test per numbered criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED row per
criterion; each test also prints a one-line verdict.  The expensive 128x128
continuation ladders are solved once in module fixtures and shared between
the interior-boundedness criteria, the minimality audit and a guard on their
Newton and conjugate-gradient counts.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from lingrow.cli import main
from lingrow.energy import (DirichletProblem, FidelityProblem,
                            RegularizationState, assemble_ops, clip_data)
from lingrow.grids import Field, Grid2, Mask
from lingrow.instances import dirichlet_boundary_spike, fidelity_inverse_sqrt
from lingrow.moser import (BallFamily, exponents, moser_report, radii,
                           select_radius)
from lingrow.profiles import (certify_conditions, minimal_surface, phi_mu,
                              profile_eval, radial_excess, slope_ratio)
from lingrow.solver import SolverConfig, continuation_solve, verify_minimality
from .oracles import (energy_grad_fd, grad_fd, hess_quadform_fd, newton_solve,
                      phi_dblquad, phi_quad)

SPIKE_HEIGHT = 100.0
SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)


def spread(values):
    """Relative variation (max - min) / min of a positive sequence."""
    vals = [float(v) for v in values]
    lo = min(vals)
    return (max(vals) - lo) / lo


def l2_diff(grid, a, b):
    return float(np.sqrt(np.sum((a - b) ** 2) * grid.h ** 2))


def verdict(number, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({name}): {status}")
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# shared solved instances


@pytest.fixture(scope="module")
def small_fidelity_run():
    grid = Grid2(10, 10, 0.1)
    rng = np.random.default_rng(31)
    f = Field(grid, 2.0 * rng.normal(size=(10, 10, 1)))
    mask = Mask.from_rect(grid, 0.2, 0.2, 0.5, 0.5)
    problem = FidelityProblem(grid, f, mask, 0.7, minimal_surface())
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01), residual_tol=1e-11)
    return problem, continuation_solve(problem, cfg)


@pytest.fixture(scope="module")
def small_dirichlet_run():
    grid = Grid2(8, 8, 0.125)
    rng = np.random.default_rng(21)
    u0 = Field(grid, rng.normal(size=(8, 8, 1)))
    problem = DirichletProblem.from_field(u0, minimal_surface())
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01), residual_tol=1e-12)
    return problem, continuation_solve(problem, cfg)


@pytest.fixture(scope="module")
def spike_run():
    problem = dirichlet_boundary_spike()
    family = BallFamily((0.5, 0.5), 0.3, n=2, j_max=8)
    t0 = time.time()
    trace = continuation_solve(problem, SolverConfig(mu=1.5),
                               interior_ball=family.limit_ball())
    return problem, family, trace, time.time() - t0


@pytest.fixture(scope="module")
def inverse_run():
    problem = fidelity_inverse_sqrt()
    t0 = time.time()
    r0, eps0 = select_radius(problem.f, problem.mask, problem.lam,
                             (0.25, 0.45))
    family = BallFamily((0.25, 0.45), r0, n=2, j_max=6)
    trace = continuation_solve(problem, SolverConfig(mu=1.5),
                               interior_ball=family.limit_ball())
    return problem, family, eps0, trace, time.time() - t0


@pytest.fixture(scope="module")
def uniqueness_runs():
    problem = fidelity_inverse_sqrt(mask_rect=None)
    cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01), residual_tol=5e-11)
    finals = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        init = Field(problem.grid,
                     rng.uniform(-1.0, 1.0, size=(128, 128, 1)))
        finals.append(continuation_solve(problem, cfg, init=init).final.u)
    return problem, finals


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_density_certification():
    failures = []
    t0 = time.time()
    ts = np.logspace(-3.0, 2.0, 1000)
    for mu in (1.2, 1.5, 2.0, 2.5, 3.0):
        p = phi_mu(mu)
        report = certify_conditions(p, 100.0, 1000)
        if not report.all_passed:
            failures.append(f"mu={mu}: certification failed")
        if profile_eval(p, 0.0) != 0.0:
            failures.append(f"mu={mu}: value at zero not exactly zero")
        vals = np.array([profile_eval(p, float(t)) for t in ts])
        quads = np.array([phi_quad(mu, float(t)) for t in ts])
        rel = float(np.max(np.abs(vals - quads) / np.abs(quads)))
        if rel > 1e-8:
            failures.append(f"mu={mu}: 1D quadrature rel err {rel:.2e}")
        for t in ts[::20]:
            ref = phi_dblquad(mu, float(t))
            err = abs(profile_eval(p, float(t)) - ref)
            if err > 1e-8 * abs(ref):
                failures.append(f"mu={mu}: 2D quadrature off at t={t:.3g}")
                break
    elapsed = time.time() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s (budget 5s)")
    verdict(1, "density certification", failures)


def test_criterion_2_derivative_consistency():
    failures = []
    p = phi_mu(1.5)
    constants = certify_conditions(p, 1000.0, 2000).constants
    F = lambda P: profile_eval(p, float(np.sqrt(np.sum(P * P))))
    rng = np.random.default_rng(2024)
    for i in range(100):
        scale = 10.0 ** rng.uniform(-6.0, 3.0)
        P = rng.normal(size=(2,))
        P *= scale / np.linalg.norm(P)
        Q = rng.normal(size=(2,))
        Q /= np.linalg.norm(Q)
        t = float(np.linalg.norm(P))

        # the residual's flux and the Hessian's cell form a|Q|^2 + b(P.Q)^2,
        # exactly as energy.StencilPoint and energy.Hessian build them
        a = slope_ratio(p, np.array([t]))
        b = radial_excess(p, np.array([t]), a, 0.0)
        g = a[0] * P
        g_fd = grad_fd(F, P, 0.01 * t)
        rel_g = float(np.max(np.abs(g - g_fd)) / np.max(np.abs(g)))
        if rel_g > 1e-5:
            failures.append(f"pair {i}: gradient rel err {rel_g:.2e}")

        q = float(a[0] * np.sum(Q * Q) + b[0] * np.sum(P * Q) ** 2)
        q_fd = hess_quadform_fd(F, P, Q, min(t / 3.0, 3e-3 * (1.0 + t)))
        rel_q = abs(q - q_fd) / abs(q)
        if rel_q > 1e-5:
            failures.append(f"pair {i}: quadform rel err {rel_q:.2e}")

        q2 = float(np.sum(Q * Q))
        lower = constants.nu6 * (1.0 + t) ** (-constants.mu_certified) * q2
        upper = constants.nu5 * q2 / (1.0 + t)
        slack = 1e-9 * max(abs(q), 1.0)
        if not (lower - slack <= q <= upper + slack):
            failures.append(f"pair {i}: sandwich violated at t={t:.3g}")
    verdict(2, "derivative and Hessian consistency", failures)


def test_criterion_3_euler_exactness():
    failures = []
    grid = Grid2(8, 8, 0.125)
    rng = np.random.default_rng(9)
    w = Field(grid, rng.normal(size=(8, 8, 1)))
    u0 = Field(grid, rng.normal(size=(8, 8, 1)))
    problems = {
        "dirichlet": DirichletProblem.from_field(u0, minimal_surface()),
        "fidelity": FidelityProblem(
            grid, Field(grid, rng.normal(size=(8, 8, 1))),
            Mask.from_rect(grid, 0.25, 0.25, 0.625, 0.625), 0.7,
            minimal_surface()),
    }
    for kind, problem in problems.items():
        reg = RegularizationState(0.05, 1.5, kind)
        ops = assemble_ops(problem, reg)
        res = ops.residual(w.values)
        scale = float(np.max(np.abs(res)))
        energy = ops.energy
        worst = 0.0
        for i in range(8):
            for j in range(8):
                fd = energy_grad_fd(energy, w.values, (i, j, 0), 6e-6)
                worst = max(worst, abs(fd - res[i, j, 0]) / scale)
        if worst > 1e-6:
            failures.append(f"{kind}: residual vs FD rel err {worst:.2e}")
    verdict(3, "Euler residual exactness", failures)


def test_criterion_4_newton_equivalence(small_fidelity_run,
                                        small_dirichlet_run):
    failures = []
    t0 = time.time()
    for label, (problem, trace), start in (
            ("fidelity", small_fidelity_run,
             lambda p: p.f.values.copy()),
            ("dirichlet", small_dirichlet_run,
             lambda p: p.u0_interior().values)):
        for rec in trace.records:
            reg = RegularizationState(rec.delta, 1.5, problem.kind)
            ref = newton_solve(assemble_ops(problem, reg).residual,
                               start(problem), tol=1e-12)
            sup = float(np.max(np.abs(rec.u.values - ref)))
            if sup > 1e-6:
                failures.append(
                    f"{label} delta={rec.delta:g}: sup gap {sup:.2e}")
    elapsed = time.time() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    verdict(4, "dense Newton equivalence", failures)


def test_criterion_5_minimality_audit(small_fidelity_run, small_dirichlet_run,
                                      spike_run, inverse_run,
                                      uniqueness_runs):
    failures = []
    instances = [
        ("small fidelity", small_fidelity_run[0],
         small_fidelity_run[1].final.delta, small_fidelity_run[1].final.u),
        ("small dirichlet", small_dirichlet_run[0],
         small_dirichlet_run[1].final.delta, small_dirichlet_run[1].final.u),
        ("boundary spike", spike_run[0], spike_run[2].final.delta,
         spike_run[2].final.u),
        ("inverse sqrt", inverse_run[0], inverse_run[3].final.delta,
         inverse_run[3].final.u),
    ]
    uniq_problem, uniq_finals = uniqueness_runs
    for k, u in enumerate(uniq_finals):
        instances.append((f"pure denoising init {k}", uniq_problem, 0.01, u))
    for label, problem, delta, u in instances:
        reg = RegularizationState(delta, 1.5, problem.kind)
        audit = verify_minimality(problem, reg, u, trials=100, seed=0)
        worst = float(np.min(audit.margins))
        if worst < -1e-9:
            failures.append(f"{label}: worst margin {worst:.2e}")
        if not audit.passed:
            failures.append(f"{label}: audit reports failure")
    verdict(5, "minimality audit", failures)


def test_criterion_6_dirichlet_interior_boundedness(spike_run):
    problem, family, trace, solve_time = spike_run
    failures = []
    t0 = time.time()

    sups = [rec.interior_sup for rec in trace.records]
    if spread(sups) > 0.10:
        failures.append(f"interior sup varies {spread(sups):.1%} across delta")
    if max(sups) > SPIKE_HEIGHT / 10.0:
        failures.append(f"interior sup {max(sups):.3g} above spike/10")

    s_values = (0.0, 1.0, 3.0)
    reports = [moser_report(rec.u, family, s_values=s_values)
               for rec in trace.records]
    c_maxes = [rep.recursion.c_max for rep in reports]
    if spread(c_maxes) > 0.25:
        failures.append(f"recursion c_max varies {spread(c_maxes):.1%}")
    for rep, rec in zip(reports, trace.records):
        if not rep.sup_bound.passed:
            failures.append(f"sup_bound fails at delta={rec.delta:g}")
        if not rep.recursion.passed:
            failures.append(f"recursion check fails at delta={rec.delta:g}")
    for si, s in enumerate(s_values):
        checks = [rep.caccioppoli[si] for rep in reports]
        if not all(c.passed for c in checks):
            failures.append(f"s={s:g}: per-run constant variation above 50%")
        levels = len(checks[0].c_levels)
        worst = max(spread([c.c_levels[j] for c in checks])
                    for j in range(levels))
        if worst > 0.50:
            failures.append(f"s={s:g}: constants vary {worst:.1%} across "
                            "delta")
    elapsed = solve_time + time.time() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s (budget 300s)")
    verdict(6, "Dirichlet interior boundedness", failures)


def test_criterion_7_fidelity_interior_boundedness(inverse_run,
                                                   uniqueness_runs):
    problem, family, eps0, trace, solve_time = inverse_run
    failures = []
    t0 = time.time()

    if eps0 != 0.25:
        failures.append(f"epsilon0 {eps0!r} is not exactly 0.25")
    if 2.0 * problem.lam * math.sqrt(eps0) > 0.5:
        failures.append("selected threshold violates the smallness bound")
    if not problem.grid.contains_ball(family.ball(0)):
        failures.append("selected ball family leaves the domain")
    if family.r0 <= 3.0 * problem.grid.h:
        failures.append(f"selected radius {family.r0:g} is under-resolved")

    sups = [rec.interior_sup for rec in trace.records]
    if spread(sups) > 0.10:
        failures.append(f"interior sup varies {spread(sups):.1%} across delta")

    diffs = [l2_diff(problem.grid, clip_data(problem.f, rec.delta).values,
                     problem.f.values) for rec in trace.records]
    if any(b > a + 1e-12 for a, b in zip(diffs, diffs[1:])):
        failures.append(f"clipped-data distance not monotone: {diffs}")

    uniq_problem, finals = uniqueness_runs
    gap = l2_diff(uniq_problem.grid, finals[0].values, finals[1].values)
    if gap > 1e-6:
        failures.append(f"two random inits differ by {gap:.2e} in L2")

    elapsed = solve_time + time.time() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s (budget 300s)")
    verdict(7, "fidelity interior boundedness", failures)


# Newton steps and CG iterations per rung of the two 128^2 ladders at the
# defaults, as the kernels on the unpadded cell layout took them, and per
# coarse copy of rung 0's nested start (16^2, 32^2, 64^2)
LADDER_PINS = {"boundary spike": ((9, 6, 3, 3), (57, 47, 21, 17)),
               "inverse sqrt": ((3, 4, 3, 2), (24, 28, 22, 12))}
COARSE_PINS = {"boundary spike": ((11, 27), (7, 22), (7, 31)),
               "inverse sqrt": ((7, 19), (4, 14), (3, 18))}


def test_ladder_iteration_counts_hold(spike_run, inverse_run):
    """No rung of the 128^2 ladders, and no coarse copy of rung 0's nested
    start, takes more Newton steps or CG iterations than its pin: a kernel
    or layout change that costs iterations fails here, though its results
    still pass the criteria."""
    failures = []
    for name, trace in (("boundary spike", spike_run[2]),
                        ("inverse sqrt", inverse_run[3])):
        steps = tuple(rec.stats.iters for rec in trace.records)
        krylov = tuple(rec.stats.krylov_iters for rec in trace.records)
        pin_steps, pin_krylov = LADDER_PINS[name]
        if len(steps) != len(pin_steps) or any(
                got > pin for got, pin in zip(steps + krylov,
                                              pin_steps + pin_krylov)):
            failures.append(f"{name}: Newton {steps} / CG {krylov}, "
                            f"pinned at most {pin_steps} / {pin_krylov}")
        coarse = tuple((c.iters, c.krylov_iters)
                       for _, c in trace.records[0].coarse)
        pins = COARSE_PINS[name]
        if len(coarse) != len(pins) or any(
                got > pin for pair, pin_pair in zip(coarse, pins)
                for got, pin in zip(pair, pin_pair)):
            failures.append(f"{name}: nested start Newton/CG {coarse}, "
                            f"pinned at most {pins}")
    assert not failures, "; ".join(failures)


def test_criterion_8_sequence_formulas():
    failures = []
    for n in (2, 3):
        fam = BallFamily((0.0, 0.0), 1.0, n=n, j_max=20)
        rr = radii(fam)
        ss = exponents(fam)
        base = Fraction(n - 1, n)
        for j in range(21):
            r_exact = base ** j / n + base
            if abs(rr[j] - float(r_exact)) > 1e-14 * float(r_exact):
                failures.append(f"n={n} j={j}: radius off closed form")
            s_exact = Fraction(n, n - 1) ** j - 1
            if abs(ss[j] - float(s_exact)) > 1e-14 * max(float(s_exact), 1.0):
                failures.append(f"n={n} j={j}: exponent off closed form")
    grid = Grid2(32, 32, 1.0 / 32)
    fam2 = BallFamily((0.5, 0.5), 0.3, n=2, j_max=4)
    prefactor = moser_report(Field.zeros(grid), fam2).sup_bound.prefactor
    if prefactor != 16.0:
        failures.append(f"n=2 prefactor {prefactor!r} is not 16")
    verdict(8, "sequence closed forms", failures)


def test_criterion_9_deterministic_reports(tmp_path):
    failures = []
    config = {
        "seed": 11,
        "density": {"kind": "minimal_surface"},
        "density_check": {"t_max": 50.0, "samples": 400},
        "grid": {"nx": 32, "ny": 32, "h": 1.0 / 32},
        "solver": {"mu": 1.5, "delta_schedule": list(SCHEDULE),
                   "residual_tol": 1e-9, "max_iters": 50000},
        "problem": {"kind": "fidelity",
                    "density": {"kind": "minimal_surface"},
                    "f": {"synthetic": {"kind": "inverse_sqrt_spike",
                                        "center": [0.8, 0.8], "cap": 100.0,
                                        "noise": 0.5}},
                    "mask": {"rect": [0.1, 0.4, 0.3, 0.6]},
                    "lambda": 0.5},
        "ball": {"center": [0.5, 0.5], "r0": 0.35, "j_max": 3},
        "s_values": [0.0, 1.0, 3.0],
        "minimality_trials": 25,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        main(["full-report", "--config", str(cfg_path), "--out", str(out)])
        outputs.append({f: (out / f).read_bytes()
                        for f in sorted(os.listdir(out))})
    if sorted(outputs[0]) != sorted(outputs[1]):
        failures.append("runs produced different file sets")
    else:
        for name in outputs[0]:
            if outputs[0][name] != outputs[1][name]:
                failures.append(f"{name} differs between runs")
    verdict(9, "byte-identical reports", failures)
