"""Command line entry point.

Subcommands:

* ``density-check``: certify the top-level density (else the problem's).
* ``solve``: run the delta-continuation solve; write the trace, per-delta
  solution images, and the final solution at full precision as CSV.
* ``moser``: solve, then audit interior boundedness on every rung.
* ``full-report``: all of the above, for the problem's density, plus a
  combined summary.

Exit codes: 0 all checks passed; 1 a check failed or a solve did not
converge (its error then goes to ``trace.json``, ``moser_summary.json`` or
``report.json``); 2 malformed configuration, incompatible geometry or an
output directory that cannot be created.  Runs are deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from .config import ConfigError, RunConfig, load_config
from .energy import FidelityProblem, RegularizationState
from .moser import (BallFamily, MoserGeometryError, check_geometry,
                    moser_report, select_radius)
from .pgmio import field_to_csv, write_pgm
from .profiles import certify_conditions
from .solver import (SolverError, SolveTrace, continuation_solve,
                     verify_minimality)

__all__ = ["main", "run_main", "cmd_density_check", "cmd_solve", "cmd_moser",
           "cmd_full_report"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Make glibc keep freed arrays in the heap for the rest of the process.

    A solve allocates and frees thousands of 128-133 KiB temporaries, right
    at glibc's default 128 KiB mmap threshold: each freed one is unmapped or
    trimmed, and the next allocation faults its pages back in.  Fixed
    thresholds (both are needed: either alone leaves the dynamic threshold
    off and the churn on) keep them.  Without a glibc ``mallopt`` (macOS,
    Windows; musl's is a no-op) nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _delta_tag(delta: float) -> str:
    return f"{delta:.6g}".replace(".", "p").replace("-", "m")


def cmd_density_check(cfg: RunConfig, out_dir: str) -> int:
    report = certify_conditions(cfg.require_density(), cfg.density_t_max,
                                cfg.density_samples)
    _write_json(os.path.join(out_dir, "condition_report.json"),
                report.to_dict())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _resolve_ball(cfg: RunConfig, problem) -> tuple[BallFamily, float | None]:
    if cfg.ball is not None:
        ball = cfg.ball
        eps0 = None
    elif cfg.ball_auto_x0 is not None:
        if not isinstance(problem, FidelityProblem):
            raise ConfigError("auto ball selection needs a fidelity problem")
        r0, eps0 = select_radius(problem.f, problem.mask, problem.lam,
                                 cfg.ball_auto_x0)
        ball = BallFamily(cfg.ball_auto_x0, r0, n=cfg.ball_n,
                          j_max=cfg.ball_j_max)
    else:
        raise ConfigError("config needs a 'ball' section for this command")
    # the audit's geometry is checked before the solve, not after it
    check_geometry(problem.grid, ball)
    return ball, eps0


def _run_solve(cfg: RunConfig, out_dir: str, summary: str, ball=None,
               **extra) -> SolveTrace | None:
    """The continuation solve.  A failed one writes its error, with
    ``extra``, to the command's ``summary`` file and returns None."""
    problem = cfg.require_problem()
    interior = ball.limit_ball() if ball is not None else None
    try:
        return continuation_solve(problem, cfg.solver, interior_ball=interior)
    except SolverError as err:
        _write_json(os.path.join(out_dir, summary), {"error": str(err), **extra})
        return None


def _write_trace(cfg: RunConfig, trace: SolveTrace, out_dir: str) -> dict:
    with open(os.path.join(out_dir, "trace.csv"), "w", newline="\n") as fh:
        fh.write(trace.to_csv())
    problem = cfg.require_problem()
    entries = []
    for rec in trace.records:
        lo = float(rec.u.values.min())
        hi = float(rec.u.values.max())
        if hi <= lo:
            hi = lo + 1.0
        name = f"solution_{_delta_tag(rec.delta)}.pgm"
        if rec.u.channels == 1:
            write_pgm(os.path.join(out_dir, name), rec.u, lo, hi)
        entries.append({
            "delta": rec.delta, "energy": rec.energy,
            "plain_energy": rec.plain_energy, "residual": rec.residual,
            "iters": rec.iters, "backtracks": rec.backtracks,
            "krylov_iters": rec.krylov_iters, "tv": rec.tv,
            "coarse": [c.to_dict() for c in rec.coarse],
            "interior_sup": rec.interior_sup,
            "pgm": name if rec.u.channels == 1 else None,
            "pgm_lo": lo, "pgm_hi": hi,
        })
    final = trace.final
    field_to_csv(os.path.join(out_dir, "solution_final.csv"), final.u)
    reg = RegularizationState(final.delta, cfg.solver.mu, problem.kind)
    audit = verify_minimality(problem, reg, final.u,
                              trials=cfg.minimality_trials, seed=cfg.seed)
    payload = {"records": entries, "minimality": audit.to_dict()}
    _write_json(os.path.join(out_dir, "trace.json"), payload)
    return payload


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    trace = _run_solve(cfg, out_dir, "trace.json")
    if trace is None:
        return EXIT_CHECK_FAILED
    payload = _write_trace(cfg, trace, out_dir)
    ok = payload["minimality"]["passed"]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _moser_payload(cfg: RunConfig, trace: SolveTrace, out_dir: str,
                   ball: BallFamily, eps0: float | None) -> dict:
    reports = [moser_report(rec.u, ball, s_values=cfg.s_values,
                            epsilon0=eps0) for rec in trace.records]

    sup_lines = ["delta,interior_sup"]
    all_passed = True
    for rec, rep in zip(trace.records, reports):
        tag = _delta_tag(rec.delta)
        _write_json(os.path.join(out_dir, f"moser_{tag}.json"), rep.to_dict())
        with open(os.path.join(out_dir, f"moser_{tag}.csv"), "w",
                  newline="\n") as fh:
            fh.write(rep.to_csv())
        sup_lines.append(f"{rec.delta!r},{rep.bound.observed!r}")
        all_passed = all_passed and rep.passed
    with open(os.path.join(out_dir, "sup_vs_delta.csv"), "w",
              newline="\n") as fh:
        fh.write("\n".join(sup_lines) + "\n")
    return {"passed": all_passed,
            "ball": {"center": list(ball.center), "r0": ball.r0,
                     "n": ball.n, "j_max": ball.j_max, "epsilon0": eps0},
            "reports": [r.to_dict() for r in reports]}


def cmd_moser(cfg: RunConfig, out_dir: str) -> int:
    ball, eps0 = _resolve_ball(cfg, cfg.require_problem())
    trace = _run_solve(cfg, out_dir, "moser_summary.json", ball=ball)
    if trace is None:
        return EXIT_CHECK_FAILED
    payload = _moser_payload(cfg, trace, out_dir, ball, eps0)
    _write_json(os.path.join(out_dir, "moser_summary.json"),
                {"passed": payload["passed"], "ball": payload["ball"]})
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def cmd_full_report(cfg: RunConfig, out_dir: str) -> int:
    problem = cfg.require_problem()
    ball, eps0 = _resolve_ball(cfg, problem)
    density_report = certify_conditions(problem.density, cfg.density_t_max,
                                        cfg.density_samples)
    _write_json(os.path.join(out_dir, "condition_report.json"),
                density_report.to_dict())
    trace = _run_solve(cfg, out_dir, "report.json", ball=ball,
                       density_passed=density_report.all_passed)
    if trace is None:
        return EXIT_CHECK_FAILED
    trace_payload = _write_trace(cfg, trace, out_dir)
    moser_payload = _moser_payload(cfg, trace, out_dir, ball, eps0)
    ok = (density_report.all_passed and trace_payload["minimality"]["passed"]
          and moser_payload["passed"])
    _write_json(os.path.join(out_dir, "report.json"), {
        "density_passed": density_report.all_passed,
        "minimality_passed": trace_payload["minimality"]["passed"],
        "moser_passed": moser_payload["passed"],
        "ball": moser_payload["ball"],
        "passed": ok,
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "density-check": cmd_density_check,
    "solve": cmd_solve,
    "moser": cmd_moser,
    "full-report": cmd_full_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lingrow",
        description="linear-growth energy minimization and "
                    "interior-boundedness audits")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)
    _keep_freed_memory()

    try:
        cfg = load_config(args.config, seed_override=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            _complain(f"cannot create output directory {args.out!r}: "
                      f"{err.strerror}")
            return EXIT_BAD_CONFIG
        return _COMMANDS[args.command](cfg, args.out)
    except (ConfigError, MoserGeometryError) as err:
        _complain(err)
        return EXIT_BAD_CONFIG


def _complain(err: Exception | str) -> None:
    """One stderr line, whatever line breaks the message quotes."""
    print("lingrow: " + "\\n".join(str(err).splitlines()), file=sys.stderr)


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
