"""Correctness gate: checks a run's artifacts with code independent of
lingrow.

Field CSVs are parsed with numpy, and the discrete energies and interior
sups are recomputed here from their documented definitions.  The final-rung
values are also compared with the reference values in ``reference.json``.  Each check returns a list of failure
messages; an empty list means the run is correct.
"""

from __future__ import annotations

import json
import os

import numpy as np

import workloads

# Recomputing the same quantity in another summation order
RECOMPUTE_RTOL = 1e-12

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference() -> dict:
    with open(os.path.join(_HERE, "reference.json")) as fh:
        return json.load(fh)


def read_csv_values(path: str) -> np.ndarray:
    """Parse an ``x,y,channel,value`` CSV into an (nx, ny, channels) array."""
    with open(path) as fh:
        if fh.readline().strip() != "x,y,channel,value":
            raise ValueError(f"{path}: unexpected CSV header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    chans = data[:, 2].astype(int)
    out = np.full((len(xs), len(ys), int(chans.max()) + 1), np.nan)
    if len(data) != out.size:
        raise ValueError(f"{path}: {len(data)} rows for {out.shape} cells")
    out[np.searchsorted(xs, data[:, 0]), np.searchsorted(ys, data[:, 1]),
        chans] = data[:, 3]
    if np.isnan(out).any():
        raise ValueError(f"{path}: cells missing")
    return out


def _minimal_surface(t: np.ndarray) -> np.ndarray:
    tt = t * t
    return tt / (1.0 + np.sqrt(1.0 + tt))


def _centers(n: int, ghost: bool = False):
    xs = (np.arange(n + 2) - 0.5) / n if ghost else workloads.cell_centers(n)
    return np.meshgrid(xs, xs, indexing="ij")


def _ghost_ring(values: np.ndarray, job: dict) -> np.ndarray:
    """Field extended by the Dirichlet datum sampled at ghost centres."""
    n = values.shape[0]
    X, Y = _centers(n, ghost=True)
    ext = workloads.spike_datum(n)(X, Y)[:, :, None]
    ext[1:-1, 1:-1, :] = values
    return ext


def _dirichlet_slopes(values: np.ndarray, job: dict) -> np.ndarray:
    n = values.shape[0]
    ext = _ghost_ring(values, job)
    gx = (ext[1:, :-1, :] - ext[:-1, :-1, :]) * n
    gy = (ext[:-1, 1:, :] - ext[:-1, :-1, :]) * n
    return np.sqrt(np.sum(gx * gx + gy * gy, axis=2))


def _neumann_slopes(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    gx = np.zeros_like(values)
    gy = np.zeros_like(values)
    gx[:-1] = (values[1:] - values[:-1]) * n
    gy[:, :-1] = (values[:, 1:] - values[:, :-1]) * n
    return np.sqrt(np.sum(gx * gx + gy * gy, axis=2))


def slopes(values: np.ndarray, job: dict) -> np.ndarray:
    """|grad u| on the difference cells of the workload's boundary rule."""
    if job["workload"] == "fidelity_inpaint_128":
        return _neumann_slopes(values)
    return _dirichlet_slopes(values, job)


def plain_energy(values: np.ndarray, job: dict) -> float:
    """Energy without the delta term, as defined in lingrow.energy."""
    n = values.shape[0]
    h2 = 1.0 / (n * n)
    t = slopes(values, job)
    if job["workload"] != "fidelity_inpaint_128":
        rho = n * n / float((n + 1) * (n + 1))
        return rho * h2 * float(np.sum(_minimal_surface(t)))
    X, Y = _centers(n)
    x0, y0, x1, y1 = workloads.MASK_RECT
    outside = ~((X > x0) & (X < x1) & (Y > y0) & (Y < y1))
    f = workloads.inverse_sqrt_datum(n)[:, :, 0]
    diff = (values[:, :, 0] - f)[outside]
    return (h2 * float(np.sum(_minimal_surface(t)))
            + workloads.LAMBDA * h2 * float(np.sum(diff * diff)))


def in_ball(n: int, center, radius: float) -> np.ndarray:
    X, Y = _centers(n)
    return (X - center[0]) ** 2 + (Y - center[1]) ** 2 < radius ** 2


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def reference_tolerances(reference: dict, cells: int) -> tuple[float, float]:
    """Absolute tolerances (plain energy, interior sup) between a run's
    final rung and the reference, derived from the solver's stopping rule.

    The final rung stops once sup|r| <= tau (``stop_tol``).  To first order
    an iterate w that meets the rule lies at e = H^-1 r from the minimizer
    w*, with H the Hessian of the rung's energy at w*.  So
    |sup_B w - sup_B w*| <= |e|_inf,B <= G_B tau, with G_B the largest
    absolute row sum of H^-1 over the cells of the ball (``hinv_ball``).
    The plain energy P is convex with P'' <= H (the delta term is convex),
    so |P(w) - P(w*)| <= |grad P(w*)|_1 |e|_inf + e.He/2
    <= g1 G tau + N G tau^2 / 2, with G = |H^-1|_inf (``hinv``),
    g1 = |grad P(w*)|_1 (``plain_grad_l1``) and e.He = r.H^-1 r
    <= N tau G tau.  The run and the reference are two such iterates, so
    each bound is doubled.  ``make_reference.py`` computes the constants.
    """
    tau = reference["stop_tol"]
    g = reference["hinv"]
    energy = 2.0 * (reference["plain_grad_l1"] * g * tau
                    + cells * g * tau * tau / 2.0)
    return energy, 2.0 * reference["hinv_ball"] * tau


def check_cli(job: dict, reference: dict) -> list[str]:
    """full-report: exit code, verdicts, recomputation, reference values."""
    out = job["out"]
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out, "trace.json")) as fh:
            final = json.load(fh)["records"][-1]
        values = read_csv_values(os.path.join(out, "solution_final.csv"))
    except (OSError, ValueError) as err:
        return [f"unreadable artifacts: {err}"]
    fails = []
    if not report.get("passed"):
        fails.append("report.json does not pass")
    if final["delta"] != workloads.FINAL_DELTA:
        fails.append(f"final delta {final['delta']!r}")
    n = job["n"]
    if values.shape != (n, n, 1):
        return fails + [f"solution shape {values.shape}"]
    energy = plain_energy(values, job)
    if not _close(final["plain_energy"], energy, RECOMPUTE_RTOL):
        fails.append(f"plain_energy {final['plain_energy']!r} but the "
                     f"solution gives {energy!r}")
    ball = report["ball"]
    if ball["r0"] != reference["r0"]:
        fails.append(f"ball r0 {ball['r0']!r}, expected {reference['r0']!r}")
    sup = float(np.max(np.abs(values[:, :, 0][
        in_ball(n, ball["center"], ball["r0"] / 2.0)])))
    if not _close(final["interior_sup"], sup, RECOMPUTE_RTOL):
        fails.append(f"interior_sup {final['interior_sup']!r} but the "
                     f"solution gives {sup!r}")
    energy_tol, sup_tol = reference_tolerances(reference, n * n)
    if abs(final["plain_energy"] - reference["plain_energy"]) > energy_tol:
        fails.append(f"plain_energy {final['plain_energy']!r} is off the "
                     f"reference {reference['plain_energy']!r}")
    if abs(final["interior_sup"] - reference["interior_sup"]) > sup_tol:
        fails.append(f"interior_sup {final['interior_sup']!r} is off the "
                     f"reference {reference['interior_sup']!r}")
    return fails
