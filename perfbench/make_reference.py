"""Regenerate ``reference.json``: the final-rung values each workload must
reproduce, and the constants from which ``oracle.reference_tolerances``
turns the solver's stopping rule into the gate's tolerances.

    python3 perfbench/make_reference.py        # needs scipy

Run from the repository root; it takes about two minutes.  For each
workload and size it runs CLI ``full-report`` at seed 0 (the seed does not
change the solve) and records, at the final rung:

* ``plain_energy``, ``interior_sup`` and the ball radius ``r0``;
* ``stop_tol``: the residual tolerance the solver used on that rung;
* ``hinv`` and ``hinv_ball``: the largest absolute row sum of H^-1, over all
  rows and over the rows of the cells inside the sup ball, where H is the
  Hessian of the rung's energy at the solution (central differences of the
  residual, exact sparse factorization);
* ``plain_grad_l1``: the l1 norm of the gradient of the energy without the
  delta term at the solution.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import lingrow.cli  # noqa: E402
import lingrow.solver  # noqa: E402
from lingrow.config import load_config  # noqa: E402
from lingrow.energy import RegularizationState, assemble_ops  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

# inverse columns solved at once; each block holds N * BLOCK floats
BLOCK = 512


def hessian(ops, values: np.ndarray) -> sparse.csc_matrix:
    """Sparse Hessian of a scalar-field energy by central differences of its
    residual.  A cell's residual depends on the cells within Chebyshev
    distance 1, so the cells of one 3x3 colour class are perturbed at once
    and each response row is owned by exactly one of them."""
    n = values.shape[0]
    I, J = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    eps = 1e-6 * max(1.0, float(np.max(np.abs(values))))
    rows, cols, vals = [], [], []
    for ci in range(3):
        for cj in range(3):
            colour = (I % 3 == ci) & (J % 3 == cj)
            up = values.copy()
            up[colour, 0] += eps
            down = values.copy()
            down[colour, 0] -= eps
            dr = (ops.residual(up) - ops.residual(down))[:, :, 0] / (2 * eps)
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ki, kj = I + di, J + dj
                    ok = colour & (ki >= 0) & (ki < n) & (kj >= 0) & (kj < n)
                    rows.append(ki[ok] * n + kj[ok])
                    cols.append(I[ok] * n + J[ok])
                    vals.append(dr[ki[ok], kj[ok]])
    h = sparse.csc_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                  np.concatenate(cols))),
                          shape=(n * n, n * n))
    return ((h + h.T) * 0.5).tocsc()


def inverse_row_sums(h: sparse.csc_matrix) -> np.ndarray:
    """sum_j |(H^-1)_ij| for every row i (H is symmetric, so its columns)."""
    lu = sparse_linalg.splu(h)
    size = h.shape[0]
    out = np.empty(size)
    for start in range(0, size, BLOCK):
        stop = min(size, start + BLOCK)
        rhs = np.zeros((size, stop - start))
        rhs[np.arange(start, stop), np.arange(stop - start)] = 1.0
        out[start:stop] = np.sum(np.abs(lu.solve(rhs)), axis=0)
    return out


def reference_for(name: str, smoke: bool, work: str) -> dict:
    job = workloads.make_job(name, 0, smoke, os.path.join(work, "inputs"))
    out = os.path.join(work, "out")
    tols = []
    solve = lingrow.solver.minimize_fixed_delta

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        tols.append(result[1].tol)
        return result

    lingrow.solver.minimize_fixed_delta = recording
    try:
        code = lingrow.cli.main([job["command"], "--config", job["config"],
                                 "--out", out])
    finally:
        lingrow.solver.minimize_fixed_delta = solve
    if code != 0:
        raise SystemExit(f"{name}: full-report exited with {code}")
    with open(os.path.join(out, "report.json")) as fh:
        ball = json.load(fh)["ball"]
    with open(os.path.join(out, "trace.json")) as fh:
        final = json.load(fh)["records"][-1]
    values = oracle.read_csv_values(os.path.join(out, "solution_final.csv"))

    problem = load_config(job["config"]).require_problem()
    reg = RegularizationState(workloads.FINAL_DELTA, workloads.MU,
                              problem.kind)
    sums = inverse_row_sums(hessian(assemble_ops(problem, reg), values))
    n = values.shape[0]
    inside = oracle.in_ball(n, ball["center"], ball["r0"] / 2.0).ravel()
    plain_grad = assemble_ops(problem, None).residual(values)
    return {"plain_energy": final["plain_energy"],
            "interior_sup": final["interior_sup"], "r0": ball["r0"],
            "stop_tol": tols[-1], "hinv": float(sums.max()),
            "hinv_ball": float(sums[inside].max()),
            "plain_grad_l1": float(np.sum(np.abs(plain_grad)))}


def main() -> int:
    reference = {}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) \
            as work:
        for name in workloads.NAMES:
            reference[name] = {}
            for size in ("full", "smoke"):
                path = os.path.join(work, f"{name}-{size}")
                reference[name][size] = reference_for(name, size == "smoke",
                                                      path)
                print(name, size, reference[name][size], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
