"""
Denoising and inpainting unbounded data
=======================================

The fidelity problem penalizes distance to a datum f away from an
inpainting region D.  Here f is a truncated inverse-square-root spike
(sup about 100) plus noise: f is square-integrable but far from bounded,
yet the minimizer is bounded on interior balls, provided the ball carries
little enough data mass.  select_radius finds such a ball automatically.
"""

import numpy as np

from lingrow.energy import clip_data
from lingrow.instances import fidelity_inverse_sqrt
from lingrow.moser import BallFamily, select_radius
from lingrow.solver import SolverConfig, continuation_solve, verify_minimality

# ---------------------------------------------------------------------------
# the instance: spike at (0.8, 0.8), mask over [0.1, 0.4] x [0.3, 0.6]

problem = fidelity_inverse_sqrt(nx=64, ny=64)
print("datum sup:", round(float(np.max(problem.f.values)), 1),
      " masked cells:", int(problem.mask.member.sum()))

# pick an audit ball near the point of interest; the threshold epsilon0
# comes from the smallness condition 2 lam sqrt(epsilon0) <= 1/2, and the
# radius halves until the local data mass drops below epsilon0 * r^2
x0 = (0.25, 0.45)
r0, eps0 = select_radius(problem.f, problem.mask, problem.lam, x0)
print(f"selected radius {r0:g} at {x0}, threshold epsilon0 = {eps0:g}")
# five levels of shrinking balls from r0 toward the limit ball of r0/2
family = BallFamily(x0, r0, j_max=5)

# ---------------------------------------------------------------------------
# continuation ladder; the data term uses f clipped at +-1/delta, so the
# effective datum converges to f as delta shrinks

records = continuation_solve(problem, SolverConfig(mu=1.5),
                             interior_ball=family.limit_ball())
h2 = problem.grid.h ** 2
print("\ndelta      iters  interior sup   ||f_delta - f||_L2")
for rec in records:
    gap = float(np.sqrt(np.sum(
        (clip_data(problem.f, rec.delta).values - problem.f.values) ** 2)
        * h2))
    print(f"{rec.delta:<9g} {rec.stats.iters:>6d}  {rec.interior_sup:>12.6f}"
          f"  {gap:>18.6f}")

# ---------------------------------------------------------------------------
# audit the final solution: random energy-increase probes around it

from lingrow.energy import RegularizationState

reg = RegularizationState(records[-1].delta, 1.5, "fidelity")
audit = verify_minimality(problem, reg, records[-1].u, trials=100, seed=0)
print(f"\nminimality: {'PASS' if audit.passed else 'FAIL'} "
      f"(worst energy increase {audit.worst_margin:.3e} "
      f"over {audit.trials} probes)")

# pure denoising (no mask) has a unique minimizer; two unrelated starting
# points land on the same solution
from lingrow.grids import Field

pure = fidelity_inverse_sqrt(nx=64, ny=64, mask_rect=None)
cfg = SolverConfig(mu=1.5, delta_schedule=(0.1, 0.01), residual_tol=1e-10)
finals = []
for seed in (101, 202):
    rng = np.random.default_rng(seed)
    init = Field(pure.grid, rng.uniform(-1.0, 1.0, size=(64, 64, 1)))
    finals.append(continuation_solve(pure, cfg, init=init)[-1].u)
gap = float(np.sqrt(np.sum((finals[0].values - finals[1].values) ** 2) * h2))
print(f"pure denoising, two random starts: L2 gap {gap:.3e}")
