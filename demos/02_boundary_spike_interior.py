"""
Interior boundedness against a boundary spike
=============================================

A Dirichlet datum with a tall, narrow pyramid on one edge (sup about 100)
is prescribed on the unit square.  Linear-growth energies let minimizers
detach from such data: the solution stays of background size well inside
the domain, at every regularization strength delta.  This script solves
the continuation ladder and audits the mechanism behind that bound on a
family of shrinking concentric balls.
"""

import numpy as np

from lingrow.instances import dirichlet_boundary_spike
from lingrow.moser import BallFamily, moser_report
from lingrow.solver import SolverConfig, continuation_solve

# ---------------------------------------------------------------------------
# the instance: pyramid of height 100 at (0.5, 0), affine background 2+x+y

problem = dirichlet_boundary_spike(nx=64, ny=64)
u0 = problem.u0_interior()
print("datum sup:", round(float(np.max(u0.values)), 2),
      " background at center about 3")

# shrinking balls around the domain center, two-dimensional as the grid is:
# the limit ball has half the starting radius, the exponents double from
# level to level, and the audit runs on every ladder rung
family = BallFamily(center=(0.5, 0.5), r0=0.3, j_max=6)
print("ball radii:", np.round(family.ball(0).radius, 4), "->",
      np.round(family.limit_ball().radius, 4))

# ---------------------------------------------------------------------------
# continuation in delta: solve 1e-1 -> 1e-4, warm-starting each rung

config = SolverConfig(mu=1.5)
records = continuation_solve(problem, config,
                             interior_ball=family.limit_ball())
print("\ndelta      iters  interior sup   total variation")
for rec in records:
    print(f"{rec.delta:<9g} {rec.stats.iters:>6d}  {rec.interior_sup:>12.6f}"
          f"  {rec.tv:>16.4f}")

sups = [rec.interior_sup for rec in records]
print("interior sup stays near the background level "
      f"(spike/10 = 10, worst = {max(sups):.3f})")

# ---------------------------------------------------------------------------
# the iteration audit at the smallest delta

report = moser_report(records[-1].u, family, s_values=(0.0, 1.0, 3.0))
print(f"\naudit at delta={records[-1].delta:g}: "
      f"{'PASS' if report.passed else 'FAIL'}")
print("level masses a_j:", np.round(report.masses, 4))
print("recursion constants c_j:", np.round(report.recursion.c, 4),
      " c_max:", round(report.recursion.c_max, 4))
b = report.sup_bound
print(f"sup bound: predicted {b.predicted:.3f} >= observed {b.observed:.3f}"
      f"  (prefactor {b.prefactor:g}, Lq norm {b.lq_norm:.3f})")
for check in report.caccioppoli:
    print(f"cutoff constants s={check.s:g}: "
          f"{np.round(check.c_levels, 4)}  variation {check.variation:.1%}")

# the per-level table, whose columns the command line tool writes per rung
# as moser_<delta>.csv (c_j is not defined at the last level)
print("\n  j       R_j       s_j             a_j       c_j")
for j in range(report.j_max + 1):
    c = f"{report.recursion.c[j]:9.4f}" if j < report.j_max else ""
    print(f"{j:>3d} {report.radii[j]:9.5f} {report.exponents[j]:9g} "
          f"{report.masses[j]:15.6g} {c}")
