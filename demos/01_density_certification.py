"""
Certifying a linear-growth density
==================================

A density is admissible when it grows linearly at infinity, has curvature
decaying like 1/(1+t), and keeps a mu-elliptic lower curvature floor.
This script builds the three built-in profiles, checks the closed forms
against a brute-force Riemann sum, and prints the certification report,
then the certified exponent and nu6 of two regularized densities.
"""

import numpy as np

from lingrow.profiles import (certify_conditions, combined, minimal_surface,
                              phi_mu, profile_d1, profile_d2, profile_eval,
                              recession_slope)

# ---------------------------------------------------------------------------
# the canonical mu-elliptic profile: double integral of (1+t)^(-mu)

p = phi_mu(1.5)
print("phi_mu(1.5) at t = 0, 1, 10:",
      [round(profile_eval(p, t), 6) for t in (0.0, 1.0, 10.0)])

# cross-check the closed form with a midpoint Riemann sum of the defining
# double integral; no quadrature library needed, just a fine grid
t = 3.0
n = 4000
s = (np.arange(n) + 0.5) * (t / n)
inner = np.cumsum((1.0 + s) ** (-1.5)) * (t / n)
brute = float(np.sum(inner) * (t / n))
print(f"closed form {profile_eval(p, t):.8f} vs Riemann sum {brute:.8f}")

# ---------------------------------------------------------------------------
# second profile: the minimal surface integrand sqrt(1+t^2) - 1, and a blend

ms = minimal_surface()
print("minimal_surface slope at infinity:", recession_slope(ms))
blend = combined(0.1, 1.5, ms)
print("combined(0.1, 1.5, ms) d1(1):", round(profile_d1(blend, 1.0), 6),
      " d2(1):", round(profile_d2(blend, 1.0), 6))

# ---------------------------------------------------------------------------
# certification: growth sandwich, curvature decay, ellipticity floor

for profile in (p, ms, blend):
    report = certify_conditions(profile)
    print(f"\n{profile.kind} (mu={profile.mu}):",
          "PASS" if report.all_passed else "FAIL")
    for name, check in report.checks.items():
        print(f"  {name:24s} passed={check.passed}  "
              f"worst={check.worst_violation:.2e}")
    c = report.constants
    print(f"  constants: nu1={c.nu1:.3f} nu3={c.nu3:.3f} nu5={c.nu5:.3f} "
          f"nu6={c.nu6:.3f} mu_certified={c.mu_certified:.3f}")

# the certified mu is the density's own: mu for phi_mu, 3 for the minimal
# surface integrand (its floor (1+t^2)^-1.5 is at least (1+t)^-3), and the
# smallest term's for a sum, whose floor is at least the sum of its weighted
# terms' floors; nu6 is the summed weight of the terms with that exponent

# ---------------------------------------------------------------------------
# regularized densities: a small delta term still sets the exponent, and its
# weight is nu6, though at t = 1e4 the floor has not yet settled on its
# slowest term; both are read from the terms, not from the sample

for profile, base in ((combined(1e-6, 1.5, ms), "minimal_surface"),
                      (combined(0.1, 1.2, phi_mu(1.5)), "phi_mu(1.5)")):
    report = certify_conditions(profile)
    c = report.constants
    print(f"combined({profile.delta:g}, {profile.mu:g}, {base}):",
          "PASS" if report.all_passed else "FAIL",
          f"mu_certified={c.mu_certified:g} nu6={c.nu6:.3g}")
