"""
Rank-one convexity certificates
===============================

Three complementary checks: the rank-one second derivative form evaluated
directly, two-sided stretch conditions for planar isotropic energies on a
principal-stretch grid, and randomized scans that certify or refute
ellipticity for each built-in energy.
"""

import numpy as np

import confmech as cm

# 1. The second derivative along a rank-one direction xi (x) eta must be
#    positive for strict rank-one convexity.  At the identity the spatial
#    isochoric energy gives exactly 8/3 along e1 (x) e1.
E3 = cm.builtin_energy("iso3d")
e1 = np.array([1.0, 0.0, 0.0])
print("iso3d rank-one form at id, e1 (x) e1: %s" % cm.lh_form(E3, np.eye(3), e1, e1))

rng = np.random.default_rng(11)
worst = np.inf
for _ in range(2000):
    F = cm.random_def_gradient(rng, 3, (0.1, 10.0))
    worst = min(worst, cm.lh_form(E3, F, rng.standard_normal(3), rng.standard_normal(3)))
print("min over 2000 random (F, xi, eta): %.4e" % worst)

# 2. Stretch-space conditions for W(F) = g(lam1, lam2).  For the squared
#    ratio g(l1, l2) = (l1/l2 - 1)^2 every applicable condition value is
#    positive on a wide logarithmic grid, which certifies strict rank-one
#    convexity of the planar squared-ratio energy.  One pair gives one
#    report of numpy scalars, a grid one report of grid-shaped arrays; the
#    five values of a point are g_11, g_22, the shear condition and the one
#    beside it (or, on coincident stretches, the two that replace them), and
#    the last condition.
rep = cm.knowles_sternberg(
    cm.ratio_minus_one_squared, 2.0, 1.0,
    derivatives=cm.ratio_minus_one_squared_derivatives,
)
g11, g22, shear, other, last = rep.values
print("at (2, 1): g_11 = %s, g_22 = %s, shear condition = %s" % (g11, g22, shear))
print("remaining conditions: %.6f, %.6f" % (other, last))

lams = np.logspace(-1.0, 1.0, 30)
grid = cm.ks_grid_scan(
    cm.ratio_minus_one_squared, lams,
    derivatives=cm.ratio_minus_one_squared_derivatives,
)
print("grid: %d points (%d on coincident stretches), min condition value %.4e, all strict: %s"
      % (grid.strict.size, np.count_nonzero(grid.coincident), np.min(grid.values), np.all(grid.strict)))

# 3. Scalar criterion for h(s) with W = h(lam_max / lam_min): convexity
#    plus a monotonicity margin of s h'(s) decides the planar case.
for label, h in (
    ("(s - 1)^2", lambda s: (s - 1.0) ** 2),
    ("s^2 - 1", lambda s: s**2 - 1.0),
    ("sqrt(s)", np.sqrt),
):
    r = cm.h_criterion(h)
    print("h = %-10s -> %s" % (label, r.verdict))

# 4. Randomized certificates for every built-in energy, plus a deliberate
#    failure: the negated Frobenius norm is concave, so the scan refutes it.
for name in cm.BUILTIN_ENERGIES:
    v = cm.scan_rank_one_convexity(cm.builtin_energy(name), n_samples=300, seed=5)
    print("%-12s %s (min form value %.3e)" % (name, v.verdict, v.min_lh_form))


class NegFrobenius(cm.EnergyModel):
    dim = 2
    label = "neg-frob"

    def value(self, F):
        return -np.sum(F * F, axis=(-2, -1))


bad = cm.scan_rank_one_convexity(NegFrobenius(), n_samples=300, seed=5)
print("%-12s %s (min form value %.3e)" % ("-|F|^2", bad.verdict, bad.min_lh_form))
