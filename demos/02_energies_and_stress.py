"""
Isotropic energies and their Cauchy stress
==========================================

The package ships five frame-indifferent isotropic energies: two planar
distortion energies, a squared-ratio energy, the isochoric neo-Hooke term
in three dimensions, and composite variants that add a spliced volumetric
part.  All report value, first derivative, and the second derivative form,
and the Cauchy stress follows as sigma = P F^T / det F.
"""

import numpy as np

import confmech as cm
from confmech.energies import fd_first_derivative

print("built-in energies: %s" % (list(cm.BUILTIN_ENERGIES),))

# 1. Values on simple states.  Conformal matrices minimize the isochoric
#    parts, so scaled rotations score zero there.
F = np.diag([2.0, 1.0])
R = 1.7 * np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
for name in ("iso2d-klin2", "iso2d-psi", "composite2d"):
    E = cm.builtin_energy(name)
    print("%-12s W(diag(2,1)) = %10.6f   W(1.7 R) = %10.6f"
          % (name, E.value(F), E.value(R)))

# 2. The first derivative agrees with a central difference of the value.
E = cm.builtin_energy("composite2d")
P = E.first_derivative(F)
P_fd = fd_first_derivative(E, F)
print("first derivative check: max entry gap %.2e" % np.max(np.abs(P - P_fd)))

# 3. Cauchy stress.  On conformal states with determinant inside the
#    constant-slope band [e, e+2] of the volumetric splice, the composite
#    energies produce the same isotropic stress (2/e) id everywhere.
lam = 1.75  # det = lam^2 = 3.0625 lies inside [e, e+2]
sig = E.cauchy_stress(lam * np.eye(2))
print("sigma(1.75 id) =\n%s" % sig)
print("distance from (2/e) id: %.2e" % np.sqrt(np.sum((sig - 2.0 / np.e * np.eye(2)) ** 2)))

# 4. The squared-ratio energy is stress free on every conformal matrix,
#    not only those in a determinant band.
K = cm.builtin_energy("iso2d-klin2")
for s in (0.3, 1.0, 4.2):
    print("iso2d-klin2 |sigma(%.1f R)| = %s" % (s, np.max(np.abs(K.cauchy_stress(s * R / 1.7)))))

# 5. In three dimensions the isochoric neo-Hooke term behaves the same way.
E3 = cm.builtin_energy("iso3d")
print("iso3d W(id) = %s, W(diag(2,1,1)) = %.10f"
      % (E3.value(np.eye(3)), E3.value(np.diag([2.0, 1.0, 1.0]))))
print("iso3d |sigma(2.2 id)| = %.2e" % np.max(np.abs(E3.cauchy_stress(2.2 * np.eye(3)))))

# 6. The volumetric splice itself: continuous slope 2/e across [e, e+2],
#    curvature 2 at the natural state t = 1.
vol = cm.VolumetricTerm()
for t in (1.0, 2.0, np.e, 4.0, vol.c, 6.0):
    print("f(%-8.5f) = %10.6f   f' = %10.6f" % (t, vol.value(t), vol.slope(t)))
print("f''(1) = %s" % vol.curvature(1.0))
