"""
Conformal maps: the inversion-flip, Moebius factorizations, grid pictures
=========================================================================

A map is conformal when its gradient is a rotation times a positive scale
at every point.  This script walks through the planar and spatial
inversion-flip x -> (x1, -x2, ...)/|x|^2, checks its gradient against that
definition, factors it into reflections, and draws the image of a gridded
disk as an SVG.
"""

import os

import numpy as np

import confmech as cm

out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out_dir, exist_ok=True)

# 1. Point values.  In complex notation the planar map is z -> 1/z.
phi2 = cm.InversionFlip(2)
x = np.array([0.5, 0.0])
print("phi(0.5, 0)      = %s" % (phi2(x),))
print("phi(0.3, -0.4)   = %s" % (phi2(np.array([0.3, -0.4])),))

# 2. The gradient is conformal: F^T F is a multiple of the identity and
#    det F = |x|^{-4} > 0.  The residual measures the distance from CSO(2).
F = phi2.gradient(x)
print("grad phi at (0.5, 0):\n%s" % (F,))
print("det grad         = %s (|x|^-4 = %s)" % (cm.det(F), float(x @ x) ** -2))
print("conformality res = %.3e" % cm.conformality_residual(F))

# F = scale R with R a rotation: in 2D the scale is det^{1/2}, and R's angle is F's first column's
print("scale, rotation angle = %.6f, %.6f rad" % (cm.det(F) ** 0.5, np.arctan2(F[1, 0], F[0, 0])))

# 3. The same map is a sphere inversion followed by a plane reflection,
#    which is how the three dimensional version stays conformal too.
sphere, plane = cm.SphereReflection([0.0, 0.0], 1.0), cm.HyperplaneReflection([0.0, 1.0], 0.0)
chain = cm.MoebiusMap([sphere, plane])
y = np.array([0.7, 0.2])
print("reflection chain agrees at (0.7, 0.2): %s" % np.allclose(chain(y), phi2(y)))

phi3 = cm.InversionFlip(3)
z = np.array([0.6, 0.1, -0.3])
G = phi3.gradient(z)
print("3d det grad      = %s (|x|^-6 = %s)" % (cm.det(G), float(z @ z) ** -3))
print("3d residual      = %.3e" % cm.conformality_residual(G))

# 4. A gridded disk and its curved image, side by side.
region = cm.DiskRegion(center=(0.5, 0.0), radius=0.21)
path = os.path.join(out_dir, "inversion_flip_grid.svg")
ref, img = cm.render_grid_svg(phi2, region, path)
print("wrote %s (%d reference lines, %d image lines)" % (path, len(ref), len(img)))
