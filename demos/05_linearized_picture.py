"""
The linearized picture
======================

Small-strain elasticity tells a parallel story.  The linearized isochoric
energy mu |dev sym grad u|^2 has a four-parameter-plus-translation kernel
of displacement fields with conformal gradients; every member has zero
linearized stress.  Expanding the inversion-flip to second order around a
point produces exactly such a field, with an error that shrinks cubically
with the patch radius.
"""

import numpy as np

import confmech as cm
from confmech.tensors import dev, sym

# 1. A generic kernel member: grad u = <w, x> id + x (x) w - w (x) x
#    plus a constant conformal part.  Its symmetric trace-free part is
#    identically zero, hence so is the linearized stress.
k = cm.KernelDisplacement(beta=1.5, gamma=-0.25, p_hat=0.75, spin=0.5, b_hat=(0.3, -0.2))
x = np.array([0.4, -0.7])
u, G = cm.kernel_displacement(k, x)

print("u(0.4, -0.7)        = %s" % u)
print("|dev sym grad u|    = %.2e" % np.sqrt(np.sum(dev(sym(G)) ** 2)))
print("|sigma_lin(grad u)| = %.2e" % np.max(np.abs(cm.sigma_lin(G))))
print("W_lin(grad u)       = %.2e" % cm.w_lin_2d(G))

# 2. Nonzero distortion does get charged: a simple shear pays mu/2 per
#    unit area and its stress is the familiar symmetric shear couple.
shear = np.array([[0.0, 1.0], [0.0, 0.0]])
print("W_lin(shear) = %s, sigma_lin(shear) =\n%s" % (cm.w_lin_2d(shear), cm.sigma_lin(shear)))

# 3. The quadratic expansion of the inversion-flip around (0.5, 0) is a
#    kernel member with w = (16, 0), p = -13, A = 0, b = (6, 0); it
#    reproduces the map exactly at the expansion point.
q = cm.conformal_quadratic_approx()
print("w = %s, p = %s, b = %s" % (q.w, q.p_hat, q.b_hat))
x0 = np.array([0.5, 0.0])
u0, _ = cm.kernel_displacement(q, x0)
print("x0 + u(x0) = %s, phi(x0) = %s" % (x0 + u0, cm.InversionFlip(2)(x0)))

# 4. Away from the center the approximation degrades like radius^3; halving
#    the patch radius cuts the worst error by about a factor eight.
for r in (0.15, 0.075, 0.0375):
    err = cm.quadratic_approx_error(radius=r)
    print("radius %.4f: max |x + u(x) - phi(x)| = %.6f" % (r, err))

# 5. The three dimensional linearized composite density adds a volumetric
#    penalty: 2 |dev sym grad u|^2 + (tr grad u)^2.
H = np.array([[0.2, 0.1, 0.0], [0.0, -0.1, 0.3], [0.1, 0.0, 0.2]])
print("W_lin_3d(sample) = %.6f, W_lin_3d(id) = %s"
      % (cm.w_lin_3d_composite(H), cm.w_lin_3d_composite(np.eye(3))))
