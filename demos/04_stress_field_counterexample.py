"""
Non-affine equilibria with constant stress
==========================================

Uniform Cauchy stress usually forces an affine deformation.  The conformal
inversion-flip breaks that expectation for isotropic energies whose minimum
sits on the conformal group: the planar distortion energy K - 1 is stress
free along the whole map, with a true derivative; the squared-ratio energy
is too, but only by the subgradient convention at its corner on the
conformal group.  The composite energies produce the constant stress
(2/e) id on an annulus chosen so every local determinant stays inside the
constant-slope band of the volumetric term.  Laminates cannot rescue the
affine intuition either, because two distinct conformal gradients are never
rank-one connected.
"""

import os
import warnings

import numpy as np

import confmech as cm

out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
os.makedirs(out_dir, exist_ok=True)

# 1. Stress free and visibly non-affine, on the planar map.  iso2d-psi,
#    W = K - 1, is smooth: its zero stress is a true derivative, and
#    finite-difference gradients keep the field homogeneous.  iso2d-klin2,
#    W = (lmax/lmin)^2 - 1, has h'(1) = 2, a corner on CSO(2): its zero stress
#    rests on the subgradient convention, and gradients that leave the tie by
#    rounding get the cone's slope instead.
phi = cm.InversionFlip(2)
dom = cm.admissible_annulus("phi2d")
print("planar annulus r in [%.6f, %.6f]" % (dom.r_min, dom.r_max))
for name, rests_on in (("iso2d-psi", "a true derivative"), ("iso2d-klin2", "the subgradient convention")):
    E = cm.builtin_energy(name)
    samples, summary = cm.stress_field(E, phi, dom, n=2000, seed=42)
    _, fd = cm.stress_field(E, phi, dom, n=2000, seed=42, tol=1e-5, use_fd=True)
    print("%s: max |sigma| over %d points %.3e (max deviation %.3e), stress free by %s"
          % (name, summary.n_samples, np.max(np.abs(samples.sigma)), summary.max_deviation, rests_on))
    print("  with fd gradients: homogeneous %s (max deviation %.3e)" % (fd.homogeneous, fd.max_deviation))
spread = np.sqrt(np.sum((samples[0].F - samples[1].F) ** 2))
print("two sampled gradients differ by %.3f, so the map is not affine" % spread)

# 2. Constant but nonzero: the composite energies on the admissible annuli.
for name, kind, dim in (("composite2d", "phi2d", 2), ("composite3d", "phi3d", 3)):
    Ec = cm.builtin_energy(name)
    dom_c = cm.admissible_annulus(kind)
    phi_c = cm.InversionFlip(dim)
    samples, summary = cm.stress_field(Ec, phi_c, dom_c, n=2000, seed=42)
    target = 2.0 / np.e * np.eye(dim)
    dev = max(np.sqrt(np.sum((s.sigma - target) ** 2)) for s in samples)
    print("%s: det range (%.4f, %.4f) inside [e, e+2] = %s, max |sigma - (2/e) id| = %.2e"
          % (name, summary.det_range[0], summary.det_range[1], summary.admissible, dev))

# 3. Negative control: widen the annulus and the determinant leaves the
#    band, the field stops being homogeneous, and the summary says so.
wide = cm.AnnulusDomain(2, 0.5, 0.95)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", cm.InadmissibleDomainWarning)
    _, bad = cm.stress_field(cm.builtin_energy("composite2d"), phi, wide, n=2000, seed=42)
print("widened annulus homogeneous: %s (max deviation %.3e)"
      % (bad.homogeneous, bad.max_deviation))

# 4. No laminate explains a constant-stress field built from two different
#    conformal gradients: det(F1 - F2) = (a1-a2)^2 + (b1-b2)^2 > 0 keeps
#    the jump at full rank.  A genuinely rank-one pair is flagged as such.
F1 = np.array([[2.0, 1.0], [-1.0, 2.0]])
F2 = np.array([[-1.0, 3.0], [-3.0, -1.0]])
rep = cm.jump_check(F1, F2)
print("conformal pair: det(F1 - F2) = %s = %s + %s, rank %d, rank-one connected: %s"
      % (rep.det_difference, rep.det_square_terms[0], rep.det_square_terms[1],
         rep.rank, rep.rank_one_connected))
aff = cm.jump_check(np.eye(2), np.eye(2) + np.outer([1.0, 0.0], [0.0, 1.0]))
print("affine pair:    rank %d, rank-one connected: %s" % (aff.rank, aff.rank_one_connected))

# 5. Persist one field for inspection; the CSV layout matches the CLI.
path_csv = os.path.join(out_dir, "composite2d_field.csv")
path_json = os.path.join(out_dir, "composite2d_summary.json")
samples, summary = cm.stress_field(
    cm.builtin_energy("composite2d"), phi, cm.admissible_annulus("phi2d"), n=200, seed=0
)
cm.write_field_csv(path_csv, samples)
cm.write_summary_json(path_json, summary)
print("wrote %s and %s" % (path_csv, path_json))
