"""Is eliminating the continua actually legitimate?  Check by brute force.

The effective 3x3 description stands or falls with two approximations:
the projected resolvent identity (exact, checks the algebra and the
discretization) and the pole approximation that freezes all couplings
at the Feshbach energy (controlled, checked in the flat-coupling limit
where it should become exact).  Both are verified here on models with
hundreds to thousands of explicit continuum bins: the identity against
the full resolvent (z - H)^-1 from a sparse LU factorization of the whole
matrix, the poles by a self-consistent search on H_PP + Sigma(z).
"""
from __future__ import annotations

import numpy as np

from bic_lab import (
    CouplingModel,
    FlatCoupling,
    GridSpec,
    compare_pole_approximation,
    derive_couplings,
    discretize,
    pv_integral,
    reference_gaussian_model,
    resolvent_check,
    smoothed_kernel_sum,
    to_dimensionless,
)
from bic_lab.microscopic import WignerCoupling


def main() -> None:
    model = reference_gaussian_model()
    grid = GridSpec(e_min=0.0, e_max=4.5, n_e=400, k_min=0.0, k_max=3.0, n_k=200)
    dm = discretize(model, grid)
    print(f"discretized model: {dm.size} states "
          f"({grid.n_e} collision bins, 2 x {grid.n_k} photon bins)")

    report = resolvent_check(dm)
    print("projected resolvent vs self-energy-assembled inverse")
    for z, dev in zip(report.probes, report.deviations):
        print(f"  z = {z.real:+7.3f} {z.imag:+7.3f}i   deviation {dev:.2e}")
    print(f"  max deviation {report.max_deviation:.2e} (identity, so ~machine eps)")
    print()

    lam = WignerCoupling(amplitude=0.3, scale=1.0)
    f = lambda e: lam(e) ** 2
    oracle = pv_integral(f, 0.25, upper=5.0)
    kernel = smoothed_kernel_sum(f, 0.25, 0.0, 5.0, 4000)
    print("principal value two ways (threshold-law coupling, pole at 0.25)")
    print(f"  adaptive quadrature: {oracle:+.8f}")
    print(f"  smoothed bin sum:    {kernel.real:+.8f}"
          f"  (difference {abs(kernel.real - oracle):.1e})")
    print(f"  its imaginary part, {kernel.imag:+.6f}, approaches the width"
          f" term -pi*f(E3) = {-np.pi * f(0.25):+.6f} as the bins shrink")
    print()

    # flat couplings on a wide window: freezing them at E3 costs nothing,
    # so the 3x3 poles must match the discretized poles to grid accuracy
    flat = CouplingModel(
        lambda1=FlatCoupling(0.005), lambda2=FlatCoupling(0.008),
        v3=FlatCoupling(0.01), v1f=0.0, v2f=0.0,
        omega13=0.002, omega23=-0.001, e3=5.0, dipole_overlap=0.0,
        e_max=10.0)
    res = derive_couplings(flat)
    params = to_dimensionless(res, flat, e1=4.99, e2=5.01)
    dm_flat = discretize(flat, GridSpec(e_min=0.0, e_max=10.0, n_e=8000),
                         e1_rot=4.99, e2_rot=5.01)
    cmp = compare_pole_approximation(dm_flat, flat, params)
    print("pole approximation in the flat-coupling limit")
    for eff, disc in zip(cmp.reference, cmp.poles):
        print(f"  effective {eff.real:+.6f} {eff.imag:+.3e}i   "
              f"discretized {disc.real:+.6f} {disc.imag:+.3e}i")
    print(f"  max pole deviation {cmp.max_deviation:.2e}")


if __name__ == "__main__":
    main()
