"""From microscopic couplings to the dimensionless working point.

Everything upstairs runs on a dozen dimensionless numbers.  This demo
produces them from one level down: energy-dependent coupling functions
into the collisional continuum plus free-space dipole couplings.  The
continuum elimination turns those into level shifts (principal-value
integrals), widths (on-shell golden rule) and the vacuum cross-decay,
which are then scaled by hbar*Gamma_F/2 into model parameters.
"""
from __future__ import annotations

from bic_lab import (
    certify,
    derive_couplings,
    reference_gaussian_model,
    solve_bic,
    to_dimensionless,
)


def main() -> None:
    model = reference_gaussian_model()
    res = derive_couplings(model)

    print("continuum elimination of the bundled Gaussian model")
    print("  level shifts (PV integrals):")
    print(f"    E_sh_1 = {res.e_sh_1:+.6f}   E_sh_2 = {res.e_sh_2:+.6f}"
          f"   E_sh_F = {res.e_sh_f:+.6f}")
    print(f"    alpha  = {res.alpha:+.6f}   beta1  = {res.beta1:+.6f}"
          f"   beta2  = {res.beta2:+.6f}")
    print("  widths (on-shell):")
    print(f"    Gamma_1 = {res.gamma_1:.6f}   Gamma_2 = {res.gamma_2:.6f}"
          f"   Gamma_F = {res.gamma_f:.6f}")
    print(f"    spontaneous: gamma1_sp = {res.gamma1_sp:.6f},"
          f" gamma2_sp = {res.gamma2_sp:.6f}")
    print(f"    vacuum cross-decay gamma_vic = {res.gamma_vic:.6f}"
          f" ({res.vic_convention})")
    print()

    params = to_dimensionless(res, model)
    print("dimensionless parameters (energies in units of hbar*Gamma_F/2)")
    for key, value in params.as_dict().items():
        print(f"  {key:>7} = {value:+.6f}")
    print(f"  shifted Feshbach level => 1/(k_c a_s) = {params.inv_kca:+.4f}")
    print()

    # the derived geometry is generic; solving for the detunings that
    # support a bound state closes the loop back to the dimensionless layer
    sol = solve_bic(params.g1, params.g2, params.q1, params.q2, params.delta,
                    params.gamma1, params.gamma2, inv_kca=params.inv_kca)
    report = certify(sol.params)
    print("bound state supported by this microscopic model")
    print(f"  delta1 = {sol.delta1:+.4f}, delta2 = {sol.delta2:+.4f},"
          f" lambda = {sol.lam:+.4f}")
    print(f"  certified: is_bic = {report.is_bic},"
          f" min |Im E~| = {report.min_abs_im:.2e}")


if __name__ == "__main__":
    main()
