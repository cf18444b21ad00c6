"""Engineer a bound state inside the continuum, then break it.

The construction has three moves: dress the two excited levels with a
magnetic field so their spontaneous decays interfere, solve the
closed-form conditions for the two laser detunings, and certify that
the resulting non-Hermitian Hamiltonian really has a real eigenvalue.
Removing the vacuum cross-decay (eta = 0) with everything else frozen
shows the interference is what keeps the state alive.
"""
from __future__ import annotations

from bic_lab import build, certify, dress, eigensystem, solve_bic


def main() -> None:
    # magnetic working point: strong mixing, slightly off resonance, with a
    # dressed splitting below the geometric mean of the bare widths
    pair = dress(omega_m=3.0, delta_m=1.0, gamma1_bare=6.0, gamma2_bare=4.0)
    print("dressed basis")
    print(f"  mixing angle theta = {pair.theta:.4f} rad")
    print(f"  dressed splitting  = {pair.splitting:.3f}")
    print(f"  feasibility splitting/sqrt(gamma1*gamma2) = {pair.feasibility:.2f}"
          " (favourable at about 1 or below)")
    print()

    sol = solve_bic(g1=3.0, g2=2.0, q1=-0.8, q2=0.54, delta=0.1,
                    gamma1=1.0, gamma2=1.0)
    print("closed-form detunings that decouple one dressed superposition")
    print(f"  delta1 = {sol.params.delta1:.6f}")
    print(f"  delta2 = {sol.params.delta2:.6f}")
    print(f"  eigenvalue lambda = {sol.lam:.6f}")
    print(f"  residuals  |A x - lambda x| = {sol.residual_a:.2e},"
          f"  |B x| = {sol.residual_b:.2e}")
    print()

    report = certify(sol.params)
    print("certification (independent full diagonalization)")
    print(f"  is_bic = {report.is_bic}, min |Im E~| = {abs(report.eigenvalue.imag):.2e}")
    for lam in eigensystem(build(sol.params)).eigenvalues:
        print(f"    E~ = {lam.real:+.6f} {lam.imag:+.6f}i")
    print()

    broken = certify(sol.params.replace(eta=0.0))
    print("same detunings without the vacuum cross-decay")
    print(f"  is_bic = {broken.is_bic}, min |Im E~| = {abs(broken.eigenvalue.imag):.2e}")
    print("  the state decays as soon as the two emission pathways stop interfering")


if __name__ == "__main__":
    main()
