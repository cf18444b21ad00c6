"""Bound states in the continuum protected by vacuum-induced coherence.

A small numerical laboratory for a three-level photoassociation model:
two laser-dressed molecular states and a Feshbach quasi-bound state
coupled through a collisional continuum and two photon continua.  The
package assembles the non-Hermitian effective Hamiltonian, solves the
bound-state-in-continuum conditions in closed form, computes Fano
spectra with ultra-narrow-peak metrics, derives the effective
parameters from microscopic couplings, and validates the continuum
elimination against a brute-force discretized model.
"""

__version__ = "0.1.0"

from .bic import BicSolution, CertificationReport, certify, solve_bic
from .dressing import DressedPair, dress
from .discretized import (DiscretizedModel, GridSpec, PoleComparison,
                          ResolventReport, compare_pole_approximation,
                          discretize, resolvent_check, smoothed_kernel_sum)
from .errors import (BicLabError, ConvergenceFailure, DegenerateDressing,
                     DegenerateVector, GainMode, GridCoverage, MultiPeak, NoPeak,
                     PoleHit, ProbeOnSpectrum, SingularEndpoint, ValidationError,
                     ZeroCross, ZeroWidth)
from .hamiltonian import ComplexEigenSet, build, eigensystem
from .microscopic import (CouplingModel, FlatCoupling, GaussianCoupling,
                          MicroscopicResult, WignerCoupling, derive_couplings,
                          pv_integral, reference_gaussian_model, to_dimensionless)
from .params import DimensionlessParams, validate
from .spectrum import (EtaPoint, EtaSweepResult, PeakMetrics, SpectrumSeries,
                       peak_metrics, refine_peak, spectrum_series, sweep_eta)

__all__ = [name for name in dir() if not name.startswith("_")]
