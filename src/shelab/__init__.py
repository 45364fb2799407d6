"""Monte Carlo laboratory for the 1+1d stochastic heat equation with
multiplicative space-time white noise and narrow-wedge (Dirac) initial data.

Subpackages:
  kernels      exact heat-kernel evaluations and identities
  noise        counter-based reproducible white-noise increments
  sim          positivity-preserving operator-splitting field evolution
  green        shared-noise Green's functions and the shift identity
  stats        translate-averaged covariance, spatial averages, normality tests
  oracles      deterministic quadrature oracles (simulator-independent)
  experiments  experiment configs, parallel drivers, CSV + report output
"""

__version__ = "0.1.0"

from .kernels import (fourier_indicator, heat_kernel, kernel_product_identity,
                      kernel_shift_identity, log_heat_kernel)
from .noise import NoiseStream, ZeroNoise
from .sim import GridSpec, default_grid, evolve, heat_step, noise_step
from .green import shift_identity_samples
from .stats import (CovarianceAccumulator, CovarianceEstimate, TestReport,
                    fdd_covariance, ks_normality)
from .oracles import (QuadratureResult, lemma_2, lemma_s0, lemma_twotime,
                      lemma_y, limiting_constant, reduced_cov_integral,
                      second_moment_volterra)
from .experiments import ExperimentConfig, FitDecayResult, RunReport, fit_decay, run
