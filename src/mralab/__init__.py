"""Numerical laboratory for signal estimation under random cyclic shifts:
ring arithmetic, moment tensors, sparse generators, beltway recovery,
restricted-MLE EM, curvature probes, and an experiment harness.
"""

from .ring import GroupElement, Signal, align, reflect, rho, shift, varrho
from .spectral import MomentTensor, delta_m, empirical_moments, power_spectrum
from .gensig import (DiluteClassSpec, gen_collision_free, gen_symm_bernoulli_gaussian,
                     gen_symm_interval, is_collision_free, lag_counts)
from .beltway import DifferenceProfile, recover_from_power_spectrum, solve_beltway
from .mra import (Dataset, MraConfig, RestrictedClass, em_restricted_mle,
                  kl_monte_carlo, log_likelihood, simulate)
from .probes import (FrequencySet, adversarial_direction, dilute_lower_bound_check,
                     lambda_construct, moderate_curvature_check,
                     moment_sandwich_probe, uup_check, uup_sample)
from .experiments import ExperimentConfig, ExperimentResult, run_experiment

__version__ = "0.1.0"
