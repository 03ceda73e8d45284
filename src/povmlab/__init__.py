"""Numerical verification lab for POVM constructions and modular flows.

Finite-dimensional and discretized models of:

- POVMs, Naimark dilation, and the moment POVM of a contraction;
- Tomita-Takesaki modular data of a faithful state on a matrix algebra;
- the harmonic-oscillator phase observable and its thermal covariance;
- the free massless relativistic particle on a periodized grid;
- a log-frequency lattice model of the dilation-group Weyl calculus.

Every identity that holds exactly at the discrete level is checked to
rounding accuracy; discretization-limited quantities are probed through
convergence studies instead.
"""

from .operators import (DEFAULT_TOL, EFFECT, NOT_EFFECT, PROJECTION, Defect,
                        adjoint, funcalc, herm_spectrum, imag_power, is_effect,
                        is_hermitian, opnorm, sqrtm_psd)
from .regions import RegionSet, circle_full, equal_partition
from .povm import (DiscretePOVM, MomentReport, NaimarkDilation, PovmReport,
                   contraction_moment_povm, naimark_dilate, povm_integrate,
                   povm_validate, random_povm, state_to_measure)
from .modular import (GnsRep, ModularTriple, TraceWeight, build_gns,
                      build_modular, kms_residual, lemma_modular_residual,
                      modtime_unitarity)
from .oscillator import (commutator_defect, covariance_residual, gibbs,
                         phase_effect, thermal_covariance_residual,
                         toeplitz_arg, weyl_failure_check)
from .relativistic import (CircleGrid, HardyModel, boundary_isometry_check,
                           hardy_project, poisson_apply, poisson_kernel,
                           poisson_kernel_error, rel_effect,
                           rel_covariance_residual, tau_unitarity_residual)
from .weylnc import (MellinLattice, SymbolRep, conjugation_residual,
                     htau_norm, nc_covariance_residual, nc_effect,
                     nc_integral, quantize, weyl_relation_residual)
from .harness import SuiteConfig, convergence_study, run_suite

__version__ = "0.1.0"
