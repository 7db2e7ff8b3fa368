"""selab: simulation and verification toolkit for empirical processes
sampled along stationary integer-lattice sequences."""

from .ledger import (LocalTimeLedger, TrajectoryStats, brute_force_stats,
                     condition_report, trajectory_stats)
from .sources import (Classification, CoboundarySource, ExplicitSource,
                      RandomWalkSource, StepDistribution, WindowFunctional,
                      classify, cursor, generate, simple_walk, stream)
from .rotation import (ContinuedFraction, RotationCocycle, SpecialFlowSource,
                       StepFunction, counterexample_ratio_schedule,
                       minimal_lambda_indices)
from .fields import (DiscreteField, GaussianField, MovingAverageField,
                     UniformField)
from .empirical import (WeightedEcdf, bridge_values, ledger_covariance,
                        mc_fclt, sampled_ecdf, sup_deviation)
from .spectral import (ReturnSeries, kernel_from_ledger, kernel_grid_mean,
                       lag_correlation, phi, psi, quadratic_form,
                       return_series, transient_variance_report)

__version__ = "0.1.0"
