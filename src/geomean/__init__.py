"""Riemannian L^p centers of mass on constant-curvature manifolds.

Constant step-size gradient descent for the weighted Fréchet mean, with
the step-size policies, convergence monitors, and geometric verification
oracles that justify them.
"""

from .errors import (CutLocusError, DegenerateSecantError, DomainError,
                     GeomeanError, PreconditionError)
from .kernels import b_lower, c_upper, ct, secant_euclid, secant_sphere, sn
from .manifolds import (Circle, Euclidean, Hyperbolic, ManifoldSpace,
                        RealProjective, SO3, SpaceConstants, Sphere,
                        make_space, space_from_json)
from .frechet import (WeightedDataset, cost, dataset_from_json,
                      fd_hessian_quadratic_form, hessian_radial_bounds,
                      make_dataset, uniform_hessian_bound)
from .stepsize import (RateEstimate, SpreadStep, StepPolicy, exit_time_bounds,
                       rate_estimate, resolve_exit_compromise,
                       resolve_exit_compromise_bounds,
                       resolve_spread_compromise)
from .solver import (SolverConfig, Trace, descend, fit_tail_rate,
                     minimal_ball_estimate, trailing_rate)
from .geocheck import (Chart, comparison_check, hull_check, hull_membership,
                       tethering_check)

__version__ = "0.1.0"
