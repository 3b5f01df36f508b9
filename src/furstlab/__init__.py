"""Simulator and verification lab for Furstenberg measures on the complex
projective line: dynamical quantities of finitely supported random walks on
SL(2,C), assumption certifiers, and seeded experiments testing the dimension
formula dim = min{2, h / (2 chi)} at desk scale.
"""

from .sl2 import (GroupElement, ProjPoint, SvdDecomposition, INFINITY, E1,
                  E2, boundary_direction, chart_g, chart_g_inverse, dist_cp1,
                  dist_g_proxy, mobius_derivative, proj_act, psi, svd2)
from .words import System, Word, product_of_word, sample_word
from .checks import (AssumptionReport, EntropyTable, HermitianClass,
                     certify, check_proximality, check_strong_irreducibility,
                     diophantine_probe, find_common_fixed_points,
                     find_fixed_circles, random_walk_entropy)
from .dyadic import (EmpiricalMeasure, EntropyReport, project_component,
                     projection_entropies, sphere_to_plane)
from .engine import (BoundaryCloud, EstimateWithCI, LyapunovEstimate,
                     delta_estimate, dim_estimate, lyapunov_estimate,
                     sample_boundary)
from .experiments import (CocycleTrace, PipelineBudget, ThetaSpec, EXPERIMENTS,
                          exp_action_entropy_transfer, exp_boundary_convergence,
                          exp_direction_cocycle, exp_entropy_increase,
                          exp_linearization_check, exp_main_theorem,
                          exp_projection_entropy, exp_uniform_entropy_dim)
from .reporting import ExperimentReport
from .config import RunConfig, load_config, parse_config
from .presets import get_preset, list_presets

__version__ = "0.1.0"
