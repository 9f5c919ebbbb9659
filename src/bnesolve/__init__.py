"""Approximate Bayes-Nash equilibria for auctions and contests.

Discretizes observation/valuation/action spaces, represents strategies as
distributional-strategy matrices, runs simultaneous online first-order
learning, and certifies the result by exact best-response computation in the
discretized game.
"""

__version__ = "0.1.0"

from .grids import Grid, discretize_density, make_uniform_grid
from .priors import (AffiliatedValuesPrior, BernoulliWeightsLLGPrior, CommonValuePrior,
                     CustomDensityMarginal, DiscretePrior, IndependentPrivatePrior,
                     TruncatedGaussianMarginal, UniformMarginal, bernoulli_weights_prior,
                     independent_prior, joint_from_latent)
from .mechanisms import (LLGAuction, Mechanism, SingleObjectAuction, SplitAwardAuction,
                         TullockContest, crra, expost_utility, make_mechanism)
from .strategy import Strategy, init_strategy, iterate_distance, load_strategy, save_strategy
from .gradient import GradientEngine, expected_utility, gradient_symmetric_iid
from .learners import RunResult, make_learner, project_rows_to_simplex, run
from .verify import (Certificate, best_response, best_response_matrix, collusive_profile,
                     relative_utility_loss, utility_loss, vs_probe)
from .evaluate import (AnalyticBNE, EvalReport, emit_plot_data, estimate_revenue, evaluate,
                       lookup_analytic)
from .config import Problem, RunConfig, build_problem, load_config
from .runner import run_batch, run_sweep
