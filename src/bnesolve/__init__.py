"""Approximate Bayes-Nash equilibria for auctions and contests.

Discretizes observation/valuation/action spaces, represents strategies as
distributional-strategy matrices, runs simultaneous online first-order
learning, and certifies the result by exact best-response computation in the
discretized game.
"""

__version__ = "0.1.0"

from .grids import make_uniform_grid
from .mechanisms import LLGAuction, SingleObjectAuction
from .strategy import init_strategy
from .gradient import GradientEngine, expected_utility
from .learners import make_learner
from .verify import best_response_matrix, collusive_profile, vs_probe
from .evaluate import estimate_revenue, evaluate, lookup_analytic
from .config import RunConfig, build_problem
from .runner import solve
