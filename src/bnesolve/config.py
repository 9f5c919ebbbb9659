"""Run configuration: flat key = value text files with includable presets.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment outside a JSON string.  Values are parsed as JSON where possible and
kept as strings otherwise.  An ``include`` line merges a shipped preset id or
another file first, so every experiment is reproducible from a single small
file of overrides.

``build_problem`` turns a config into a ``Problem``; ``runner.solve`` runs
the problem once under the config's learner settings.
"""

from __future__ import annotations

import ast
import hashlib
import json
import operator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .evaluate import DEFAULT_EVAL_SAMPLES
from .gradient import DEFAULT_MEMORY_BUDGET, GradientEngine, agent_groups, gradient_path
from .grids import Grid
from .learners import make_learner
from .mechanisms import make_mechanism
from .priors import (CommonValuePrior, AffiliatedValuesPrior, BernoulliWeightsLLGPrior,
                     CustomDensityMarginal, IndependentPrivatePrior, MIN_SAMPLE_COUNT,
                     TruncatedGaussianMarginal, UniformMarginal)
from .strategy import INIT_MODES


@dataclass
class RunConfig:
    mechanism: str = "fpsb"
    agents: int = 2
    payment_rule: str = "NZ"
    tullock_r: float = 1.0
    risk_rho: float = 1.0
    split_cost_factor: float = 0.3
    split_cost_model: str = "scaled"

    prior: str = "uniform"
    obs_lower: object = 0.0           # scalar or per-agent list
    obs_upper: object = 1.0
    gamma: float = 0.5
    mu: float = 1.2
    sigma: float = 0.1
    density: str = ""
    prior_samples: int = 1_000_000
    prior_seed: int = 987654321

    obs_points: int = 64
    action_points: int = 64
    value_points: int = 64
    action_lower: object = 0.0        # scalar or per-axis list
    action_upper: object = 1.0

    learner: str = "soda1"
    eta0: float = 1.0
    step_beta: float = 0.5
    iterations: int = 1000
    tolerance: float = 1e-4
    check_interval: int = 10
    init: str = "random"
    symmetric: bool = True

    runs: int = 10
    seed: int = 1

    eval_samples: int = DEFAULT_EVAL_SAMPLES
    plot_points: int = 150
    memory_budget_gib: float = DEFAULT_MEMORY_BUDGET / (1 << 30)

    name: str = ""
    notes: str = ""

    def validate(self):
        if self.agents < 2:
            raise ValueError("need at least 2 agents")
        if min(self.obs_points, self.action_points, self.value_points) < 2:
            raise ValueError("grids need at least 2 points per axis")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.prior_seed < 0:
            raise ValueError("prior_seed must be >= 0")
        make_learner(self.learner, self.eta0, self.step_beta)  # refuses the name or step
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode '{self.init}' (choose from {INIT_MODES})")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if self.plot_points < 1:
            raise ValueError("plot_points must be >= 1")
        if self.eval_samples < 0:
            raise ValueError("eval_samples must be >= 0 (0 skips evaluation)")
        if not self.memory_budget_gib > 0:
            raise ValueError("memory_budget_gib must be > 0")
        if self.prior == "gaussian_trunc" and not self.sigma > 0:
            raise ValueError("sigma must be > 0 for the gaussian_trunc prior")
        if self.prior == "affiliated" and self.prior_samples < MIN_SAMPLE_COUNT:
            raise ValueError(f"prior_samples must be >= {MIN_SAMPLE_COUNT} for the binned "
                             "affiliated prior")
        # build_problem reads these per-agent or per-axis lists
        if self.prior in _MARGINAL_PRIORS:
            _per_entry(self, self.agents, "agent", "obs_lower", "obs_upper")
        _action_bounds(self)
        return self

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            lines.append(f"{f.name} = {json.dumps(v)}")
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_MARGINAL_PRIORS = ("uniform", "gaussian_trunc", "custom_density")  # obs_lower/upper bound them


def _number(key: str, t: str, value):
    """``value`` as config key ``key``'s ``t``, ``"int"`` or ``"float"``;
    a boolean, a fraction for an int and a non-finite float are refused."""
    kind = "an integer" if t == "int" else "a number"
    fraction = t == "int" and isinstance(value, float) and not value.is_integer()
    try:
        if isinstance(value, bool) or fraction:
            raise ValueError
        number = int(value) if t == "int" else float(value)
    except (TypeError, ValueError):
        raise ValueError(f"config key '{key}' takes {kind}, got {value!r}") from None
    if t == "float" and not np.isfinite(number):  # NaN, or JSON's Infinity and 1e999
        raise ValueError(f"config key '{key}' takes a finite number, got {value!r}")
    return number


def _coerce(key: str, value):
    t = _FIELD_TYPES[key]
    if t == "object":
        # a bound: one number, or a list of numbers (per agent or per axis),
        # kept as given so the config's text and hash stay as written
        for entry in value if isinstance(value, list) else [value]:
            _number(key, "float", entry)
        return value
    if isinstance(value, (list, dict)):
        raise ValueError(f"config key '{key}' takes one value, got {json.dumps(value)}")
    if t in ("int", "float"):
        return _number(key, t, value)
    if t == "bool":
        # one of the words in any case, or JSON true/false or 1/0; any other
        # number and null are refused, not read as their truth value
        if isinstance(value, str):
            word = value.lower()
        else:
            word = str(int(value)) if isinstance(value, int) else None
        if word not in _BOOL_WORDS:
            raise ValueError(f"config key '{key}' takes a boolean (1/0, true/false or "
                             f"yes/no), got {value!r}")
        return _BOOL_WORDS[word]
    return str(value)  # t == "str"


def _strip_comment(line: str) -> str:
    """``line`` up to its first ``#`` outside a double-quoted JSON string."""
    quoted = escaped = False
    for i, c in enumerate(line):
        if escaped:
            escaped = False
        elif c == "\\":
            escaped = quoted
        elif c == '"':
            quoted = not quoted
        elif c == "#" and not quoted:
            return line[:i]
    return line


def parse_config_text(text: str, *, base_dir: Path | None = None,
                      chain: tuple[Path, ...] = ()) -> dict:
    """Flat key/value parsing with recursive ``include`` merging.

    ``chain`` holds the resolved paths of the files being read, outermost
    first; a file that includes one of them is a cycle and is refused.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # bare strings stay strings
        if key == "include":
            out.update(_resolve_include(str(value), base_dir, chain))
        else:
            out[key] = value
    return out


def _resolve_include(ref: str, base_dir: Path | None, chain: tuple[Path, ...]) -> dict:
    from .presets import get_preset, has_preset

    if has_preset(ref):
        return dict(get_preset(ref))
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        raise FileNotFoundError(f"include '{ref}' is neither a preset nor a file: {path}")
    chain += (path.resolve(),)
    if chain[-1] in chain[:-1]:
        raise ValueError("config include cycle: " + " -> ".join(map(str, chain)))
    return parse_config_text(path.read_text(), base_dir=path.parent, chain=chain)


def config_from_mapping(mapping: dict) -> RunConfig:
    unknown = set(mapping) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**{k: _coerce(k, v) for k, v in mapping.items()})
    return cfg.validate()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config not found: {path} is not a file")
    return config_from_mapping(parse_config_text(path.read_text(), base_dir=path.parent,
                                                 chain=(path.resolve(),)))


def _per_entry(cfg: RunConfig, n: int, what: str, *keys) -> list[list[float]]:
    """Each of config ``keys`` as ``n`` floats: a list must have ``n`` entries,
    a scalar is repeated."""
    out = []
    for key in keys:
        value = getattr(cfg, key)
        value = value if isinstance(value, (list, tuple)) else [value] * n
        if len(value) != n:
            raise ValueError(f"config key '{key}' takes {n} per-{what} entries or one "
                             f"number, got {len(value)}")
        out.append([_number(key, "float", v) for v in value])
    return out


# the whitelist of density expressions: operator node type -> operation
_DENSITY_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow, ast.USub: operator.neg,
    ast.UAdd: operator.pos, ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}
# callable numpy functions and their argument counts (a further positional
# argument would be numpy's ``out`` and write into the grid points)
_DENSITY_CALLS = {"exp": (np.exp, 1), "log": (np.log, 1), "sqrt": (np.sqrt, 1),
                  "abs": (np.abs, 1), "minimum": (np.minimum, 2),
                  "maximum": (np.maximum, 2), "where": (np.where, 3)}


def _density_node(node):
    """The function of ``o`` that one node of a density expression computes.

    Anything outside the whitelist (the name ``o``, int and float constants,
    ``+ - * / **``, unary ``-``/``+``, one comparison, and calls of
    ``np.<name>`` for the names in ``_DENSITY_CALLS``) raises ``ValueError``.
    """
    kind = type(node)
    if kind is ast.Name and node.id == "o":
        return lambda o: o
    if kind is ast.Constant and type(node.value) in (int, float):
        value = float(node.value)  # so constant powers such as 9**9**9 cannot grow unbounded
        return lambda o: value
    fn, operands = None, ()
    if kind is ast.BinOp:
        fn, operands = _DENSITY_OPERATORS.get(type(node.op)), (node.left, node.right)
    elif kind is ast.UnaryOp:
        fn, operands = _DENSITY_OPERATORS.get(type(node.op)), (node.operand,)
    elif kind is ast.Compare and len(node.ops) == 1:
        fn = _DENSITY_OPERATORS.get(type(node.ops[0]))
        operands = (node.left, node.comparators[0])
    elif kind is ast.Call and type(node.func) is ast.Attribute and not node.keywords \
            and type(node.func.value) is ast.Name and node.func.value.id == "np":
        fn, arity = _DENSITY_CALLS.get(node.func.attr, (None, 0))
        if len(node.args) != arity:
            fn = None
        operands = node.args
    if fn is None:
        raise ValueError(f"density expression: {kind.__name__} '{ast.unparse(node)}' "
                         "is not allowed")
    args = [_density_node(a) for a in operands]
    return lambda o: fn(*(a(o) for a in args))


def _compile_density(expr: str):
    """A density function of the grid points ``o`` from a whitelisted expression.

    The expression is parsed, checked node by node and turned into nested
    numpy calls; it is never passed to ``eval``.
    """
    if not expr:
        raise ValueError("prior 'custom_density' needs a density expression in o")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"density expression does not parse: {exc.msg}") from None
    body = _density_node(tree.body)

    def fn(o):
        return np.asarray(body(o), dtype=np.float64) * np.ones_like(o)

    return fn


def build_prior_model(cfg: RunConfig):
    n = cfg.agents
    if cfg.prior in _MARGINAL_PRIORS:
        lows, highs = _per_entry(cfg, n, "agent", "obs_lower", "obs_upper")
        # one compiled density per config: CustomDensityMarginal compares its
        # fn by identity, and agents with equal marginals form one group
        density = _compile_density(cfg.density) if cfg.prior == "custom_density" else None
        specs = []
        for lo, hi in zip(lows, highs):
            if cfg.prior == "uniform":
                specs.append(UniformMarginal(lo, hi))
            elif cfg.prior == "gaussian_trunc":
                specs.append(TruncatedGaussianMarginal(cfg.mu, cfg.sigma, lo, hi))
            else:
                specs.append(CustomDensityMarginal(density, lo, hi))
        return IndependentPrivatePrior(specs)
    if cfg.prior == "common_value":
        return CommonValuePrior(n)
    if cfg.prior == "affiliated":
        if n != 2:
            raise ValueError("the affiliated-values model is defined for 2 agents")
        return AffiliatedValuesPrior(sample_count=cfg.prior_samples, seed=cfg.prior_seed)
    if cfg.prior == "bernoulli_llg":
        if n != 3:
            raise ValueError("the correlated-locals model is defined for 3 agents")
        return BernoulliWeightsLLGPrior(cfg.gamma)
    raise ValueError(f"unknown prior kind '{cfg.prior}'")


@dataclass
class Problem:
    """A fully materialized game: mechanism, grids, discretized prior and engine.

    The discretized prior and the gradient engine are built on first use and
    kept, so every run of the problem shares them.  The prior keeps what the
    mechanism's gradient path reads: a dense prior keeps its value joint only
    where that path is ``tensor`` (``risk_rho < 1``), and the ``affine`` path
    reads its value-weighted joint alone; ``value_grid`` is always kept.  A
    caller that needs the full prior on an affine game (a brute-force oracle)
    discretizes ``prior_model`` itself.  The engine's caches live
    as long as the problem: ``run_batch`` does not release them between runs,
    since every run would refill them, and a caller that is done with a
    problem drops it.  The one-shot certificate ``relative_utility_loss``
    (behind ``replay``) does not use this engine.  ``dataclasses.replace``
    carries the prior over but not the engine, so a copy on another mechanism
    whose path is ``tensor`` needs its prior discretized anew.
    """

    config: RunConfig
    mech: object
    prior_model: object
    obs_grids: list
    value_grid: object       # the one shared value's grid; None for private values
    action_grids: list       # per agent, tuple of per-axis grids
    groups: list
    prior: object = field(default=None, repr=False)
    _engine: GradientEngine | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def discretize(self):
        if self.prior is None:
            prior = self.prior_model.discretize(self.obs_grids, self.value_grid)
            if prior.value_joint is not None and gradient_path(self.mech) == "affine":
                prior = replace(prior, value_joint=None)
            self.prior = prior
        return self.prior

    @property
    def memory_budget(self) -> int:
        """``memory_budget_gib`` in bytes: the budget of every engine of this game."""
        return int(self.config.memory_budget_gib * (1 << 30))

    def engine(self) -> GradientEngine:
        if self._engine is None:
            self._engine = GradientEngine(self.mech, self.discretize(), self.action_grids,
                                          memory_budget=self.memory_budget, groups=self.groups)
        return self._engine


def _action_bounds(cfg: RunConfig):
    """Per-agent lists of per-axis (lower, upper) action bounds.

    The split-award rectangle is per-axis (both suppliers share it); for the
    one-dimensional mechanisms a list value is read as per-agent bounds.
    """
    n = cfg.agents
    if cfg.mechanism == "split_award":
        lo, hi = _per_entry(cfg, 2, "axis", "action_lower", "action_upper")
        return [tuple(zip(lo, hi))] * n
    lows, highs = _per_entry(cfg, n, "agent", "action_lower", "action_upper")
    return [((lo, hi),) for lo, hi in zip(lows, highs)]


def build_problem(cfg: RunConfig) -> Problem:
    cfg.validate()
    n = cfg.agents
    bounds = _action_bounds(cfg)
    mech = make_mechanism(cfg.mechanism, n, risk_rho=cfg.risk_rho,
                          payment_rule=cfg.payment_rule, tullock_r=cfg.tullock_r,
                          split_cost_factor=cfg.split_cost_factor,
                          split_cost_model=cfg.split_cost_model)
    model = build_prior_model(cfg)
    obs_grids = [Grid(lo, hi, cfg.obs_points) for lo, hi in model.obs_bounds]
    action_grids = [tuple(Grid(lo, hi, cfg.action_points) for lo, hi in rect) for rect in bounds]
    value_grid = None
    if model.value_bounds is not None:
        value_grid = Grid(*model.value_bounds, cfg.value_points)
    # with ``symmetric``, agents share a strategy when the mechanism, the prior
    # and the action rectangle treat them alike; groups are ordered by first agent
    keys = list(zip(agent_groups(mech.symmetry_groups()), agent_groups(model.symmetry_groups()),
                    bounds)) if cfg.symmetric else list(range(n))
    groups = [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
    return Problem(cfg, mech, model, obs_grids, value_grid, action_grids, groups)
