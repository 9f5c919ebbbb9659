"""Shipped experiment presets, one per supported benchmark setting.

Preset values are plain config mappings; they can be run directly
(``solve --preset <id>``) or pulled into a config file via ``include = <id>``.
Step parameters were calibrated to certify within the iteration cap;
comments mark where this build's calibration departs from the usual
settings for the family.  Three presets still stop at the cap above their
tolerance at seed (0, 0): ``llg_first_price_g01``/``g05``/``g09`` (exact
ties under the void-on-ties rule).  The LLG and common-value presets' priors
are exact, so they set no ``prior_samples``; the binned affiliated preset bins
4M draws.  No preset sets the shared value's range: the common-value and
affiliated prior models state it (``value_bounds``), and ``value_points``
sets only how many points its grid has.
"""

from __future__ import annotations

PRESETS: dict[str, dict] = {}


def _add(name: str, **settings):
    """A preset sets what departs from the ``RunConfig`` defaults."""
    PRESETS[name] = {**settings, "name": name}


_add("fpsb_2_uniform",
     mechanism="fpsb", agents=2, prior="uniform",
     obs_lower=0.0, obs_upper=1.0, action_lower=0.0, action_upper=1.0,
     learner="soda1", eta0=100.0, step_beta=0.05)

# the discretization sweep's game: fpsb_2_uniform, step included, with a
# higher cap for the finer grids; at 16-128 points and seeds 0 and 1 every
# run certifies within 400 iterations
_add("fpsb_sweep",
     mechanism="fpsb", agents=2, prior="uniform",
     obs_lower=0.0, obs_upper=1.0, action_lower=0.0, action_upper=1.0,
     learner="soda1", eta0=100.0, step_beta=0.05, iterations=2000)

_add("common_value_spsb",
     mechanism="spsb", agents=3, prior="common_value",
     action_lower=0.0, action_upper=1.5,
     learner="soma2", eta0=50.0, step_beta=0.5)

# entropic updates with a near-constant step are the only family that
# certifies below 1e-4 here within the iteration cap
_add("affiliated_fpsb",
     mechanism="fpsb", agents=2, prior="affiliated",
     action_lower=0.0, action_upper=1.5,
     learner="soda1", eta0=100.0, step_beta=0.05,
     prior_samples=1 << 22)

# projected ascent with a decaying step converges within tens of iterations
# here; the near-constant schedule kept the locals oscillating
_LLG_LEARNERS = {
    "NZ": ("soma2", 20.0, 0.5),
    "NVCG": ("soma2", 20.0, 0.5),
    "NB": ("soma2", 20.0, 0.5),
    "first_price": ("sofw", 1.0, 0.5),
}
for _rule, _tag in [("NZ", "nz"), ("NVCG", "nvcg"), ("NB", "nb"),
                    ("first_price", "first_price")]:
    for _gamma, _gtag in [(0.1, "g01"), (0.5, "g05"), (0.9, "g09")]:
        _learner, _eta0, _beta = _LLG_LEARNERS[_rule]
        _add(f"llg_{_tag}_{_gtag}",
             mechanism="llg", agents=3, payment_rule=_rule,
             prior="bernoulli_llg", gamma=_gamma,
             action_lower=[0.0, 0.0, 0.0], action_upper=[1.0, 1.0, 2.0],
             learner=_learner, eta0=_eta0, step_beta=_beta)

for _prior, _ptag, _soma_eta in [("uniform", "uniform", 0.01), ("gaussian_trunc", "gaussian", 0.05)]:
    _add(f"split_award_{_ptag}",
         mechanism="split_award", agents=2, prior=_prior,
         obs_lower=1.0, obs_upper=1.4, mu=1.2, sigma=0.1,
         obs_points=32, action_points=64,
         action_lower=[1.0, 0.3], action_upper=[2.5, 1.2],
         split_cost_factor=0.3, split_cost_model="scaled",
         learner="soda1", eta0=20.0, step_beta=0.05)

# first price at rho 0.5, 0.7, 0.9 and 1.0 certifies at iterations 1529, 1539,
# 1429 and 1709 at seed (0, 0), and all-pay at rho 0.9 and 1.0 at 1049 and
# 1129, past the default cap
for _rho, _rtag in [(0.5, "r05"), (0.7, "r07"), (0.9, "r09"), (1.0, "r10")]:
    _add(f"risk_fpsb_{_rtag}",
         mechanism="fpsb", agents=2, prior="uniform", risk_rho=_rho,
         obs_lower=0.0, obs_upper=1.0, action_lower=0.0, action_upper=0.8,
         learner="soda1", eta0=20.0, step_beta=0.05, iterations=2000)
    _add(f"risk_allpay_{_rtag}",
         mechanism="all_pay", agents=2, prior="uniform", risk_rho=_rho,
         obs_lower=0.0, obs_upper=1.0, action_lower=0.0, action_upper=0.8,
         learner="soda1", eta0=25.0, step_beta=0.05, iterations=2000)

for _r, _rtag in [(0.5, "r05"), (1.0, "r10"), (1.5, "r15")]:
    _add(f"tullock_{_rtag}",
         mechanism="tullock", agents=2, prior="uniform", tullock_r=_r,
         obs_lower=0.0, obs_upper=1.0, action_lower=0.0, action_upper=0.5,
         learner="soda1", eta0=100.0, step_beta=0.05)
    _add(f"tullock_{_rtag}_asym",
         mechanism="tullock", agents=2, prior="uniform", tullock_r=_r,
         obs_lower=[0.0, 1.0], obs_upper=[1.0, 2.0],
         action_lower=0.0, action_upper=0.5,
         learner="soda1", eta0=100.0, step_beta=0.05)


def has_preset(name: str) -> bool:
    return name in PRESETS


def get_preset(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset '{name}'; see 'preset list'")
    return dict(PRESETS[name])


def preset_names() -> list[str]:
    return sorted(PRESETS)
