"""Every shipped preset, solved at its shipped settings and seed (0, 0)."""

import pytest

from bnesolve.config import build_problem, config_from_mapping
from bnesolve.presets import get_preset, preset_names
from bnesolve.runner import solve

# Presets that end at their iteration cap without certifying.  They stay
# named here, and asserted red, until the program changes so that they certify.
KNOWN_REDS = ("llg_first_price_g01", "llg_first_price_g05", "llg_first_price_g09")


def test_known_reds_are_presets():
    assert set(KNOWN_REDS) <= set(preset_names())


@pytest.mark.parametrize("name", preset_names())
def test_preset_certifies_at_its_shipped_settings(name):
    problem = build_problem(config_from_mapping(get_preset(name)))
    result = solve(problem, (0, 0))
    tolerance = problem.config.tolerance
    if name in KNOWN_REDS:
        assert result.termination == "max_iterations"
        assert result.iterations == problem.config.iterations
        assert result.certificate.max_loss >= tolerance
    else:
        assert result.termination == "converged"
        assert result.certificate.max_loss < tolerance
