"""Relations between runs: checks that need no oracle.

A scenario lists its sectors in an order of its own, and the shock schedule
aligns its four shock vectors to the economy's order. So listing the same
scenario's sectors in another order, the codes together with the vectors,
changes no bit of a run or of a grid's scores. A vector read in the
scenario's order instead would shock the wrong sectors on one side only.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from pnetsim import (
    PRODUCTION_FUNCTIONS,
    BehavioralParams,
    GridSpec,
    IntegrationConfig,
    grid_search,
    simulate,
)
from pnetsim.calibration import DEFAULT_QUARTERS, horizon_for, synthesize_dataset
from pnetsim.fixtures import scenario_for
from pnetsim.integrate import METHOD_CONTINUOUS, METHOD_DISCRETE

VECTORS = ("eps_S_L1", "eps_S_L2", "eps_D_lockdown", "eps_F_lockdown")


def reordered(scenario, order):
    """``scenario`` with its sectors listed in ``order``."""
    return replace(scenario, codes=tuple(scenario.codes[i] for i in order),
                   **{name: getattr(scenario, name)[order] for name in VECTORS})


def state_bytes(traj) -> list[bytes]:
    return [np.asarray(getattr(state, f.name), dtype=float).tobytes()
            for state in traj.states for f in fields(state)]


@pytest.fixture(scope="module")
def d3_shocked(d3):
    """Every sector's four shocks differ, so any misalignment shows."""
    return scenario_for(
        d3,
        eps_S_L1=np.array([0.3, 0.1, 0.05]),
        eps_S_L2=np.array([0.2, 0.0, 0.15]),
        eps_D_lockdown=np.array([0.2, 0.05, 0.4]),
        eps_F_lockdown=np.array([0.1, 0.3, 0.0]),
    )


def assert_order_free(economy, scenario, order, rule, method):
    params = BehavioralParams(prod_fn=rule)
    config = IntegrationConfig(method=method)
    t_end = horizon_for(scenario, DEFAULT_QUARTERS)
    given = simulate(economy, scenario, params, config, t_end)
    other = simulate(economy, reordered(scenario, order), params, config, t_end)
    assert given.times.tobytes() == other.times.tobytes()
    assert state_bytes(given) == state_bytes(other)


@pytest.mark.parametrize("method", [METHOD_DISCRETE, METHOD_CONTINUOUS])
@pytest.mark.parametrize("rule", PRODUCTION_FUNCTIONS)
def test_scenario_sector_order_leaves_d3_runs_bitwise_equal(d3, d3_shocked, rule,
                                                            method):
    assert_order_free(d3, d3_shocked, [2, 0, 1], rule, method)


def test_scenario_sector_order_leaves_be64_runs_bitwise_equal(be64, ref_scenario):
    order = np.random.default_rng(64).permutation(be64.n_sectors)
    assert_order_free(be64, ref_scenario, order, "half_critical", METHOD_DISCRETE)


def test_scenario_sector_order_leaves_grid_scores_bitwise_equal(d3, d3_shocked,
                                                                tmp_path):
    # The checkpoint is left out: its header hashes the scenario as given.
    params = BehavioralParams()
    grid = GridSpec((("prod_fn", ("leontief", "half_critical")),
                     ("tau", (7.0, 21.0)), ("l2", (28.0, 45.5))))
    dataset = synthesize_dataset(d3, d3_shocked, params)
    boards = []
    for k, scenario in enumerate((d3_shocked, reordered(d3_shocked, [1, 2, 0]))):
        result = grid_search(d3, scenario, params, dataset, grid)
        boards.append(result.write_leaderboard(tmp_path / f"{k}.csv").read_bytes())
    assert boards[0] == boards[1]
