import numpy as np
import pytest

from pnetsim import BehavioralParams
from pnetsim.fixtures import fixture_economy, reference_scenario, scenario_for


@pytest.fixture(scope="session")
def d2():
    return fixture_economy("d2")


@pytest.fixture(scope="session")
def d3():
    return fixture_economy("d3")


@pytest.fixture(scope="session")
def be64():
    return fixture_economy("be64")


@pytest.fixture(scope="session")
def ref_scenario():
    return reference_scenario()


@pytest.fixture()
def params():
    return BehavioralParams()


def zero_scenario(economy):
    """Scenario with the reference timeline but all shock magnitudes zero."""
    return scenario_for(economy)


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)
