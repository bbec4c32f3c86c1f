import filecmp

import numpy as np
import pytest

from pnetsim import ValidationError, load_economy
from pnetsim.calibration import load_sector_mapping, nace21_section
from pnetsim.fixtures import (
    FIXTURE_NAMES,
    fixture_economy,
    fixture_paths,
    reference_scenario_path,
    scenario_for,
    sector_mapping_path,
)
from pnetsim.shocks import load_scenario

from golden import gen_fixtures


def test_d2_matches_documented_numbers(d2):
    np.testing.assert_array_equal(d2.Z, [[20.0, 30.0], [40.0, 10.0]])
    np.testing.assert_array_equal(d2.c0, [30.0, 40.0])
    np.testing.assert_array_equal(d2.f0, [30.0, 10.0])
    np.testing.assert_array_equal(d2.x0, [110.0, 100.0])
    np.testing.assert_array_equal(d2.n_days_inventory, [10.0, 5.0])


def test_d3_has_one_critical_and_one_important_input(d3):
    assert d3.criticality[0, 2] == 1.0
    assert d3.criticality[1, 2] == 0.5
    assert np.sum(d3.criticality == 1.0) == 1
    assert np.sum(d3.criticality == 0.5) == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shipped_fixture_files_load_and_validate(name):
    paths = fixture_paths(name)
    economy = load_economy(
        paths["io_table"], paths["initial_states"], paths["criticality"]
    )
    assert economy.n_sectors >= 2
    assert np.all(economy.A.sum(axis=0) <= 0.9)
    assert np.all(economy.l0 > 0)
    residual = np.abs(economy.x0 - economy.Z.sum(axis=1) - economy.c0 - economy.f0)
    assert np.all(residual <= 1e-6 * np.maximum(economy.x0, 1.0))
    assert set(np.unique(economy.criticality)) <= {0.0, 0.5, 1.0}


def test_regeneration_is_byte_identical(tmp_path):
    gen_fixtures.generate_all(tmp_path)
    shipped = gen_fixtures.data_dir()
    regenerated = list(tmp_path.rglob("*.*"))
    assert regenerated
    for path in regenerated:
        rel = path.relative_to(tmp_path)
        assert filecmp.cmp(path, shipped / rel, shallow=False), rel


def test_be64_same_seed_same_economy():
    a = gen_fixtures.be64_economy()
    b = gen_fixtures.be64_economy()
    assert np.array_equal(a.Z, b.Z)
    assert np.array_equal(a.criticality, b.criticality)


def test_be64_uses_published_reference_columns(be64):
    accounts = gen_fixtures.initial_accounts()
    n_days = gen_fixtures.inventory_days()
    for i, code in enumerate(be64.codes):
        assert be64.c0[i] == accounts[code][1]
        assert be64.f0[i] == accounts[code][2]
        assert be64.l0[i] == accounts[code][3]
        assert be64.n_days_inventory[i] == n_days[code]
    # gross output differs from the published column only via fitting noise
    x_ref = np.array([accounts[c][0] for c in be64.codes])
    assert np.max(np.abs(be64.x0 - x_ref) / x_ref) < 1e-3


def test_be64_on_site_sectors_never_critical(be64):
    rated = (be64.criticality > 0).any(axis=1)
    assert not np.any(rated & be64.on_site)


def test_reference_scenario_values(be64, ref_scenario):
    i = ref_scenario.codes.index("I55-56")
    assert ref_scenario.eps_S_L1[i] == 0.925
    assert ref_scenario.eps_S_L2[i] == 0.70
    assert ref_scenario.eps_D_lockdown[i] == 0.80
    assert ref_scenario.eps_F_lockdown[i] == 0.80
    assert bool(be64.on_site[be64.codes.index("I55-56")]) is True
    assert bool(be64.on_site[be64.codes.index("G46")]) is False
    assert ref_scenario.b == 0.7
    assert ref_scenario.l1 == 7.0
    assert ref_scenario.l2 == 42.0


@pytest.mark.parametrize("name", ("d2", "d3"))
def test_scenario_for_takes_the_shipped_timeline(name):
    economy = fixture_economy(name)
    shipped = load_scenario(reference_scenario_path())
    scenario = scenario_for(economy)
    for field in ("start_date", "key_dates", "r", "b", "l1", "l2"):
        assert getattr(scenario, field) == getattr(shipped, field), field
    assert scenario.codes == economy.codes
    for field in ("eps_S_L1", "eps_S_L2", "eps_D_lockdown", "eps_F_lockdown"):
        np.testing.assert_array_equal(getattr(scenario, field),
                                      np.zeros(economy.n_sectors))
    shock = np.full(economy.n_sectors, 0.25)
    overridden = scenario_for(economy, eps_S_L1=shock, l2=28.0)
    np.testing.assert_array_equal(overridden.eps_S_L1, shock)
    np.testing.assert_array_equal(overridden.eps_S_L2, np.zeros(economy.n_sectors))
    assert overridden.l2 == 28.0
    assert overridden.key_dates == shipped.key_dates
    with pytest.raises(ValidationError, match="eps_D_lockdown has shape"):
        scenario_for(economy, eps_D_lockdown=np.zeros(economy.n_sectors + 1))


def test_mapping_file_exists_and_covers_all_codes(be64):
    header = sector_mapping_path().read_text().splitlines()[0]
    assert header == "nace64,nace21"
    mapping = load_sector_mapping(sector_mapping_path())
    assert mapping == {code: nace21_section(code) for code in be64.codes}


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        fixture_economy("d9")
    with pytest.raises(ValueError):
        fixture_paths("d9")
