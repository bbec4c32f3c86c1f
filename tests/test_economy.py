import codecs
import re

import numpy as np
import pytest

from pnetsim import (
    BehavioralParams,
    GridSpec,
    IntegrationConfig,
    SchemaError,
    ValidationError,
    derive_criticality_sets,
    initial_inventories,
    load_economy,
    make_economy,
    simulate,
    write_economy,
)
from pnetsim.calibration import load_dataset, load_grid, load_sector_mapping
from pnetsim.fixtures import fixture_paths, scenario_for
from pnetsim.integrate import read_trajectory_csv, write_trajectory_csv


def load_fixture(name):
    p = fixture_paths(name)
    return load_economy(p["io_table"], p["initial_states"], p["criticality"])


def test_d2_technical_coefficients(d2):
    # A[i, j] = Z[i, j] / x0[j], by hand on the D2 numbers
    assert d2.A[0, 1] == 30.0 / 100.0
    assert d2.A[0, 0] == 20.0 / 110.0
    assert d2.A[1, 1] == 10.0 / 100.0


def test_d2_accounting_identity_by_hand(d2):
    assert 20 + 30 + 30 + 30 == 110 == d2.x0[0]
    assert 40 + 10 + 40 + 10 == 100 == d2.x0[1]


def test_zero_output_with_nonzero_flows_rejected():
    # X2 records sales of 5 but zero gross output: identity fails for X2.
    with pytest.raises(ValidationError) as err:
        make_economy(
            codes=("X1", "X2"),
            Z=[[0.0, 0.0], [5.0, 0.0]],
            c0=[10.0, 0.0],
            f0=[0.0, 0.0],
            l0=[5.0, 5.0],
            n_days_inventory=[1.0, 1.0],
            criticality=np.zeros((2, 2)),
            on_site=[0, 0],
            x0=[10.0, 0.0],
        )
    assert any("X2" in d for d in err.value.details)


def test_zero_output_sector_is_inert():
    economy = make_economy(
        codes=("X1", "X2"),
        Z=[[10.0, 0.0], [0.0, 0.0]],
        c0=[5.0, 0.0],
        f0=[5.0, 0.0],
        l0=[5.0, 0.0],
        n_days_inventory=[1.0, 1.0],
        criticality=np.zeros((2, 2)),
        on_site=[0, 0],
    )
    assert economy.x0[1] == 0.0
    assert np.all(economy.A[:, 1] == 0.0)


def test_identity_violation_names_sector(tmp_path, d2):
    paths = write_economy(d2, tmp_path)
    text = paths["initial_states"].read_text().splitlines()
    # perturb f0 of X2 by +5%
    cols = text[2].split(",")
    cols[3] = repr(float(cols[3]) * 1.05)
    text[2] = ",".join(cols)
    paths["initial_states"].write_text("\n".join(text) + "\n")
    with pytest.raises(ValidationError) as err:
        load_economy(paths["io_table"], paths["initial_states"], paths["criticality"])
    assert any("X2" in d for d in err.value.details)
    assert not any("X1" in d for d in err.value.details)


def test_roundtrip_bit_exact(tmp_path, be64):
    paths = write_economy(be64, tmp_path)
    again = load_economy(paths["io_table"], paths["initial_states"], paths["criticality"])
    for field in ("Z", "x0", "c0", "f0", "l0", "A", "n_days_inventory", "criticality"):
        a, b = getattr(be64, field), getattr(again, field)
        assert np.array_equal(a, b), field
    assert np.array_equal(be64.on_site, again.on_site)
    assert be64.codes == again.codes


def test_every_array_is_read_only(be64):
    for field in ("Z", "x0", "c0", "f0", "l0", "A", "n_days_inventory",
                  "criticality", "on_site"):
        with pytest.raises(ValueError):
            getattr(be64, field)[0] = getattr(be64, field)[0]
    assert be64.on_site.dtype == bool


def test_non_numeric_cell_names_position(tmp_path, d2):
    paths = write_economy(d2, tmp_path)
    text = paths["io_table"].read_text().replace("30.0", "abc", 1)
    paths["io_table"].write_text(text)
    with pytest.raises(SchemaError) as err:
        load_economy(paths["io_table"], paths["initial_states"], paths["criticality"])
    msg = str(err.value)
    assert "abc" in msg and "X1" in msg and "X2" in msg


INPUTS = ("io_table", "initial_states", "criticality", "inventory_targets",
          "on_site")


#: The CSV files that are not economy files, each with its reader.
OTHER_READERS = {
    "dataset": load_dataset,
    "mapping": load_sector_mapping,
    "trajectory": read_trajectory_csv,
}


@pytest.fixture()
def d2_inputs(tmp_path, d2):
    """d2's three economy files and both override files, one writer each,
    and a dataset, a mapping and a two-day trajectory for d2."""
    paths = write_economy(d2, tmp_path / "economy")
    paths["inventory_targets"] = tmp_path / "n_days.csv"
    paths["inventory_targets"].write_text("code,n_days\nX1,10.0\nX2,5.0\n")
    paths["on_site"] = tmp_path / "on_site.csv"
    paths["on_site"].write_text("code,on_site\nX1,0\nX2,0\n")
    paths["dataset"] = tmp_path / "data.csv"
    paths["dataset"].write_text("indicator,date,sector,value_pct\n"
                                "gdp,2020-05-15,X1,-1.0\ngdp,2020-05-15,X2,-2.0\n")
    paths["mapping"] = tmp_path / "mapping.csv"
    paths["mapping"].write_text("nace64,nace21\nX1,A\nX2,B\n")
    traj = simulate(d2, scenario_for(d2), BehavioralParams(), IntegrationConfig(), 2.0)
    paths["trajectory"] = write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    return paths


def load_inputs(paths):
    return load_economy(
        paths["io_table"], paths["initial_states"], paths["criticality"],
        inventory_targets_path=paths["inventory_targets"],
        on_site_path=paths["on_site"],
    )


def read_input(paths, name):
    """Read the file ``name`` of ``d2_inputs`` with its own reader."""
    if name in OTHER_READERS:
        return OTHER_READERS[name](paths[name])
    return load_inputs(paths)


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines))


def add_a_cell(lines):
    lines[1] += ",1.0"


def test_wrong_column_count(d2_inputs):
    for name in INPUTS:
        path = d2_inputs[name]
        before = path.read_text()
        edit_lines(path, add_a_cell)
        with pytest.raises(SchemaError, match="row 2 has"):
            load_inputs(d2_inputs)
        path.write_text(before)


def test_mismatched_codes_between_files(d2_inputs):
    # Every file after the IO table is aligned with the IO table's codes.
    for name in INPUTS[1:]:
        path = d2_inputs[name]
        before = path.read_text()
        path.write_text(before.replace("X2", "X9"))
        with pytest.raises(SchemaError, match="do not match the IO table"):
            load_inputs(d2_inputs)
        path.write_text(before)


def repeat_last_row(lines):
    lines.append(lines[-1])


def rename_last_column(lines):
    lines[0] = lines[0].rsplit(",", 1)[0] + ",X9"


def drop_last_cell(lines):
    lines[1] = lines[1].rsplit(",", 1)[0]


def drop_all_lines(lines):
    lines.clear()


#: What a repeated last row is called, where it is not "code 'X2'".
REPEATED = {
    "dataset": "observation ('gdp', '2020-05-15', 'X2')",
    "trajectory": "row (2.0, 'BE')",
}


@pytest.mark.parametrize("name", INPUTS + tuple(OTHER_READERS))
@pytest.mark.parametrize("edit, message", [
    (repeat_last_row, "{repeated} listed twice"),
    (rename_last_column, "do(es)? not match"),
    (drop_last_cell, "row 2 has"),
    (drop_all_lines, "file is empty"),
], ids=["repeated-code", "wrong-header", "short-row", "empty"])
def test_every_input_is_read_with_the_same_checks(d2_inputs, name, edit, message):
    path = d2_inputs[name]
    edit_lines(path, edit)
    repeated = re.escape(REPEATED.get(name, "code 'X2'"))
    with pytest.raises(SchemaError, match=message.format(repeated=repeated)) as err:
        read_input(d2_inputs, name)
    assert str(err.value).startswith(f"{path}: ")


def loaded(paths, name):
    """What the reader of the file ``name`` makes of it, comparable by ``==``."""
    if name == "grid":
        return load_grid(paths["grid"])
    if name == "mapping":
        return load_sector_mapping(paths["mapping"])
    e = load_economy(paths["io_table"], paths["initial_states"], paths["criticality"])
    return [e.codes] + [getattr(e, field).tolist() for field in
                        ("x0", "c0", "f0", "l0", "n_days_inventory", "on_site")]


@pytest.mark.parametrize("name", ["mapping", "initial_states", "grid"])
def test_a_utf8_byte_order_mark_is_read_past(d2_inputs, tmp_path, name):
    # A spreadsheet's "CSV UTF-8" starts the file with one.
    d2_inputs["grid"] = tmp_path / "grid.json"
    d2_inputs["grid"].write_text(GridSpec((("tau", (7.0, 14.0)),)).to_json())
    plain = loaded(d2_inputs, name)
    path = d2_inputs[name]
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert loaded(d2_inputs, name) == plain


@pytest.mark.parametrize("name", ["io_table", "criticality"])
def test_matrix_that_is_not_square_rejected(d2_inputs, name):
    edit_lines(d2_inputs[name], lambda lines: lines.pop())
    with pytest.raises(SchemaError, match="row codes do not match column codes"):
        load_inputs(d2_inputs)


def flag_x1_as_2(lines):
    lines[1] = lines[1][:-1] + "2"


@pytest.mark.parametrize("name", ["initial_states", "on_site"])
def test_on_site_flag_other_than_0_or_1_rejected(d2_inputs, name):
    # One rule for the column and for the override file, even when the
    # override replaces the column.
    edit_lines(d2_inputs[name], flag_x1_as_2)
    with pytest.raises(SchemaError, match="on_site entries must be 0 or 1"):
        load_inputs(d2_inputs)


def test_initial_states_reordered_rows_are_aligned(tmp_path, d2):
    paths = write_economy(d2, tmp_path)
    lines = paths["initial_states"].read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    paths["initial_states"].write_text("\n".join(lines) + "\n")
    again = load_economy(paths["io_table"], paths["initial_states"], paths["criticality"])
    assert np.array_equal(again.x0, d2.x0)


def test_vector_override_files(tmp_path, d2):
    paths = write_economy(d2, tmp_path)
    nd = tmp_path / "n_days.csv"
    nd.write_text("code,n_days\nX1,3.0\nX2,2.0\n")
    os_path = tmp_path / "on_site.csv"
    os_path.write_text("code,on_site\nX1,1\nX2,0\n")
    economy = load_economy(
        paths["io_table"], paths["initial_states"], paths["criticality"],
        inventory_targets_path=nd, on_site_path=os_path,
    )
    assert np.array_equal(economy.n_days_inventory, [3.0, 2.0])
    assert np.array_equal(economy.on_site, [True, False])


def test_column_sum_above_one_warns():
    with pytest.warns(UserWarning, match="exceed output value"):
        make_economy(
            codes=("X1", "X2"),
            Z=[[60.0, 90.0], [40.0, 20.0]],
            c0=[0.0, 40.0],
            f0=[0.0, 0.0],
            l0=[5.0, 5.0],
            n_days_inventory=[1.0, 1.0],
            criticality=np.zeros((2, 2)),
            on_site=[0, 0],
        )


def test_negative_entries_rejected(d2):
    with pytest.raises(ValidationError):
        make_economy(
            codes=("X1", "X2"),
            Z=[[-1.0, 30.0], [40.0, 10.0]],
            c0=[30.0, 40.0], f0=[30.0, 10.0], l0=[55.0, 50.0],
            n_days_inventory=[10.0, 5.0],
            criticality=np.zeros((2, 2)), on_site=[0, 0],
        )


D2_ARGS = dict(
    codes=("X1", "X2"), Z=[[20.0, 30.0], [40.0, 10.0]],
    c0=[30.0, 40.0], f0=[30.0, 10.0], l0=[55.0, 50.0],
    n_days_inventory=[10.0, 5.0], criticality=np.zeros((2, 2)), on_site=[0, 0],
    x0=[110.0, 100.0],
)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, field", [
    ("Z", "Z"), ("x0", "x0"), ("c0", "c0"), ("f0", "f0"), ("l0", "l0"),
    ("n_days", "n_days_inventory"),
])
def test_non_finite_entries_rejected(name, field, value):
    args = {k: np.array(v, dtype=float) for k, v in D2_ARGS.items() if k != "codes"}
    args[field].flat[-1] = value
    with pytest.raises(ValidationError) as err:
        make_economy(codes=D2_ARGS["codes"], **args)
    assert f"{name} contains non-finite entries" in err.value.details


@pytest.mark.parametrize("name, row, cell", [
    ("io_table", 2, "nan"),  # the flow X2 -> X2
    ("initial_states", 2, "inf"),  # X2's inventory days
])
def test_a_non_finite_cell_in_an_economy_file_is_refused(d2_inputs, name, row, cell):
    def edit(lines):
        cols = lines[row].split(",")
        cols[-1 if name == "io_table" else 5] = cell
        lines[row] = ",".join(cols)

    edit_lines(d2_inputs[name], edit)
    with pytest.raises(ValidationError, match="economy validation failed"):
        load_economy(d2_inputs["io_table"], d2_inputs["initial_states"],
                     d2_inputs["criticality"])


def test_duplicate_codes_rejected():
    with pytest.raises(ValidationError):
        make_economy(
            codes=("X1", "X1"),
            Z=np.zeros((2, 2)), c0=[1.0, 1.0], f0=[0.0, 0.0], l0=[1.0, 1.0],
            n_days_inventory=[1.0, 1.0],
            criticality=np.zeros((2, 2)), on_site=[0, 0],
        )


# -- criticality sets --------------------------------------------------------

def test_criticality_sets_all_zero(d2):
    sets = derive_criticality_sets(d2)
    for j in range(2):
        assert sets.critical(j).size == 0
        assert sets.important(j).size == 0


def test_criticality_sets_mixed():
    crit = np.zeros((2, 2))
    crit[0, 1] = 1.0
    crit[1, 1] = 0.5
    economy = make_economy(
        codes=("X1", "X2"),
        Z=[[20.0, 30.0], [40.0, 10.0]],
        c0=[30.0, 40.0], f0=[30.0, 10.0], l0=[55.0, 50.0],
        n_days_inventory=[10.0, 5.0], criticality=crit, on_site=[0, 0],
    )
    sets = derive_criticality_sets(economy)
    assert list(sets.critical(1)) == [0]
    assert list(sets.important(1)) == [1]
    assert not (sets.critical_mask & sets.important_mask).any()


def test_criticality_sets_all_ones(d2):
    economy = make_economy(
        codes=d2.codes, Z=d2.Z, c0=d2.c0, f0=d2.f0, l0=d2.l0,
        n_days_inventory=d2.n_days_inventory,
        criticality=np.ones((2, 2)), on_site=d2.on_site,
    )
    sets = derive_criticality_sets(economy)
    for j in range(2):
        assert list(sets.critical(j)) == [0, 1]
        assert sets.important(j).size == 0


def test_criticality_invalid_entry_rejected(d2):
    with pytest.raises(ValidationError):
        make_economy(
            codes=d2.codes, Z=d2.Z, c0=d2.c0, f0=d2.f0, l0=d2.l0,
            n_days_inventory=d2.n_days_inventory,
            criticality=np.full((2, 2), 0.3), on_site=d2.on_site,
        )


# -- initial inventories -----------------------------------------------------

def test_initial_inventories_d2(d2):
    S0 = initial_inventories(d2)
    assert S0[0, 1] == 5.0 * 30.0
    assert S0[1, 0] == 10.0 * 40.0


def test_initial_inventories_zero_targets(d2):
    economy = make_economy(
        codes=d2.codes, Z=d2.Z, c0=d2.c0, f0=d2.f0, l0=d2.l0,
        n_days_inventory=[0.0, 0.0],
        criticality=d2.criticality, on_site=d2.on_site,
    )
    assert np.all(initial_inventories(economy) == 0.0)


def test_initial_inventories_zero_flow(d3):
    S0 = initial_inventories(d3)
    assert np.all((d3.Z == 0) <= (S0 == 0))


def test_loaded_fixture_identity_tolerance():
    economy = load_fixture("be64")
    residual = np.abs(
        economy.x0 - economy.Z.sum(axis=1) - economy.c0 - economy.f0
    )
    assert np.max(residual / np.maximum(economy.x0, 1.0)) <= 1e-6


def test_theta0_normalized(be64):
    assert np.isclose(be64.theta0.sum(), 1.0, rtol=0, atol=1e-12)
