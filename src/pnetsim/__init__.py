"""Shock propagation through sectoral production networks.

A deterministic discrete-time model of an N-sector economy under supply
and demand shocks: inventories buffer inter-industry deliveries, partially
binding production recipes decide which input shortages halt output, and
scarce output is rationed proportionally across customers. A calibration
engine scores simulations against empirical indicator time series with a
value-weighted absolute-deviation objective, over exhaustive parameter
grids or Monte Carlo parameter draws.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationResult,
    EmpiricalDataset,
    GridSpec,
    aad_vw,
    default_grid,
    grid_search,
    load_dataset,
    monte_carlo,
    quarterly_average,
    score_point,
    total_aad,
)
from .dynamics import (
    PRODUCTION_FUNCTIONS,
    BehavioralParams,
    SimState,
    initial_state,
)
from .economy import (
    CriticalitySets,
    Economy,
    derive_criticality_sets,
    initial_inventories,
    load_economy,
    make_economy,
    write_economy,
)
from .errors import (
    CheckpointError,
    IntegrationError,
    ModelStateError,
    PnetError,
    SchemaError,
    ValidationError,
)
from .integrate import (
    IntegrationConfig,
    Trajectory,
    simulate,
    write_trajectory_csv,
)
from .shocks import (
    Scenario,
    ShockSample,
    ShockSchedule,
    aggregate_shock,
    load_scenario,
    on_site_release,
    save_scenario,
)

__all__ = [
    "BehavioralParams",
    "CalibrationResult",
    "CheckpointError",
    "CriticalitySets",
    "Economy",
    "EmpiricalDataset",
    "GridSpec",
    "IntegrationConfig",
    "IntegrationError",
    "ModelStateError",
    "PRODUCTION_FUNCTIONS",
    "PnetError",
    "Scenario",
    "SchemaError",
    "ShockSample",
    "ShockSchedule",
    "SimState",
    "Trajectory",
    "ValidationError",
    "aad_vw",
    "aggregate_shock",
    "default_grid",
    "derive_criticality_sets",
    "grid_search",
    "initial_inventories",
    "initial_state",
    "load_dataset",
    "load_economy",
    "load_scenario",
    "make_economy",
    "monte_carlo",
    "on_site_release",
    "quarterly_average",
    "save_scenario",
    "score_point",
    "simulate",
    "total_aad",
    "write_economy",
    "write_trajectory_csv",
]
