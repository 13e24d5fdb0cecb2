"""Stress-sandpile instability engine for input-output production networks."""

from .dynamics import (
    ContractionCheck,
    Params,
    RelaxationBudgetError,
    contraction_check,
    gap_field_sensitivity,
    gap_redundancy_sensitivity,
    hall_adjusted_threshold,
    run_batch,
)
from .experiments import (
    PRESETS,
    CellStats,
    RegimeLabel,
    ScenarioResult,
    ScenarioSpec,
    SimulationError,
    Substrate,
    child_seed,
    grid_scenarios,
    make_cell_stats,
    prepare_substrate,
    preset_scenarios,
    run_scenarios,
)
from .exposure import ExposureProfile, compute_exposure
from .ingest import (
    FlowPanel,
    IOTable,
    NodeId,
    TableError,
    parse_io_table,
    read_sizes,
    synth_substrate,
    write_io_table,
)
from .operators import (
    OperatorKind,
    PropagationOperator,
    SpectralConvergenceError,
    build_operator,
    leakage_profile,
    spectral_radius,
)
from .tail import TailError, TailFit, ccdf, scan_xmin, select_xmin

__version__ = "0.1.0"
