"""Stress-sandpile instability engine for input-output production networks."""

from .config import ConfigError, load_config, section_for
from .dynamics import (
    ContractionCheck,
    FieldModel,
    Params,
    RelaxationBudgetError,
    activation_gap,
    contraction_check,
    gap_field_sensitivity,
    gap_redundancy_sensitivity,
    hall_adjusted_threshold,
    run_batch,
)
from .experiments import (
    PRESETS,
    CellDiagnostics,
    CellStats,
    PhaseGridResult,
    PhaseGridSpec,
    RegimeLabel,
    ScenarioResult,
    ScenarioSpec,
    SimulationError,
    Substrate,
    child_seed,
    convergence_report,
    default_phase_grid,
    make_cell_stats,
    prepare_substrate,
    preset_scenarios,
    run_phase_grid,
    run_scenario,
    run_scenarios,
)
from .exposure import (
    ExposureProfile,
    ExposureRank,
    compute_exposure,
    hall_stress,
    rank_exposure,
)
from .ingest import (
    FlowPanel,
    IOTable,
    NodeId,
    TableError,
    list_years,
    parse_io_table,
    synth_substrate,
    write_io_table,
)
from .operators import (
    LeakageProfile,
    OperatorKind,
    PropagationOperator,
    SpectralConvergenceError,
    build_operator,
    leakage_profile,
    spectral_radius,
)
from .tail import TailError, TailFit, ccdf, fit_alpha, hill_alpha, scan_xmin, select_xmin

__version__ = "0.1.0"
