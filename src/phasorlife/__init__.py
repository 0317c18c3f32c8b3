"""Complex two-component life: a deterministic phasor-cell automaton toolkit."""

from .analysis import (
    BurnRateUnmeasurable,
    FateReport,
    SweepResult,
    classify,
    measure_burn_rate,
    sweep_phase,
)
from .oracle import BoolGrid, conway_step, lift, project
from .render import render_ascii, render_csv, render_ppm
from .rules import (
    NeighborSum,
    OperatorWeights,
    apply_birth,
    apply_death,
    apply_survival,
    dual_step_grid,
    neighbor_sum,
    operator_weights,
    step_cell,
    step_grid,
    swap_components,
)
from .state import (
    ALIVE,
    DEAD,
    Boundary,
    CellState,
    Grid,
    PatternDocument,
    PatternError,
    measure_alive_probability,
    normalize,
    parse_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "ALIVE",
    "DEAD",
    "BoolGrid",
    "Boundary",
    "BurnRateUnmeasurable",
    "CellState",
    "FateReport",
    "Grid",
    "NeighborSum",
    "OperatorWeights",
    "PatternDocument",
    "PatternError",
    "SweepResult",
    "apply_birth",
    "apply_death",
    "apply_survival",
    "classify",
    "conway_step",
    "dual_step_grid",
    "lift",
    "measure_alive_probability",
    "measure_burn_rate",
    "neighbor_sum",
    "normalize",
    "operator_weights",
    "parse_pattern",
    "project",
    "render_ascii",
    "render_csv",
    "render_ppm",
    "step_cell",
    "step_grid",
    "swap_components",
    "sweep_phase",
]
