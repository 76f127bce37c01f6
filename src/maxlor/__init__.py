"""Mollifier-regularized Maxwell-Lorentz toy model in one space dimension.

The package solves the coupled field-charge system with the spatial
derivative replaced by convolution against a scaled mollifier kernel,
and provides the experiment harnesses built on top of it: one-sided
support probes, distributional pairing sweeps down an eps schedule,
comparison against the linearized closed form, charge world lines, and
admissibility checks for width schedules.  A run is read through folds:
callables passed to the solver as ``on_save`` that reduce each saved
state as the march saves it (``Pairing``, ``SupportProbe``, ``LinearGaps``,
``WorldLines``, ``SolveSummary``, ``StateWriter``).
"""

from .analysis import (
    BlowupReport,
    CompareReport,
    LinearGaps,
    LinearizedReference,
    Pairing,
    SupportProbe,
    SupportReport,
    SweepResult,
    TestFunction2D,
    blow_up_probe,
    limit_sweep,
    linear_system_residuals,
    linearized_reference,
)
from .config import (
    RunConfig,
    RunPieces,
    assemble_run,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from .deltanet import DeltaNet, net_from_spec, sample, verify_strict
from .fields import FieldState, Grid, ModelParams, SpacetimeSolution, total_charge
from .mollifier import Mollifier, make_mollifier
from .nonlinearity import a, sqrt1p_sq
from .output import SolveSummary, StateWriter
from .regops import RegDerivOperator, make_operator
from .scaling import (
    GrowthReport,
    ScalingFunction,
    h_eval,
    make_scaling,
    verify_growth_condition,
)
from .solver import (
    SolverConfig,
    a_priori_bound,
    solve,
    solve_lines,
    solve_picard,
    step_bound,
)
from .trajectories import Trajectory, WorldLines

__version__ = "0.1.0"
