"""Spectral simulator and verification harness for truncated Gross-Pitaevskii hierarchies."""

__version__ = "0.1.0"

from .grid import TorusGrid, make_grid, phase_weights, sobolev_weights, transform
from .marginal import (
    HierarchyState,
    Marginal,
    MemoryGuardError,
    NormParams,
    SymmetryError,
    ValidationReport,
    factorized_marginal,
    h_alpha_norm,
    hermitize,
    hxi_norm,
    partial_trace,
    project_tail,
    symmetrize,
    tail_norm,
    trace,
    validate_marginal,
    zero_marginal,
)
from .operators import (
    AlphaInterval,
    InteractionSpec,
    admissible_alpha_range,
    b_collapse,
    b_hat,
    b_minus,
    b_plus,
    free_evolve,
    rhs,
)
from .solver import (
    QuadratureRule,
    Trajectory,
    duhamel_term,
    reconstruct_bhat,
    solve_oracle,
    solve_truncated,
    theta_residual,
)
from .nls import (
    BUILTIN_FIELDS,
    WaveFunction,
    WaveTrajectory,
    compare_hierarchy_vs_nls,
    cosine_field,
    nls_solve,
    plane_wave_field,
)
from .studies import (
    StudyReport,
    boardgame_probe,
    cauchy_study,
    km_report,
    random_marginal,
    spacetime_norm,
    strichartz_study,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .snapshots import (
    BadMagicError,
    SnapshotError,
    TruncatedPayloadError,
    VersionMismatchError,
    snapshot_read,
    snapshot_write,
)
from .experiment import InvariantFailure, run_experiment
