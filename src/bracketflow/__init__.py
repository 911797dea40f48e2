"""Numerical laboratory for homogeneous Ricci flow via structure constants.

A homogeneous space is encoded by a Lie bracket on a split vector space
k + p; the Ricci flow of its invariant metric becomes an ODE on the bracket
itself.  This package computes the Ricci operator from structure constants
(with an independent Koszul-formula cross-check), integrates the flow in
both time directions, detects finite-time singularities by the comparison
bound n / (2|R|) on the remaining lifetime, locates each singular time from
the stop sample, inside the enclosure [t_stop, far_bound] that this bound
gives on the integrated run, and
ships a catalog of exactly solvable initial data plus an acceptance suite
tying everything to closed forms.
"""

from .algebra import (
    ConditionReport,
    DimensionMismatchError,
    Dimensions,
    LieBracket,
    NotInVarietyError,
    adjoint_matrices,
    bracket_norm,
    check_conditions,
    jacobiator,
    pi_action,
    random_bracket,
    random_two_step_nilpotent,
    scale_bracket,
    transform_bracket,
)
from .catalog import CatalogEntry, DichotomyVerdict, catalog_entries, cover_dichotomy_check, get_entry
from .curvature import (
    RicciData,
    killing_form_p,
    koszul_ricci_oracle,
    mean_curvature,
    moment_part,
    ricci_operator,
)
from .flow import (
    DriftError,
    EstimateReport,
    FlowError,
    FlowState,
    IntegratorOptions,
    PowerLawFit,
    StiffnessError,
    Trajectory,
    Verdict,
    bracket_flow_rhs,
    estimate_blowup_time,
    estimate_report,
    fit_power_blowup,
    integrate,
    type_I_diagnostic,
)
from .metric_flow import (
    MetricState,
    MetricTrajectory,
    NonSPDError,
    equivalence_check,
    metric_flow_integrate,
    metric_ricci,
)
from .scenario import Scenario, ScenarioError, load_scenario, run_scenario, write_trajectory_csv
from .verify import run_all, run_criterion, verify_all

__version__ = "0.1.0"
