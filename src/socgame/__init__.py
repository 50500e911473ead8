"""Evolutionary dynamics of online/offline social participation.

Four strategies (offline-only, online-uncivil, online-polite, isolation)
compete under replicator dynamics on the 3-simplex.  The package provides:

* closed-form admissibility checks, Nash vertices and dominance relations,
* the replicator flow and its Jacobian, with a simplex-preserving adaptive
  integrator,
* analytic classification of every boundary face's dynamic regime and of the
  global attractor set,
* welfare ranking of the attractors (isolation is always strictly worst),
* Monte Carlo basin-of-attraction estimates,
* a CLI (``socgame``) with JSON/CSV/SVG reporting.
"""

from .basins import BasinReport, estimate_basins, find_attractor, sample_simplex
from .classify import (
    EdgeRegime,
    InfeasibleLocationError,
    RegimeReport,
    StationaryState,
    classify_edge_SH,
    classify_edge_SN,
    classify_edge_SO,
    classify_edge_SP,
    classify_global,
    edge_interior_states,
    face_interior_state,
    face_states,
    full_interior_state,
    vertex_eigensigns,
)
from .dynamics import (
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    integrate,
    match_attractor,
    states_at,
)
from .model import (
    DEFAULT_TOL,
    STRATEGIES,
    DegenerateParameterError,
    InvalidParameterError,
    Params,
    SimplexState,
    ValidationReport,
    coexistence_payoff,
    dominance_relations,
    nash_vertices,
    payoff_matrix,
    payoff_vector,
    validate,
)
from .welfare import OrderingViolationError, WelfareReport, stationary_payoff, welfare_report

__version__ = "0.1.0"

__all__ = [
    "BasinReport",
    "IntegrationError",
    "DEFAULT_TOL",
    "DegenerateParameterError",
    "EdgeRegime",
    "InfeasibleLocationError",
    "IntegratorConfig",
    "InvalidParameterError",
    "OrderingViolationError",
    "Params",
    "RegimeReport",
    "STRATEGIES",
    "SimplexState",
    "StationaryState",
    "Trajectory",
    "ValidationReport",
    "WelfareReport",
    "classify_edge_SH",
    "classify_edge_SN",
    "classify_edge_SO",
    "classify_edge_SP",
    "classify_global",
    "coexistence_payoff",
    "dominance_relations",
    "edge_interior_states",
    "estimate_basins",
    "face_interior_state",
    "face_states",
    "find_attractor",
    "full_interior_state",
    "integrate",
    "match_attractor",
    "nash_vertices",
    "payoff_matrix",
    "payoff_vector",
    "sample_simplex",
    "stationary_payoff",
    "states_at",
    "validate",
    "vertex_eigensigns",
    "welfare_report",
]
