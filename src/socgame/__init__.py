"""Evolutionary dynamics of online/offline social participation.

Four strategies (offline-only, online-uncivil, online-polite, isolation)
compete under replicator dynamics on the 3-simplex.  The package provides:

* one admissibility table (positivity, the five weak-dominance relations,
  distance from every degenerate boundary), read by validation, Nash
  vertices and dominance relations,
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
    RegimeReport,
    StationaryState,
    classify_edge,
    classify_global,
    face_states,
    full_interior_state,
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
    dominance_relations,
    nash_vertices,
    payoff_matrix,
    payoff_vector,
    validate,
)
from .welfare import OrderingViolationError, WelfareReport, welfare_report

__version__ = "0.1.0"

__all__ = [
    "BasinReport",
    "IntegrationError",
    "DEFAULT_TOL",
    "DegenerateParameterError",
    "EdgeRegime",
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
    "classify_edge",
    "classify_global",
    "dominance_relations",
    "estimate_basins",
    "face_states",
    "find_attractor",
    "full_interior_state",
    "integrate",
    "match_attractor",
    "nash_vertices",
    "payoff_matrix",
    "payoff_vector",
    "sample_simplex",
    "states_at",
    "validate",
    "welfare_report",
]
