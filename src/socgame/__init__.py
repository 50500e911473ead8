"""Evolutionary dynamics of online/offline social participation.

Four strategies (offline-only, online-uncivil, online-polite, isolation)
compete under replicator dynamics on the 3-simplex.  The package provides:

* one admissibility table (positivity, the five weak-dominance relations,
  distance from every degenerate boundary), read by validation, Nash
  vertices and dominance relations,
* the replicator flow, which reads the payoff law (``payoff_vector``), with
  a simplex-preserving adaptive integrator,
* every boundary rest point with its exact linearisation, and analytic
  classification of every boundary face's dynamic regime and of the global
  attractor set,
* welfare ranking by each attractor's own payoff (isolation is strictly worst),
* Monte Carlo basin-of-attraction estimates,
* a CLI (``socgame``) with JSON/CSV/SVG reporting.

``import socgame`` loads no submodule, and so not numpy either: each name in
``__all__`` imports its submodule on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_SUBMODULES = {
    "basins": ("BasinReport", "estimate_basins", "find_attractor", "sample_simplex"),
    "classify": ("EdgeRegime", "RegimeReport", "StationaryState", "classify_global",
                 "face_states"),
    "dynamics": ("Trajectory", "integrate", "match_attractor", "states_at"),
    "model": ("DEFAULT_TOL", "STRATEGIES", "DegenerateParameterError", "IntegrationError",
              "InvalidParameterError", "Params", "SimplexState", "ValidationReport",
              "dominance_relations", "nash_vertices", "payoff_vector", "validate"),
    "welfare": ("OrderingViolationError", "WelfareReport", "welfare_report"),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
