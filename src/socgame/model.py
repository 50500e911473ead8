"""Core model: parameters, population states, payoffs, admissibility checks.

Four behavioural strategies compete in a well-mixed population:

* ``O`` -- interact offline only,
* ``H`` -- participate online, uncivil stance,
* ``P`` -- participate online, polite stance,
* ``N`` -- no social participation (isolation).

With population shares ``x = (x1, x2, x3, x4)`` on the unit simplex the
per-strategy payoffs are linear in the shares::

    P_O = alpha * x1
    P_H = beta * x2 + gamma * x3
    P_P = -delta * x2 + epsilon * x3
    P_N = eta                    (constant fallback payoff)

``alpha, delta, epsilon, eta`` are strictly positive gains/losses; ``beta``
and ``gamma`` may take either sign.  All downstream analysis assumes the
parameter point is *admissible*: no strategy weakly dominated, and not on a
degenerate boundary where the classification would change.  Each of these
conditions is stated once, in the admissibility table (``admissibility``),
as an array expression over parameter columns; ``validate``,
``dominance_relations`` and ``nash_vertices`` read it at one point, and the
sweep reads it over a whole grid.

The errors that the CLI maps to exit codes live here too, with the decimal
formatter every writer shares, so that a command that never integrates
need not load ``dynamics`` to catch or print them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

STRATEGIES = ("O", "H", "P", "N")

# One tolerance governs every strict-inequality check in the package.
DEFAULT_TOL = 1e-9

# Entries this close below zero are treated as numerical noise and clamped.
_CLAMP_FLOOR = -1e-12

# Population shares must sum to 1 within this bound.
_SUM_TOL = 1e-9


class InvalidParameterError(ValueError):
    """Parameters fail positivity or nondominance and cannot be analysed."""


class DegenerateParameterError(ValueError):
    """A classifying quantity sits on (or within tolerance of) a boundary."""


class IntegrationError(RuntimeError):
    """Adaptive step size underflowed before reaching a requested time."""


def decimal(v: float) -> str:
    # shortest decimal that round-trips, never scientific notation
    return np.format_float_positional(v, unique=True, trim="0")


@dataclass(frozen=True)
class Params:
    """Immutable payoff constants.  Positivity is checked by ``validate``,
    not at construction, so that invalid points can still be reported on."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    eta: float

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_mapping(cls, m: dict[str, float]) -> "Params":
        missing = [k for k in PARAM_NAMES if k not in m]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        extra = [k for k in m if k not in PARAM_NAMES]
        if extra:
            raise ValueError(f"unknown parameters: {', '.join(sorted(extra))}")
        return cls(**{k: float(v) for k, v in m.items()})


# the field names of Params, in order
PARAM_NAMES = tuple(f.name for f in fields(Params))


@dataclass(frozen=True)
class SimplexState:
    """Point on the closed unit 3-simplex: shares of O, H, P, N.

    Entries in ``[-1e-12, 0)`` are clamped to exactly 0 (integrator noise);
    anything more negative, or a share sum off 1 by more than 1e-9, is
    rejected.
    """

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self) -> None:
        for name in ("x1", "x2", "x3", "x4"):
            v = float(getattr(self, name))
            if _CLAMP_FLOOR <= v < 0.0:
                v = 0.0
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"share {name}={getattr(self, name)!r} outside the simplex")
            object.__setattr__(self, name, v)
        s = self.x1 + self.x2 + self.x3 + self.x4
        if abs(s - 1.0) > _SUM_TOL:
            raise ValueError(f"shares sum to {s!r}, expected 1 within {_SUM_TOL}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class ValidationReport:
    positivity_ok: bool
    nondominance_ok: bool
    branch: str | None  # "B-plus" | "B-minus" | None
    degenerate_quantities: tuple[str, ...]
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.positivity_ok and self.nondominance_ok and not self.degenerate_quantities

    def as_dict(self) -> dict:
        return {
            "positivity_ok": self.positivity_ok,
            "nondominance_ok": self.nondominance_ok,
            "branch": self.branch,
            "degenerate_quantities": list(self.degenerate_quantities),
            "messages": list(self.messages),
            "ok": self.ok,
        }


def payoff_rows(p: Params | "Columns") -> list[list]:
    """Rows of the payoff matrix (see ``payoff_matrix``) as lists, whose
    entries are columns when ``p`` is a ``Columns``."""
    return [
        [p.alpha, 0.0, 0.0, 0.0],
        [0.0, p.beta, p.gamma, 0.0],
        [0.0, -p.delta, p.epsilon, 0.0],
        [p.eta, p.eta, p.eta, p.eta],
    ]


def payoff_matrix(p: Params) -> np.ndarray:
    """4x4 payoff matrix A with rows/columns ordered O, H, P, N.

    ``A[i, j]`` is the payoff of strategy i against strategy j; the payoff
    vector at state x is ``A @ x``.  N earns the fallback ``eta`` against
    everyone; nobody earns anything from meeting N.
    """
    return np.array(payoff_rows(p))


def payoff_vector(state: SimplexState | Sequence, p: Params | "Columns") -> tuple:
    """Per-strategy expected payoffs (P_O, P_H, P_P, P_N) at ``state``, a
    ``SimplexState`` or four shares (numbers, or columns over points with
    ``p`` a ``Columns``)."""
    x1, x2, x3, _ = state.as_tuple() if isinstance(state, SimplexState) else state
    return (
        p.alpha * x1,
        p.beta * x2 + p.gamma * x3,
        -p.delta * x2 + p.epsilon * x3,
        p.eta,
    )


class Columns(NamedTuple):
    """The six parameters over many points at once, one numpy column each;
    the condition tables below are array expressions over them."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray

    @classmethod
    def of(cls, p: Params) -> "Columns":
        """One point, as numpy scalars: a ratio the tables form but do not
        consult there divides by zero to inf or nan instead of raising."""
        return cls(**{k: np.float64(v) for k, v in p.as_dict().items()})


# ``Admissibility.branch`` indexes this
BRANCHES = (None, "B-plus", "B-minus")


class Admissibility(NamedTuple):
    """The admissibility table: every condition ``validate`` checks, as one
    boolean mask over the points of a ``Columns`` (a numpy bool for one).

    Its primitive masks are the signs of the one-signed constants, the five
    weak-dominance relations and the degenerate quantities; nondominance and
    the sign branch are read from them.
    """

    positive: dict[str, np.ndarray]  # alpha, delta, epsilon, eta strictly positive
    dominated: dict[tuple[str, str], np.ndarray]  # (dominated, dominating): weak dominance
    b_plus: np.ndarray  # beta > -delta and gamma < epsilon
    b_minus: np.ndarray  # beta < -delta and gamma > epsilon
    beta_above_eta: np.ndarray  # the all-uncivil payoff beats the fallback
    degenerate: dict[str, np.ndarray]  # classifying quantity within tol of zero

    @property
    def vertices(self) -> np.ndarray:
        """No vertex payoff falls to the isolation fallback: N dominates
        none of O, H and P."""
        d = self.dominated
        return ~(d["O", "N"] | d["H", "N"] | d["P", "N"])

    @property
    def valid(self) -> np.ndarray:
        """Positivity and nondominance (degeneracy aside)."""
        positive = functools.reduce(operator.and_, self.positive.values())
        return positive & ~functools.reduce(operator.or_, self.dominated.values())

    @property
    def on_boundary(self) -> np.ndarray:
        """Some classifying quantity is degenerate."""
        return functools.reduce(operator.or_, self.degenerate.values())

    @property
    def branch(self) -> np.ndarray:
        return np.where(self.b_plus, 1, np.where(self.b_minus, 2, 0))


def _classifying_quantities(c: Columns) -> dict[str, np.ndarray]:
    """Quantities whose signs drive admissibility and regime selection.

    Any of these within tolerance of zero puts the parameter point on a
    boundary between regimes, where strict-inequality reasoning breaks down.
    The last entries are denominators of payoff ratios used by the
    classifier; alpha+beta only counts when beta > eta, because that ratio
    (the O-H edge-state payoff) is only ever consulted there.
    """
    return {
        "beta+delta": c.beta + c.delta,
        "epsilon-gamma": c.epsilon - c.gamma,
        "beta*epsilon+gamma*delta": c.beta * c.epsilon + c.gamma * c.delta,
        "alpha-eta": c.alpha - c.eta,
        "epsilon-eta": c.epsilon - c.eta,
        "max(beta,gamma)-eta": np.maximum(c.beta, c.gamma) - c.eta,
        "epsilon-gamma+beta+delta": (c.epsilon - c.gamma) + (c.beta + c.delta),
        "alpha+epsilon": c.alpha + c.epsilon,
        "alpha+beta": c.alpha + c.beta,
    }


def admissibility(c: Columns, tol: float = DEFAULT_TOL) -> Admissibility:
    """Evaluate the admissibility table at every point of ``c``.

    Three layers: sign constraints on the four one-signed constants;
    nondominance (no strategy is weakly dominated, which pins one of two
    sign branches for (beta+delta, epsilon-gamma)); and distance from the
    boundary for every classifying quantity.
    """
    with np.errstate(all="ignore"):
        beta_above_eta = c.beta > c.eta
        degenerate = {name: abs(v) <= tol for name, v in _classifying_quantities(c).items()}
        degenerate["alpha+beta"] = degenerate["alpha+beta"] & beta_above_eta
        # the dominated strategy earns at most the dominating one's payoff
        # against every pure state; only N can dominate O, and N is never
        # dominated
        dominated = {
            ("O", "N"): c.alpha <= c.eta,
            ("H", "N"): np.maximum(c.beta, c.gamma) <= c.eta,
            ("H", "P"): (c.beta <= -c.delta) & (c.gamma <= c.epsilon),
            ("P", "N"): c.epsilon <= c.eta,
            ("P", "H"): (c.beta >= -c.delta) & (c.gamma >= c.epsilon),
        }
        # where neither of H and P dominates the other, beta+delta and
        # epsilon-gamma are nonzero with one sign, and beta+delta tells which
        hp_free = ~dominated["H", "P"] & ~dominated["P", "H"]
        h_gains = c.beta > -c.delta
        return Admissibility(
            positive={name: getattr(c, name) > 0.0
                      for name in ("alpha", "delta", "epsilon", "eta")},
            dominated=dominated,
            b_plus=hp_free & h_gains,
            b_minus=hp_free & ~h_gains,
            beta_above_eta=beta_above_eta,
            degenerate=degenerate,
        )


def validate(p: Params, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check admissibility of ``p``: the admissibility table at one point,
    with a message for every condition that fails.  ``report.ok`` is the
    conjunction of its three layers.
    """
    table = admissibility(Columns.of(p), tol)
    messages = [f"{name} must be strictly positive, got {getattr(p, name)}"
                for name, ok in table.positive.items() if not ok]
    if not table.vertices:
        messages.append(
            "dominated strategy: need alpha > eta, epsilon > eta and max(beta, gamma) > eta"
        )
    branch = BRANCHES[int(table.branch)]
    if branch is None:
        messages.append(
            "H/P cross terms outside both sign branches: "
            "need beta+delta and epsilon-gamma nonzero with matching orientation"
        )
    degenerate = tuple(name for name, on in table.degenerate.items() if on)
    messages.extend(f"degenerate boundary: |{name}| <= {tol}" for name in degenerate)

    return ValidationReport(
        positivity_ok=all(table.positive.values()),
        nondominance_ok=not any(table.dominated.values()),
        branch=branch,
        degenerate_quantities=degenerate,
        messages=tuple(messages),
    )


def require_valid(p: Params, tol: float = DEFAULT_TOL) -> ValidationReport:
    """validate() that raises instead of reporting.  Degeneracy outranks
    nondominance so boundary points surface as such, not as failures."""
    report = validate(p, tol)
    if report.degenerate_quantities:
        raise DegenerateParameterError(
            "degenerate classifying quantities: " + ", ".join(report.degenerate_quantities)
        )
    if not (report.positivity_ok and report.nondominance_ok):
        raise InvalidParameterError("; ".join(report.messages) or "invalid parameters")
    return report


def nash_vertices(p: Params, tol: float = DEFAULT_TOL) -> dict[str, bool]:
    """Which pure states are strict Nash equilibria, read off the
    admissibility table.

    N always is (any deviation forfeits the fallback payoff).  O needs
    alpha > eta, H needs beta > eta, P needs epsilon > max(gamma, eta): at an
    admissible point O always is, and P is exactly on branch B-plus.  Raises
    as ``require_valid`` does, and where beta sits within ``tol`` of eta.
    """
    require_valid(p, tol)
    if abs(p.beta - p.eta) <= tol:
        raise DegenerateParameterError(f"Nash boundary: |beta-eta| <= {tol}")
    table = admissibility(Columns.of(p), tol)
    return {
        "O": not table.dominated["O", "N"],
        "H": bool(table.beta_above_eta),
        "P": bool(table.b_plus & ~table.dominated["P", "N"]),
        "N": True,
    }


def dominance_relations(p: Params) -> list[tuple[str, str]]:
    """Weak-dominance pairs ``(dominated, dominating)``: the admissibility
    table's dominance masks that hold at ``p``, in the table's order.

    Weak inequalities, no tolerance: boundary equality already means weak
    dominance.  Raises if one of the one-signed constants is not positive.
    """
    table = admissibility(Columns.of(p))
    for name, ok in table.positive.items():
        if not ok:
            raise InvalidParameterError(f"{name} must be strictly positive")
    return [pair for pair, on in table.dominated.items() if on]
