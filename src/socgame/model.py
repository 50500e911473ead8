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
degenerate boundary where the classification would change.  ``validate``
reports exactly that.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
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
        for name in ("alpha", "beta", "gamma", "delta", "epsilon", "eta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def as_dict(self) -> dict[str, float]:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "eta": self.eta,
        }

    @classmethod
    def from_mapping(cls, m: dict[str, float]) -> "Params":
        missing = [k for k in ("alpha", "beta", "gamma", "delta", "epsilon", "eta") if k not in m]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}")
        extra = [k for k in m if k not in ("alpha", "beta", "gamma", "delta", "epsilon", "eta")]
        if extra:
            raise ValueError(f"unknown parameters: {', '.join(sorted(extra))}")
        return cls(**{k: float(v) for k, v in m.items()})


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

    def support(self, zero_tol: float = 0.0) -> tuple[str, ...]:
        """Strategies with share strictly above ``zero_tol``."""
        return tuple(s for s, v in zip(STRATEGIES, self.as_tuple()) if v > zero_tol)


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
        return cls(*(np.float64(v) for v in (p.alpha, p.beta, p.gamma, p.delta,
                                             p.epsilon, p.eta)))


# ``Admissibility.branch`` indexes this
BRANCHES = (None, "B-plus", "B-minus")


class Admissibility(NamedTuple):
    """The admissibility table: every condition ``validate`` checks, as one
    boolean mask over the points of a ``Columns`` (a numpy bool for one)."""

    positive: dict[str, np.ndarray]  # alpha, delta, epsilon, eta strictly positive
    vertices: np.ndarray  # alpha, epsilon and max(beta, gamma) all beat eta
    b_plus: np.ndarray  # beta > -delta and gamma < epsilon
    b_minus: np.ndarray  # beta < -delta and gamma > epsilon
    beta_above_eta: np.ndarray  # the all-uncivil payoff beats the fallback
    degenerate: dict[str, np.ndarray]  # classifying quantity within tol of zero

    @property
    def valid(self) -> np.ndarray:
        """Positivity and nondominance (degeneracy aside)."""
        positive = functools.reduce(operator.and_, self.positive.values())
        return positive & self.vertices & (self.b_plus | self.b_minus)

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
    nondominance (every strategy survives weak-dominance elimination, which
    pins one of two sign branches for (beta+delta, epsilon-gamma)); and
    distance-from-boundary for every classifying quantity.
    """
    with np.errstate(all="ignore"):
        beta_above_eta = c.beta > c.eta
        degenerate = {name: abs(v) <= tol for name, v in _classifying_quantities(c).items()}
        degenerate["alpha+beta"] = degenerate["alpha+beta"] & beta_above_eta
        return Admissibility(
            positive={name: getattr(c, name) > 0.0
                      for name in ("alpha", "delta", "epsilon", "eta")},
            # no vertex payoff may fall to the isolation fallback...
            vertices=((c.alpha > c.eta) & (c.epsilon > c.eta)
                      & (np.maximum(c.beta, c.gamma) > c.eta)),
            # ...and the H/P cross terms must sit in one of two strict sign branches
            b_plus=(c.beta > -c.delta) & (c.gamma < c.epsilon),
            b_minus=(c.beta < -c.delta) & (c.gamma > c.epsilon),
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
        nondominance_ok=bool(table.vertices) and branch is not None,
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
    """Which pure states are strict Nash equilibria.

    N always is (any deviation forfeits the fallback payoff).  O needs
    alpha > eta, H needs beta > eta, P needs epsilon > max(gamma, eta).
    Raises if a defining inequality sits within ``tol`` of equality.
    """
    require_valid(p, tol)
    for name, v in {
        "alpha-eta": p.alpha - p.eta,
        "beta-eta": p.beta - p.eta,
        "epsilon-gamma": p.epsilon - p.gamma,
        "epsilon-eta": p.epsilon - p.eta,
    }.items():
        if abs(v) <= tol:
            raise DegenerateParameterError(f"Nash boundary: |{name}| <= {tol}")
    return {
        "O": p.alpha > p.eta,
        "H": p.beta > p.eta,
        "P": p.epsilon > p.gamma and p.epsilon > p.eta,
        "N": True,
    }


def coexistence_payoff(p: Params) -> float:
    """Common payoff at the mixed uncivil/polite state on the H-P edge:
    (beta*epsilon + gamma*delta) / (epsilon - gamma + beta + delta).

    The caller is responsible for the denominator being away from zero
    (``validate`` flags it as a degenerate quantity).
    """
    num = p.beta * p.epsilon + p.gamma * p.delta
    den = (p.epsilon - p.gamma) + (p.beta + p.delta)
    return num / den


def dominance_relations(p: Params) -> list[tuple[str, str]]:
    """Weak-dominance pairs ``(dominated, dominating)``.

    Only N can dominate or tie down O; H and P can dominate each other; N is
    never dominated.  Weak inequalities, no tolerance: boundary equality
    already means weak dominance.
    """
    for name in ("alpha", "delta", "epsilon", "eta"):
        if getattr(p, name) <= 0.0:
            raise InvalidParameterError(f"{name} must be strictly positive")
    rel: list[tuple[str, str]] = []
    if p.alpha <= p.eta:
        rel.append(("O", "N"))
    if p.eta >= max(p.beta, p.gamma):
        rel.append(("H", "N"))
    if p.beta <= -p.delta and p.gamma <= p.epsilon:
        rel.append(("H", "P"))
    if p.epsilon <= p.eta:
        rel.append(("P", "N"))
    if p.beta >= -p.delta and p.gamma >= p.epsilon:
        rel.append(("P", "H"))
    return rel
