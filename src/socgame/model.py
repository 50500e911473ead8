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
degenerate boundary where the classification would change.  Each
classifying quantity is stated once (``_quantities``), and each of these
conditions once, in the admissibility table (``admissibility``), as a sign
or band of them that holds on six floats and on parameter columns alike;
``validate``, ``dominance_relations`` and ``nash_vertices`` read it on the
floats of one point, and the regime table over a whole grid.  So checking
one point loads no numpy: only ``payoff_matrix`` imports it, where it is
called.  The four boundary faces are named here too (``FACES``), with the
strategies each holds, and the face-scoped quantities (``FACE_SCOPE``).

The errors that the CLI maps to exit codes live here too, with the decimal
formatter every writer shares, so that a command that never integrates
need not load ``dynamics`` to catch or print them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

STRATEGIES = ("O", "H", "P", "N")

# One tolerance governs every strict-inequality check on the parameters.  The
# eigen signs of face-interior states are exact and need none.
DEFAULT_TOL = 1e-9

# The horizon of a run to rest, unless the caller chooses another.
DEFAULT_MAX_TIME = 1000.0

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


def check_max_time(max_time: float) -> None:
    """Raise ValueError unless ``max_time``, the horizon after which a run to
    rest reports max-time-reached, is positive and finite."""
    if not 0.0 < max_time < math.inf:
        raise ValueError(f"max_time must be positive and finite, got {max_time!r}")


def decimal(v: float) -> str:
    """The shortest decimal that round-trips (``repr``), never in scientific
    notation: the string numpy's ``format_float_positional(v, unique=True,
    trim="0")`` gives."""
    s = repr(float(v))
    mantissa, e, exp = s.partition("e")
    if not e:
        return s
    sign = "-" if mantissa[0] == "-" else ""
    whole, _, frac = mantissa.lstrip("-").partition(".")
    digits = whole + frac
    point = len(whole) + int(exp)  # digits before the decimal point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    # repr writes an exponent from 1e16 up, and never more than 17 digits,
    # so the digits all lie before the point
    return f"{sign}{digits.ljust(point, '0')}.0"


@dataclass(frozen=True)
class Params:
    """Immutable payoff constants.  Positivity is checked by ``validate``,
    not at construction, so that invalid points can still be reported on.

    The one value type that stays a dataclass, not a ``NamedTuple``:
    callers vary one constant of a point with ``dataclasses.replace``."""

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


# the fields of SimplexState, whose constructor checks them
class _Shares(NamedTuple):
    x1: float
    x2: float
    x3: float
    x4: float


class SimplexState(_Shares):
    """Point on the closed unit 3-simplex: shares of O, H, P, N.

    Entries in ``[-1e-12, 0)`` are clamped to exactly 0 (integrator noise);
    anything more negative, or a share sum off 1 by more than 1e-9, is
    rejected.
    """

    __slots__ = ()

    def __new__(cls, x1: float, x2: float, x3: float, x4: float) -> "SimplexState":
        xs = []
        for name, raw in zip(_Shares._fields, (x1, x2, x3, x4)):
            v = float(raw)
            if _CLAMP_FLOOR <= v < 0.0:
                v = 0.0
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"share {name}={raw!r} outside the simplex")
            xs.append(v)
        s = xs[0] + xs[1] + xs[2] + xs[3]
        if abs(s - 1.0) > _SUM_TOL:
            raise ValueError(f"shares sum to {s!r}, expected 1 within {_SUM_TOL}")
        return super().__new__(cls, *xs)

    @classmethod
    def _make(cls, iterable) -> "SimplexState":
        # _replace builds through here: validate as the constructor does
        return cls(*iterable)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return self[:]  # a slice of a tuple subclass is a plain tuple


class ValidationReport(NamedTuple):
    positivity_ok: bool
    nondominance_ok: bool
    branch: str | None  # "B-plus" | "B-minus" | None
    degenerate_quantities: tuple[str, ...]
    messages: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        """Valid and on no global boundary: the regime table decides every
        face that no reported (face-scoped) quantity leaves undecided."""
        return (self.positivity_ok and self.nondominance_ok
                and all(q in FACE_SCOPE for q in self.degenerate_quantities))

    @property
    def ok(self) -> bool:
        return self.admissible and not self.degenerate_quantities

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
    entries are columns when ``p`` is a ``Columns``; int zeros keep exact
    ``Fraction`` fields exact."""
    return [
        [p.alpha, 0, 0, 0],
        [0, p.beta, p.gamma, 0],
        [0, -p.delta, p.epsilon, 0],
        [p.eta, p.eta, p.eta, p.eta],
    ]


def _quotient(num, den):
    """``num / den``, which on floats too gives numpy's inf or nan where
    ``den`` is zero, instead of raising."""
    try:
        return num / den
    except ZeroDivisionError:
        return num * math.copysign(math.inf, den)


def _edge_gaps(A: list[list], a: int, b: int) -> tuple:
    """The payoff gap of a over b is affine in the share s of a along the
    a-b edge: returns it at s = 0 and at s = 1."""
    return A[a][b] - A[b][b], A[a][a] - A[b][a]


def _edge_state(A: list[list], a: int, b: int) -> tuple:
    """Share of a where that gap vanishes, and the common payoff of a and b
    there, from ``payoff_rows`` entries (numbers, or columns).  Only
    meaningful where the gap changes sign along the edge."""
    g0, g1 = _edge_gaps(A, a, b)
    return (_quotient(g0, g0 - g1),
            _quotient(A[a][a] * A[b][b] - A[a][b] * A[b][a], g1 - g0))


def payoff_matrix(p: Params) -> np.ndarray:
    """4x4 payoff matrix A with rows/columns ordered O, H, P, N.

    ``A[i, j]`` is the payoff of strategy i against strategy j; the payoff
    vector at state x is ``A @ x``.  N earns the fallback ``eta`` against
    everyone; nobody earns anything from meeting N.
    """
    import numpy as np

    return np.array(payoff_rows(p))


def payoff_vector(state: SimplexState | Sequence, p: Params | "Columns") -> tuple:
    """Per-strategy expected payoffs (P_O, P_H, P_P, P_N) at ``state``, a
    ``SimplexState`` or four shares (numbers, or columns over points with
    ``p`` a ``Columns``)."""
    x1, x2, x3, _ = state
    return (
        p.alpha * x1,
        p.beta * x2 + p.gamma * x3,
        -p.delta * x2 + p.epsilon * x3,
        p.eta,
    )


class Columns(NamedTuple):
    """The six parameters over many points at once, one numpy column each;
    the condition tables below hold on them as on the floats of a
    ``Params``."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    epsilon: np.ndarray
    eta: np.ndarray


# ``Admissibility.branch`` indexes this
BRANCHES = (None, "B-plus", "B-minus")

# the boundary faces in report order, each named by its absent strategy,
# with the indices of that strategy and of the three the face holds
FACES = ("S_N", "S_O", "S_H", "S_P")
FACE_ABSENT = {face: STRATEGIES.index(face[2:]) for face in FACES}
FACE_ACTIVE = {face: tuple(i for i in range(4) if i != absent)
               for face, absent in FACE_ABSENT.items()}


def face_holds(face: str, support: Sequence[str]) -> bool:
    """A face holds a state whose support avoids the face's absent strategy."""
    return STRATEGIES[FACE_ABSENT[face]] not in support


# the degenerate quantities that leave only some faces undecided, in validate's order
FACE_SCOPE = ("beta", "beta-eta", "eta-pay(O+P)", "eta-pay(O+H)", "eta-pay(H+P)")


class Admissibility(NamedTuple):
    """The admissibility table: every condition ``validate`` checks, as one
    boolean mask over the points of a ``Columns``, or one bool on the floats
    of a ``Params``, read off the classifying quantities (``_quantities``).

    Its primitive masks are the signs of the one-signed constants, the five
    weak-dominance relations and the degenerate quantities, global and
    face-scoped; nondominance and the sign branch are read from them.  Every
    expression holds on bools and on bool arrays alike: ``m ^ True`` negates
    (``~`` of a bool is an int).
    """

    positive: dict[str, np.ndarray]  # alpha, delta, epsilon, eta strictly positive
    dominated: dict[tuple[str, str], np.ndarray]  # (dominated, dominating): weak dominance
    b_plus: np.ndarray  # beta > -delta and gamma < epsilon
    b_minus: np.ndarray  # beta < -delta and gamma > epsilon
    beta_above_eta: np.ndarray  # the all-uncivil payoff beats the fallback
    degenerate: dict[str, np.ndarray]  # classifying quantity within tol of zero
    face_degenerate: dict[str, np.ndarray]  # the same, for the FACE_SCOPE quantities
    quantities: dict[str, np.ndarray]  # the quantities the regime table's literals name
    hp_share: np.ndarray  # share of H at the H-P edge state

    @property
    def vertices(self) -> np.ndarray:
        """No vertex payoff falls to the isolation fallback: N dominates
        none of O, H and P."""
        d = self.dominated
        return (d["O", "N"] | d["H", "N"] | d["P", "N"]) ^ True

    @property
    def valid(self) -> np.ndarray:
        """Positivity and nondominance (degeneracy aside)."""
        positive = functools.reduce(operator.and_, self.positive.values())
        return positive & (functools.reduce(operator.or_, self.dominated.values()) ^ True)

    @property
    def on_boundary(self) -> np.ndarray:
        """Some classifying quantity is degenerate."""
        return functools.reduce(operator.or_, self.degenerate.values())

    @property
    def branch(self) -> np.ndarray:
        """Index into ``BRANCHES``: the two branches exclude each other."""
        return self.b_plus + 2 * self.b_minus


# the global degenerate quantities, in the order validate reports them
_GLOBAL = ("beta+delta", "epsilon-gamma", "beta*epsilon+gamma*delta", "alpha-eta",
           "epsilon-eta", "max(beta,gamma)-eta", "eta", "epsilon-gamma+beta+delta",
           "alpha+epsilon", "alpha+beta")


def _quantities(c: Params | Columns) -> tuple[dict, np.ndarray]:
    """Each classifying quantity at ``c`` by name, and the share of H at the
    H-P edge state.  A quantity within tol of zero puts the point on a
    boundary between regimes, where strict-inequality reasoning breaks
    down.  The last three ``_GLOBAL`` ones are the denominators of the
    edge-state payoffs that eta is compared with; a zero one gives an inf or
    nan payoff, never near eta.  The ones the table keeps, bar beta+delta,
    come last: on columns the others, freed once the masks are built, then
    leave room below them that the next arrays reuse."""
    A = payoff_rows(c)
    bd, eg = c.beta + c.delta, c.epsilon - c.gamma
    return {
        "beta+delta": bd,
        "epsilon-gamma": eg,
        "alpha-eta": c.alpha - c.eta,
        "epsilon-eta": c.epsilon - c.eta,
        "eta": c.eta,
        "epsilon-gamma+beta+delta": eg + bd,
        "alpha+epsilon": c.alpha + c.epsilon,
        "alpha+beta": c.alpha + c.beta,
        "gamma-eta": c.gamma - c.eta,
        "beta-eta": c.beta - c.eta,
        "beta": c.beta,
        "eta-pay(H+P)": c.eta - (hp := _edge_state(A, 1, 2))[1],
        "eta-pay(O+P)": c.eta - _edge_state(A, 0, 2)[1],
        "eta-pay(O+H)": c.eta - _edge_state(A, 0, 1)[1],
        "beta*epsilon+gamma*delta": c.beta * c.epsilon + c.gamma * c.delta,
    }, hp[0]


def admissibility(c: Params | Columns, tol: float = DEFAULT_TOL) -> Admissibility:
    """Evaluate the admissibility table on ``c``, any object with the six
    parameter fields: a ``Params``, a ``Columns``, or exact ``Fraction``s.

    Three layers: sign constraints on the four one-signed constants;
    nondominance (no strategy is weakly dominated, which pins one of two
    sign branches for (beta+delta, epsilon-gamma)); and distance from the
    boundary for every classifying quantity, each read off ``_quantities``
    (for finite floats ``a <= b`` exactly where ``fl(a - b) <= 0``).  On
    floats nothing here raises; on columns a product may overflow or a
    payoff divide by zero, so callers that pass arrays silence numpy's
    warnings.
    """
    q, hp_share = _quantities(c)
    bd, eg, u, v = q["beta+delta"], q["epsilon-gamma"], q["beta-eta"], q["gamma-eta"]
    above = u > 0.0
    # the dominated strategy earns at most the dominating one's payoff
    # against every pure state; only N can dominate O, and N is never
    # dominated
    dominated = {
        ("O", "N"): q["alpha-eta"] <= 0.0,
        ("H", "N"): (u <= 0.0) & (v <= 0.0),
        ("H", "P"): (bd <= 0.0) & (eg >= 0.0),
        ("P", "N"): q["epsilon-eta"] <= 0.0,
        ("P", "H"): (bd >= 0.0) & (eg <= 0.0),
    }
    # where neither of H and P dominates the other, beta+delta and
    # epsilon-gamma are nonzero with one sign, and beta+delta tells which
    hp_free = (dominated["H", "P"] | dominated["P", "H"]) ^ True
    h_gains = bd > 0.0
    # each quantity within tol of zero, but: max(beta, gamma) - eta rounds
    # to the larger of u and v, so |max(u, v)| <= tol needs no max; eta
    # counts only above zero, since eta <= 0 fails positivity; alpha+beta
    # and eta-pay(O+H) count only where beta > eta, where the O-H payoff
    # is read.  At an admissible point beta = eta holds only on B-plus (on
    # B-minus beta < 0, so it would need 0 < eta <= tol).
    near = {name: abs(x) <= tol for name, x in q.items()}
    near["max(beta,gamma)-eta"] = (u <= tol) & (v <= tol) & ((u >= -tol) | (v >= -tol))
    near["eta"] = (c.eta > 0.0) & near["eta"]
    near["alpha+beta"] = near["alpha+beta"] & above
    near["eta-pay(O+H)"] = above & near["eta-pay(O+H)"]
    return Admissibility(
        positive={name: getattr(c, name) > 0.0
                  for name in ("alpha", "delta", "epsilon", "eta")},
        dominated=dominated,
        b_plus=hp_free & h_gains,
        b_minus=hp_free & (h_gains ^ True),
        beta_above_eta=above,
        degenerate={name: near[name] for name in _GLOBAL},
        face_degenerate={name: near[name] for name in FACE_SCOPE},
        quantities={name: q[name] for name in (
            "beta+delta", "beta", "beta-eta", "beta*epsilon+gamma*delta",
            "eta-pay(O+P)", "eta-pay(O+H)", "eta-pay(H+P)")},
        hp_share=hp_share,
    )


def validate(p: Params, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check admissibility of ``p``: the admissibility table at one point,
    with a message for every condition that fails.  ``report.ok`` is the
    conjunction of its three layers.  The face-scoped quantities count only
    where the regime table reads them: at a valid point on no global
    boundary.
    """
    table = admissibility(p, tol)
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
    if table.valid and not degenerate:
        degenerate = tuple(name for name, on in table.face_degenerate.items() if on)
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
    as ``require_valid`` does, which covers beta within ``tol`` of eta.
    """
    require_valid(p, tol)
    table = admissibility(p, tol)
    return {
        "O": not table.dominated["O", "N"],
        "H": table.beta_above_eta,
        "P": table.b_plus and not table.dominated["P", "N"],
        "N": True,
    }


def dominance_relations(p: Params) -> list[tuple[str, str]]:
    """Weak-dominance pairs ``(dominated, dominating)``: the admissibility
    table's dominance masks that hold at ``p``, in the table's order.

    Weak inequalities, no tolerance: boundary equality already means weak
    dominance.  Raises if one of the one-signed constants is not positive.
    """
    table = admissibility(p)
    for name, ok in table.positive.items():
        if not ok:
            raise InvalidParameterError(f"{name} must be strictly positive")
    return [pair for pair, on in table.dominated.items() if on]
