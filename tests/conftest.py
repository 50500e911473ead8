"""Shared fixtures: canonical parameter sets and seeded random draws."""

import numpy as np
import pytest
from hypothesis import strategies as st

from oracles import coexistence_payoff, oh_payoff, op_payoff
from socgame import Params, validate
from socgame.model import PARAM_NAMES, Columns

# canonical instances used throughout the suite
SET_A = Params(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, eta=0.5)
SET_B = Params(alpha=2, beta=-2, gamma=1.5, delta=1, epsilon=1, eta=0.2)
SET_C = Params(alpha=2, beta=-0.5, gamma=1.2, delta=1, epsilon=2, eta=0.3)
# Set A with gamma raised onto the epsilon boundary: degenerate on purpose
SET_D = Params(alpha=2, beta=1, gamma=2, delta=1, epsilon=2, eta=0.5)

MARGIN = 1e-4  # how far random draws must sit from every strictness boundary


@pytest.fixture
def set_a() -> Params:
    return SET_A


@pytest.fixture
def set_b() -> Params:
    return SET_B


@pytest.fixture
def set_c() -> Params:
    return SET_C


@pytest.fixture
def set_d() -> Params:
    return SET_D


def numpy_columns(p: Params) -> Columns:
    """``p`` as a one-point ``Columns`` of numpy scalars, which the tables
    read as they read a grid: a ratio they form but do not consult divides
    by zero to inf or nan."""
    return Columns(**{k: np.float64(v) for k, v in p.as_dict().items()})


def admissible(p: Params, margin: float = MARGIN) -> bool:
    """Valid with every classifying quantity at least ``margin`` from zero."""
    v = validate(p, tol=margin)
    return v.positivity_ok and v.nondominance_ok and not v.degenerate_quantities


def draw_params(rng: np.random.Generator, branch: str, margin: float = MARGIN) -> Params:
    """Rejection-sample one admissible Params on the requested sign branch."""
    while True:
        alpha = rng.uniform(0.3, 3.0)
        delta = rng.uniform(0.1, 1.5)
        epsilon = rng.uniform(0.3, 3.0)
        eta = rng.uniform(0.05, 1.0)
        if branch == "B-plus":
            beta = rng.uniform(-delta, 2.5)
            gamma = rng.uniform(-1.5, epsilon)
        elif branch == "B-minus":
            beta = rng.uniform(-3.0, -delta)
            gamma = rng.uniform(epsilon, epsilon + 2.0)
        else:
            raise ValueError(f"unknown branch {branch!r}")
        p = Params(alpha=alpha, beta=beta, gamma=gamma, delta=delta,
                   epsilon=epsilon, eta=eta)
        v = validate(p, tol=margin)
        if (v.positivity_ok and v.nondominance_ok
                and not v.degenerate_quantities and v.branch == branch):
            return p


def draw_simplex(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One uniform point on the open 3-simplex."""
    x = rng.standard_exponential(4)
    x /= x.sum()
    return tuple(x)


@pytest.fixture
def draw():
    return draw_params


@pytest.fixture
def simplex_point():
    return draw_simplex


# each classifying quantity and face boundary, and how to put a point on it:
# (parameter to move, its new value as a function of the point)
SNAPS = {
    "beta+delta": ("beta", lambda p: -p.delta),
    "epsilon-gamma": ("gamma", lambda p: p.epsilon),
    "beta*epsilon+gamma*delta": ("gamma", lambda p: -p.beta * p.epsilon / p.delta),
    "alpha-eta": ("alpha", lambda p: p.eta),
    "epsilon-eta": ("epsilon", lambda p: p.eta),
    "max(beta,gamma)-eta": ("beta", lambda p: p.eta),
    "epsilon-gamma+beta+delta": ("gamma", lambda p: p.epsilon + p.beta + p.delta),
    "alpha+epsilon": ("alpha", lambda p: -p.epsilon),
    "alpha+beta": ("beta", lambda p: -p.alpha),
    "|beta|": ("beta", lambda p: 0.0),
    "beta-eta": ("eta", lambda p: p.beta),
    "eta-coex": ("eta", coexistence_payoff),
    "eta-op_pay": ("eta", op_payoff),
    "eta-oh_pay": ("eta", oh_payoff),
}

# where an arbitrary (mostly inadmissible) point's parameters are drawn from
PARAM_RANGES = {"alpha": (-0.5, 3.0), "beta": (-3.0, 2.5), "gamma": (-1.0, 3.5),
                "delta": (-0.5, 2.0), "epsilon": (-0.5, 3.0), "eta": (-0.2, 1.5)}


def snapped(base: dict, snap) -> Params:
    """``base`` moved onto the boundary named ``snap`` (if any, and if the
    move is defined there)."""
    if snap is not None:
        name, value = SNAPS[snap]
        try:
            base = {**base, name: float(value(Params(**base)))}
        except ZeroDivisionError:
            pass
    return Params(**base)


@st.composite
def snapped_points(draw) -> Params:
    """A point, admissible or anywhere in PARAM_RANGES, perhaps snapped onto
    one of the SNAPS boundaries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = draw_params(rng, draw(st.sampled_from(("B-plus", "B-minus")))).as_dict()
    else:
        base = {k: float(rng.uniform(*PARAM_RANGES[k])) for k in PARAM_NAMES}
    return snapped(base, draw(st.sampled_from((None,) + tuple(SNAPS))))


# A B-minus point and a start whose run to rest ends max-time-reached at
# t = 1000 with x4 = 1.7e-4, farther than the 1e-6 match tolerance from H+P,
# though start and end both lie in the H+P ratio box.
BOX_ONLY_P = draw_params(np.random.default_rng(1107407), "B-minus")
BOX_ONLY_X0 = tuple(v / 0.999 for v in (0.0, 0.422, 0.573, 0.004))
