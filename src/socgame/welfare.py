"""Welfare comparison of the attracting states.

Every attractor pays its supported strategies one common value, so attractors
are ranked by that single number.  Two facts hold for every admissible
parameter point and are enforced here rather than assumed: the isolation
state N pays strictly less than any other attractor (whatever traps the
population in N is never welfare-optimal), and when the uncivil/polite
coexistence state attracts, its payoff lies strictly between the all-polite
payoff epsilon and the all-uncivil payoff beta, above the fallback eta.

The one comparison deliberately left open is all-offline O versus the
coexistence state: their payoffs can fall either way depending on parameters,
so the pair is reported as incomparable instead of ordered by this module.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .model import DEFAULT_TOL, STRATEGIES, Params, payoff_vector

if TYPE_CHECKING:  # pragma: no cover
    from .classify import StationaryState


class OrderingViolationError(ValueError):
    """A proven welfare inequality failed; inputs are inconsistent."""


class WelfareReport(NamedTuple):
    payoffs: tuple[tuple[str, float], ...]  # (label, payoff), best first
    ordering: tuple[tuple[str, ...], ...]  # payoff-tie groups, best first
    trap_dominated: bool  # some attractor strictly beats isolation
    incomparable: tuple[tuple[str, str], ...]

    def as_dict(self) -> dict:
        return {
            "payoffs": {label: v for label, v in self.payoffs},
            "ordering": [list(g) for g in self.ordering],
            "trap_dominated": self.trap_dominated,
            "incomparable": [list(pair) for pair in self.incomparable],
        }


def supported_payoffs(location, support: Sequence[str], p) -> list:
    """Payoffs of the ``support`` strategies at ``location``: a
    ``SimplexState``, or four shares that may be columns over points when
    ``p`` is a ``Columns``."""
    pi = payoff_vector(location, p)
    return [pi[STRATEGIES.index(s)] for s in support]


def _at(v, i: int) -> float:
    """Point ``i`` of a number or a column, for messages."""
    return float(np.ravel(v)[i])


def _unequal(label: str, attracts, vals: Sequence) -> tuple:
    """Stationarity: every supported strategy earns exactly the population
    mean, so a spread beyond rounding marks a non-stationary input."""
    scale = np.maximum(1.0, functools.reduce(np.maximum, [abs(v) for v in vals]))
    spread = functools.reduce(np.maximum, vals) - functools.reduce(np.minimum, vals)
    return (attracts & (spread > 1e-9 * scale), ValueError,
            lambda i: f"supported payoffs differ at {label}: {[_at(v, i) for v in vals]}; "
                      "not a stationary state")


def _raise_first(checks: Sequence[tuple]) -> None:
    """``checks`` lists (failed mask, error type, message of the point) in
    the order one point is checked; raises the first failure at the first
    point that has one."""
    failed = functools.reduce(operator.or_, (mask for mask, _, _ in checks), False)
    if np.any(failed):
        i = int(np.flatnonzero(failed)[0])
        for mask, error, message in checks:
            if np.ravel(mask)[i]:
                raise error(message(i))


def check_orderings(attractors: dict[str, tuple], p, tol: float = DEFAULT_TOL) -> dict:
    """The proven welfare inequalities at every point at once.

    ``attractors`` maps each label, in attractor order, to where it attracts
    (a mask over the points of ``p``, a ``Columns``, or True for one point
    of a ``Params``) and the payoffs of its supported strategies there.
    Returns each label's common payoff.  Raises, at the first point where a
    check fails, ValueError if supported payoffs differ, and
    OrderingViolationError if isolation is not strictly the worst
    attractor, or if an attracting coexistence state escapes the open
    interval (beta, epsilon) or fails to beat eta.
    """
    checks = [_unequal(label, attracts, vals) for label, (attracts, vals) in attractors.items()]
    pay = {label: vals[0] for label, (_, vals) in attractors.items()}
    if "N" in attractors:
        isolated = attractors["N"][0]
        for label, (attracts, _) in attractors.items():
            if label != "N":
                v = pay[label]
                checks.append((
                    isolated & attracts & (v <= p.eta + tol), OrderingViolationError,
                    lambda i, label=label, v=v: f"attractor {label} pays {_at(v, i)}, "
                    f"not strictly above isolation {_at(p.eta, i)}"))
    if "H+P" in attractors:
        attracts, v = attractors["H+P"][0], pay["H+P"]
        checks.append((
            attracts & np.logical_not((p.beta + tol < v) & (v < p.epsilon - tol)),
            OrderingViolationError,
            lambda i: f"coexistence payoff {_at(v, i)} outside "
                      f"({_at(p.beta, i)}, {_at(p.epsilon, i)})"))
        checks.append((
            attracts & (v <= p.eta + tol), OrderingViolationError,
            lambda i: f"coexistence payoff {_at(v, i)} does not beat the fallback "
                      f"{_at(p.eta, i)}"))
    _raise_first(checks)
    return pay


def welfare_report(attractors: Sequence["StationaryState"], p: Params,
                   tol: float = DEFAULT_TOL) -> WelfareReport:
    """Rank the attractors by payoff and check the proven inequalities
    (``check_orderings`` at one point)."""
    pay = check_orderings(
        {a.label: (True, supported_payoffs(a.location, a.support, p)) for a in attractors},
        p, tol)

    ranked = sorted(pay.items(), key=lambda kv: (-kv[1], kv[0]))
    groups: list[list[str]] = []
    group_val: float | None = None
    for label, v in ranked:
        if group_val is not None and abs(v - group_val) <= tol:
            groups[-1].append(label)
        else:
            groups.append([label])
            group_val = v

    incomparable: tuple[tuple[str, str], ...] = ()
    if "O" in pay and "H+P" in pay:
        incomparable = (("O", "H+P"),)

    return WelfareReport(
        payoffs=tuple(ranked),
        ordering=tuple(tuple(g) for g in groups),
        trap_dominated=len(pay) >= 2,
        incomparable=incomparable,
    )
