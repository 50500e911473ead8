"""Welfare comparison of the attracting states.

Every attractor pays its supported strategies one common value, so attractors
are ranked by that single number, the state's own ``payoff``.  The payoffs
recomputed at its location are the cross-check: they must agree, as at a rest
point, and obey the proven inequalities.  Two facts hold for every admissible
parameter point and are enforced here rather than assumed: the isolation
state N pays strictly less than any other attractor (whatever traps the
population in N is never welfare-optimal), and when the uncivil/polite
coexistence state attracts, its payoff lies strictly between the all-polite
payoff epsilon and the all-uncivil payoff beta, above the fallback eta.
Both are checked exactly, with no tolerance, on the floats of one point as
on numpy columns; only a failure loads numpy, to find where it fails.  The
admissibility table already decides each sign beyond tol: the gaps to eta are
its quantities, and the coexistence payoff's distances to beta and epsilon
carry the factors beta+delta and epsilon-gamma.  A margin here would be a
second boundary, rounded differently, that rejects points ``validate`` accepts.

The one comparison deliberately left open is all-offline O versus the
coexistence state: their payoffs can fall either way depending on parameters,
so the pair is reported as incomparable instead of ordered by this module.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .model import STRATEGIES, Params, payoff_vector

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
    import numpy as np

    return float(np.ravel(v)[i])


def _unequal(label: str, attracts, vals: Sequence) -> tuple:
    """Stationarity: every supported strategy earns exactly the population
    mean, so a spread beyond rounding marks a non-stationary input: |a-b| >
    1e-9 * max(1, |a|, |b|) for its one or two payoffs, tested term by term."""
    a, b = vals[0], vals[-1]
    spread = abs(a - b)
    return (attracts & (spread > 1e-9) & (spread > 1e-9 * abs(a)) & (spread > 1e-9 * abs(b)),
            ValueError,
            lambda i: f"supported payoffs differ at {label}: {[_at(v, i) for v in vals]}; "
                      "not a stationary state")


def _raise_first(checks: Sequence[tuple]) -> None:
    """``checks`` lists (failed mask, error type, message of the point) in
    the order one point is checked; raises the first failure at the first
    point that has one."""
    failed = functools.reduce(operator.or_, (mask for mask, _, _ in checks), False)
    if failed is False:  # one point, and it passed
        return
    import numpy as np

    for i in np.flatnonzero(failed)[:1].tolist():  # the first point that fails
        for mask, error, message in checks:
            if np.ravel(mask)[i]:
                raise error(message(i))


def check_orderings(attractors: dict[str, tuple], p) -> dict:
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
                    isolated & attracts & (v <= p.eta), OrderingViolationError,
                    lambda i, label=label, v=v: f"attractor {label} pays {_at(v, i)}, "
                    f"not strictly above isolation {_at(p.eta, i)}"))
    if "H+P" in attractors:
        attracts, v = attractors["H+P"][0], pay["H+P"]
        checks.append((
            attracts & (((p.beta < v) & (v < p.epsilon)) ^ True),
            OrderingViolationError,
            lambda i: f"coexistence payoff {_at(v, i)} outside "
                      f"({_at(p.beta, i)}, {_at(p.epsilon, i)})"))
        checks.append((
            attracts & (v <= p.eta), OrderingViolationError,
            lambda i: f"coexistence payoff {_at(v, i)} does not beat the fallback "
                      f"{_at(p.eta, i)}"))
    _raise_first(checks)
    return pay


def welfare_report(attractors: Sequence["StationaryState"], p: Params) -> WelfareReport:
    """Rank the attractors by each state's payoff, once the payoffs at their
    locations pass ``check_orderings`` at one point.  A tie group holds
    exactly equal payoffs, so the groups of ``p`` and ``c * p`` agree for
    every c > 0 that scales the payoffs exactly, such as a power of two."""
    check_orderings(
        {a.label: (True, supported_payoffs(a.location, a.support, p)) for a in attractors}, p)
    pay = {a.label: a.payoff for a in attractors}

    ranked = sorted(pay.items(), key=lambda kv: (-kv[1], kv[0]))
    groups = [tuple(label for label, _ in group)
              for _, group in itertools.groupby(ranked, key=lambda kv: kv[1])]

    incomparable: tuple[tuple[str, str], ...] = ()
    if "O" in pay and "H+P" in pay:
        incomparable = (("O", "H+P"),)

    return WelfareReport(
        payoffs=tuple(ranked),
        ordering=tuple(groups),
        trap_dominated=len(pay) >= 2,
        incomparable=incomparable,
    )
