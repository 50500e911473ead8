"""Monte Carlo estimation of basins of attraction.

Starts are drawn uniformly from the simplex (flat Dirichlet: four standard
exponentials, normalized) and integrated together as one numpy batch in this
process.  Each global attractor that admits one gets a ratio box
(``ratio_box``), a region proved to flow to it; a sample stops as soon as it
enters a box and is labelled by the box that stopped it; the others run to
rest in no box.  A single run (``find_attractor``, the CLI's ``simulate``)
is labelled by the box that holds its end state (``label_runs``), the same
box.  "Unresolved" means "ended in no ratio box".  Fractions come with
binomial standard errors; unresolved runs are tallied separately rather
than discarded, so the fractions always account for every sample.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .classify import StationaryState, classify_global
from .dynamics import RatioBox, _box_of, _integrate_rows, integrate
from .model import (DEFAULT_MAX_TIME, DEFAULT_TOL, STRATEGIES, Params, SimplexState,
                    check_max_time, payoff_rows)

SAMPLING = "uniform-simplex"
# a box bound is set by a power of two 2**e, for e from _NARROWEST up
_NARROWEST, _WIDEST = -30, 30
# a corner's ratio rate must clear this share of the sum of its terms' sizes,
# far above the rounding of the rate and of the row test
_MARGIN = 1e-9


class BasinReport(NamedTuple):
    sample_count: int
    seed: int
    sampling: str
    counts: tuple[tuple[str, int], ...]  # (attractor label | "unresolved", count)

    @property
    def fractions(self) -> dict[str, float]:
        return {label: c / self.sample_count for label, c in self.counts}

    @property
    def stderr(self) -> dict[str, float]:
        n = self.sample_count
        return {
            label: math.sqrt(f * (1.0 - f) / n)
            for label, f in self.fractions.items()
        }

    def as_dict(self) -> dict:
        fr = self.fractions
        se = self.stderr
        return {
            "sample_count": self.sample_count,
            "seed": self.seed,
            "sampling": self.sampling,
            "basins": {
                label: {"count": c, "fraction": fr[label], "stderr": se[label]}
                for label, c in self.counts
            },
        }


def sample_simplex(n: int, seed: int) -> np.ndarray:
    """n uniform draws from the simplex, shape (n, 4), reproducible by seed."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((n, 4))
    return e / e.sum(axis=1, keepdims=True)


def ratio_box(state: StationaryState, A: list[list]) -> RatioBox | None:
    """A wide box that proves every start in it flows to ``state``, a vertex
    or edge-interior state; None if no box of the search does.  ``A`` is the
    payoff matrix as ``model.payoff_rows`` gives it.

    The reference R is the support strategy with the larger share, and
    u_k = x_k / x_R.  Then d/dt log u_k = pi_k - pi_R = x_R L_k(u), where
    L_k(u) = sum_j (A_kj - A_Rj) u_j with u_R = 1 is affine
    (Hofbauer & Sigmund 1998, ch. 7).  The box holds u_k in [0, hi_k] for
    each strategy off the support and, for an edge state, the other support
    strategy's ratio within [lo_k, hi_k] around its value u* at the state.
    It certifies when, at every corner, each off-support L_k is negative, and
    the in-support L is negative on the upper face and positive on the lower
    face, each by a relative margin.  An affine function keeps its corner
    signs over a whole face, so the box is forward-invariant, the
    off-support ratios decay exponentially, and the omega-limit is the one
    rest point of the edge inside the box.

    Every bound is a power of two: hi_k = 2**e off the support, and
    lo_k = u*(1 - 2**e), hi_k = u*(1 + 2**e) on it, for e from -30 up to
    30, -1 and 0 in turn.  The lower face stays at u*/2 or above, because
    the face x_S = 0 is invariant and flows elsewhere.  The search starts
    from the widest uniform box, every bound at one exponent, and then
    raises each bound's exponent in turn as far as the box still certifies,
    until no bound moves.  Along one bound every corner condition, an affine
    rate less a margin times a convex size, is concave, so the bound's
    values that certify form an interval around the start, and each raise
    is a bisection.
    """
    support = [STRATEGIES.index(s) for s in state.support]
    x = state.location.as_tuple()
    ref = max(support, key=lambda k: x[k])
    lo, hi = [0.0] * 4, [0.0] * 4
    lo[ref] = hi[ref] = 1.0
    faces = (lo, hi)
    # each movable bound (k, face: 0 lower, 1 upper) with its largest exponent
    tops = {}
    for k in range(4):
        if k in support and k != ref:
            tops[k, 0], tops[k, 1] = -1, 0
        elif k != ref:
            tops[k, 1] = _WIDEST

    def put(k: int, face: int, e: int) -> None:
        t = 2.0 ** e
        if k not in support:
            hi[k] = t
        else:
            faces[face][k] = x[k] / x[ref] * ((1.0 - t) if face == 0 else (1.0 + t))

    def fits(k: int, face: int, e: int) -> bool:
        # move bound (k, face) to exponent e, and back if the box fails
        old = faces[face][k]
        put(k, face, e)
        if _certifies(A, ref, support, lo, hi):
            return True
        faces[face][k] = old
        return False

    # the uniform box: tau = 2**e for every bound, widest first
    for e in range(min(0, *tops.values()), _NARROWEST - 1, -1):
        for key in tops:
            put(*key, e)
        if _certifies(A, ref, support, lo, hi):
            break
    else:
        return None
    exps = dict.fromkeys(tops, e)
    moved = True
    while moved:
        moved = False
        for key, top in tops.items():
            good, bad = exps[key], top + 1  # the box fits at good, not at bad
            while bad - good > 1:
                mid = (good + bad) // 2
                good, bad = (mid, bad) if fits(*key, mid) else (good, mid)
            if good != exps[key]:
                exps[key], moved = good, True
    return RatioBox(ref, tuple(lo), tuple(hi))


def _certifies(A: list[list], ref: int, support: list[int], lo: list, hi: list) -> bool:
    """The sign conditions of ``ratio_box`` at every corner of the box."""
    others = [k for k in range(4) if k != ref]
    for corner in itertools.product(*((lo[k], hi[k]) for k in others)):
        u = [1.0] * 4
        for k, v in zip(others, corner):
            u[k] = v
        for k in others:
            terms = [(A[k][j] - A[ref][j]) * u[j] for j in range(4)]
            # the ratio must rise on the lower face of an in-support share
            # and fall everywhere else
            sign = 1.0 if k in support and u[k] == lo[k] else -1.0
            if sign * sum(terms) <= _MARGIN * sum(abs(v) for v in terms):
                return False
    return True


def attractor_boxes(attractors: Sequence[StationaryState],
                    p: Params) -> list[tuple[StationaryState, RatioBox]]:
    """Each of ``attractors`` that admits a ratio box, paired with its box,
    each in-support bound one ulp inward: a bound times x_R rounds by at most
    half an ulp, so ``_box_of`` then admits only shares in the certified box
    exactly.  A bound off the support, a power of two, scales exactly."""
    A = payoff_rows(p)
    return [(a, _inward(box)) for a in attractors if (box := ratio_box(a, A)) is not None]


def _inward(box: RatioBox) -> RatioBox:
    inner = [k != box.ref and box.lo[k] > 0.0 for k in range(4)]  # in-support bounds
    return box._replace(
        lo=tuple(math.nextafter(v, math.inf) if m else v for v, m in zip(box.lo, inner)),
        hi=tuple(math.nextafter(v, 0.0) if m else v for v, m in zip(box.hi, inner)))


def label_runs(
    finals, boxed: Sequence[tuple[StationaryState, RatioBox]],
) -> list[StationaryState | None]:
    """Name the global attractor each finished run reached, or None.

    ``finals`` holds the runs' end states, four floats each.  A run is
    labelled by the attractor of the first of ``boxed`` whose box holds its
    end state (``_box_of``), which proves where the flow goes from there,
    and is unresolved (None) in no box, whatever its verdict.
    """
    boxes = [box for _, box in boxed]
    return [boxed[i][0] if (i := _box_of(y, boxes)) >= 0 else None for y in finals]


def find_attractor(
    x0: SimplexState,
    p: Params,
    max_time: float = DEFAULT_MAX_TIME,
    tol: float = DEFAULT_TOL,
):
    """Integrate from ``x0`` and name the global attractor it reached.

    Returns the StationaryState ``label_runs`` names for the run's end, or
    None when the run is unresolved: it ended in no ratio box.
    """
    attractors = classify_global(p, tol).global_attractors
    traj = integrate(x0, p, max_time)
    return label_runs([traj.final_state.as_tuple()], attractor_boxes(attractors, p))[0]


def estimate_basins(
    p: Params,
    n: int,
    seed: int = 42,
    max_time: float = DEFAULT_MAX_TIME,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
) -> BasinReport:
    """Estimate the attraction basin of each global attractor.

    All samples run in one batch.  A sample that enters the ratio box of an
    attractor (``ratio_box``) stops there and is labelled by that box; every
    other sample runs to rest in no box.  So each is labelled as
    ``find_attractor`` labels a run from the same start with the same
    ``max_time``; "unresolved" counts the samples that ended in no ratio
    box.  Every global attractor is listed, one without a box with count 0.
    ``max_time`` must be positive and finite (ValueError otherwise).
    ``jobs`` is accepted and ignored: the batch runs in this process.
    """
    check_max_time(max_time)
    attractors = classify_global(p, tol).global_attractors
    boxed = attractor_boxes(attractors, p)
    *_, owner = _integrate_rows(sample_simplex(n, seed), p, max_time,
                                [box for _, box in boxed])

    counts = dict.fromkeys([a.label for a in attractors] + ["unresolved"], 0)
    labels = [a.label for a, _ in boxed] + ["unresolved"]  # owner -1 reads the last
    for i in owner.tolist():
        counts[labels[i]] += 1
    return BasinReport(
        sample_count=n,
        seed=seed,
        sampling=SAMPLING,
        counts=tuple(counts.items()),
    )
