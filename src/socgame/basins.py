"""Monte Carlo estimation of basins of attraction.

Starts are drawn uniformly from the simplex (flat Dirichlet: four standard
exponentials, normalized), integrated to rest, and matched against the
classified global attractors.  All samples are integrated together as one
numpy batch in this process.  Fractions come with binomial standard errors;
runs that fail to resolve to any classified attractor are tallied separately
rather than discarded, so the fractions always account for every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import classify_global
from .dynamics import IntegratorConfig, _integrate_rows, integrate, match_attractor
from .model import DEFAULT_TOL, Params, SimplexState

SAMPLING = "uniform-simplex"


@dataclass(frozen=True)
class BasinReport:
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


def find_attractor(
    x0: SimplexState,
    p: Params,
    cfg: IntegratorConfig | None = None,
    match_tol: float = 1e-6,
    tol: float = DEFAULT_TOL,
    attractors: Sequence | None = None,
):
    """Integrate from ``x0`` and name the global attractor it reached.

    Returns the matching StationaryState (max-norm distance below
    ``match_tol``) or None when the run did not resolve to any classified
    attractor.  Pass ``attractors`` to reuse a classification across many
    starts.
    """
    if attractors is None:
        attractors = classify_global(p, tol).global_attractors
    traj = integrate(x0, p, cfg)
    if traj.verdict == "step-failure":
        return None
    return match_attractor(traj.final_state, attractors, match_tol)


def estimate_basins(
    p: Params,
    n: int,
    seed: int = 42,
    cfg: IntegratorConfig | None = None,
    match_tol: float = 1e-6,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
) -> BasinReport:
    """Estimate the attraction basin of each global attractor.

    Every sample runs to rest in one batch, and each is labelled exactly as
    ``find_attractor`` would label it: a step failure is unresolved, any
    other end state is matched.  ``jobs`` is accepted and ignored: the batch
    runs in this process.
    """
    attractors = classify_global(p, tol).global_attractors
    cfg = cfg if cfg is not None else IntegratorConfig()
    finals, verdicts, _ = _integrate_rows(sample_simplex(n, seed), p, cfg)

    counts = {a.label: 0 for a in attractors}
    counts["unresolved"] = 0
    for row, verdict in zip(finals.tolist(), verdicts):
        hit = (None if verdict == "step-failure"
               else match_attractor(SimplexState(*row), attractors, match_tol))
        counts[hit.label if hit is not None else "unresolved"] += 1
    return BasinReport(
        sample_count=n,
        seed=seed,
        sampling=SAMPLING,
        counts=tuple(counts.items()),
    )
