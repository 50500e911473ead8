"""Monte Carlo estimation of basins of attraction.

Starts are drawn uniformly from the simplex (flat Dirichlet: four standard
exponentials, normalized), integrated to rest, and matched against the
classified global attractors.  Fractions come with binomial standard errors;
runs that fail to resolve to any classified attractor are tallied separately
rather than discarded, so the fractions always account for every sample.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import classify_global
from .dynamics import IntegratorConfig, integrate, match_attractor
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


def _resolve_chunk(args) -> list[str]:
    rows, p, cfg, match_tol, attractors = args
    out = []
    for row in rows:
        hit = find_attractor(SimplexState(*row), p, cfg, match_tol, attractors=attractors)
        out.append(hit.label if hit is not None else "unresolved")
    return out


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

    ``jobs > 1`` fans the integrations out over a process pool; the tally is
    identical to a serial run because the samples are fixed up front by the
    seed and results are recombined in order.
    """
    report = classify_global(p, tol)
    attractors = report.global_attractors
    samples = sample_simplex(n, seed)
    cfg = cfg if cfg is not None else IntegratorConfig()

    labels: list[str] = []
    if jobs <= 1:
        labels = _resolve_chunk((samples.tolist(), p, cfg, match_tol, attractors))
    else:
        rows = samples.tolist()
        chunk = max(1, math.ceil(len(rows) / (jobs * 4)))
        tasks = [
            (rows[i:i + chunk], p, cfg, match_tol, attractors)
            for i in range(0, len(rows), chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_resolve_chunk, tasks):
                labels.extend(part)

    order = [a.label for a in attractors] + ["unresolved"]
    counts = {k: 0 for k in order}
    for lab in labels:
        counts[lab] += 1
    return BasinReport(
        sample_count=n,
        seed=seed,
        sampling=SAMPLING,
        counts=tuple((k, counts[k]) for k in order),
    )
