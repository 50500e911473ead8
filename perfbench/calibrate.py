"""Reference CPU speed, sampled between the benchmark's CLI invocations.

On a shared 2-core cloud host, the speed one core gives a single Python
process was seen to change by up to a factor of two, in bursts of seconds and
in drifts over tens of minutes. CPU time moved with wall time, so the slowdown
is not stolen time that process accounting could subtract.
``sample()`` times a fixed kernel that does what the program does, in three
equal parts: a fixed-step RK4 on tuples of floats (as ``dynamics`` steps),
the same on small numpy vectors, and 4 x 4 ``eigvals`` and ``solve`` (as
``classify`` does). Timed against interleaved CLI invocations on such a
host, this mix tracked both the ``basins`` and the ``sweep`` wall times
well, and a numpy-vector kernel alone tracked them worst. The kernel shares no code with the program, so a change to
``src/`` cannot move it. The run's mean kernel time, against
``REFERENCE_S``, converts the run's wall times into reference seconds (see
``to_reference``).
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time, in seconds, that defines reference speed: roughly the mean on
# a 2-core shared x86-64 host with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.2
STEPS = 1500  # RK4 steps of each integration part
SOLVES = 2000  # eigvals + solve pairs of the linear-algebra part

_A = np.array([[0.0, 1.0, -1.0, 0.5],
               [-1.0, 0.0, 1.0, 0.2],
               [1.0, -1.0, 0.0, 0.3],
               [0.1, 0.4, -0.2, 0.0]])
_A_ROWS = tuple(tuple(row) for row in _A.tolist())
_X0 = (0.4, 0.3, 0.2, 0.1)
_H = 0.01


def _rhs_tuple(x):
    p = [sum(a * b for a, b in zip(row, x)) for row in _A_ROWS]
    pbar = sum(a * b for a, b in zip(x, p))
    return tuple(xi * (pi - pbar) for xi, pi in zip(x, p))


def _rk4_tuples() -> float:
    """Fixed-step RK4 of a four-strategy replicator flow, renormalised."""
    x, h = _X0, _H
    for _ in range(STEPS):
        k1 = _rhs_tuple(x)
        k2 = _rhs_tuple(tuple(a + 0.5 * h * b for a, b in zip(x, k1)))
        k3 = _rhs_tuple(tuple(a + 0.5 * h * b for a, b in zip(x, k2)))
        k4 = _rhs_tuple(tuple(a + h * b for a, b in zip(x, k3)))
        x = tuple(a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e)
                  for a, b, c, d, e in zip(x, k1, k2, k3, k4))
        total = sum(x)
        x = tuple(a / total for a in x)
    return x[0]


def _rhs_numpy(x):
    p = _A @ x
    return x * (p - float(x @ p))


def _rk4_numpy() -> float:
    """The same flow on numpy vectors."""
    x, h = np.array(_X0), _H
    for _ in range(STEPS):
        k1 = _rhs_numpy(x)
        k2 = _rhs_numpy(x + 0.5 * h * k1)
        k3 = _rhs_numpy(x + 0.5 * h * k2)
        k4 = _rhs_numpy(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x = x / x.sum()
    return float(x[0])


def _linalg() -> float:
    """Eigenvalues and one linear solve of a 4 x 4 matrix, repeated."""
    m = _A + np.eye(4)
    rhs = np.ones(4)
    acc = 0.0
    for i in range(SOLVES):
        m[0, 0] = 1.0 + 1e-9 * i
        acc += float(np.linalg.eigvals(m).real.max()) + float(np.linalg.solve(m, rhs)[0])
    return acc


def sample() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    _rk4_tuples()
    _rk4_numpy()
    _linalg()
    return time.perf_counter() - t0


def to_reference(samples: list[float]) -> float:
    """Factor that turns this run's wall seconds into reference seconds."""
    return REFERENCE_S * len(samples) / sum(samples)
