"""Planar-net phase portrait of the simplex boundary.

The four boundary faces of the 3-simplex are triangles; unfolding them flat
gives one readable drawing: the no-isolation face O-H-P in the middle and the
three isolation-corner faces folded outward over the shared edges, each with
its own copy of the N corner.  Every face is plane-invariant under the flow,
so per-face trajectories tell the whole boundary story.

Stationary states are marked by stability: filled disc = attractive within
the face, open disc = repulsive, half-filled = saddle.  Trajectory seeds are
a small interior lattice per face plus short outsets along the unstable
direction of each face-interior saddle and each edge saddle stable along
its edge, the eigenvector of the inventory's exact linearisation in closed
form.  An edge saddle unstable along its edge gets none, so on set A,
whose edge saddles all are, no outset is drawn.
"""

from __future__ import annotations

import math
from pathlib import Path

from .classify import _Inventory, face_states
from .dynamics import states_at
from .model import DEFAULT_TOL, FACE_ACTIVE, FACES, STRATEGIES, Params, SimplexState, decimal

_H = math.sqrt(3.0) / 2.0

# planar positions of each face's corners after unfolding
_CORNERS: dict[str, dict[str, tuple[float, float]]] = {
    "S_N": {"O": (0.0, 0.0), "H": (1.0, 0.0), "P": (0.5, _H)},
    "S_P": {"O": (0.0, 0.0), "H": (1.0, 0.0), "N": (0.5, -_H)},
    "S_H": {"O": (0.0, 0.0), "P": (0.5, _H), "N": (-0.5, _H)},
    "S_O": {"H": (1.0, 0.0), "P": (0.5, _H), "N": (1.5, _H)},
}

_LATTICE_M = 6  # interior lattice density: shares (i,j,k)/m, i+j+k=m, all >= 1
_OUTSET = 5e-3  # nudge along a saddle's unstable eigendirection
_TIMES = tuple(k / 4 for k in range(241))  # 0 to 60 in steps of 0.25


def _face_xy(face: str, state: SimplexState) -> tuple[float, float]:
    x = 0.0
    y = 0.0
    shares = dict(zip(STRATEGIES, state.as_tuple()))
    for name, (cx, cy) in _CORNERS[face].items():
        x += shares[name] * cx
        y += shares[name] * cy
    return (x, y)


def _lattice_starts(face: str) -> list[SimplexState]:
    out = []
    m = _LATTICE_M
    for i in range(1, m - 1):
        for j in range(1, m - i):
            xs = [0.0] * 4
            for a, n in zip(FACE_ACTIVE[face], (i, j, m - i - j)):
                xs[a] = n / m
            out.append(SimplexState(*xs))
    return out


def _saddle_outsets(p: Params, face: str, states) -> list[SimplexState]:
    """Starts nudged both ways along each saddle's unstable direction, kept
    where they land inside the face.

    An edge saddle that is unstable along its edge is skipped: its unstable
    manifold is the edge itself, and its separatrix is the stable manifold,
    which forward runs cannot trace.  The direction is the eigenvector of
    ``(tr + sqrt(tr**2 - 4 det)) / 2`` in the face chart of the inventory's
    linearisation, from the row of the chart less it with larger entries,
    taken in floats only after its ints are divided by the largest.  A det
    that is not negative (the float toward N typed the saddle) seeds none.
    """
    active = FACE_ACTIVE[face]
    inv = None
    out: list[SimplexState] = []
    for s in states:
        if s.stability != "saddle" or s.kind == "vertex":
            continue
        if any(d.startswith("along ") and sign == "+" for d, sign in s.eigen_signs):
            continue
        inv = inv or _Inventory(p)
        m = inv.linearisation(s.label, active)
        (a, b), (c, d) = [[m[i][j] - m[i][2] for j in (0, 1)] for i in (0, 1)]
        det = a * d - b * c
        if det >= 0:
            continue
        k = max(abs(a), abs(b), abs(c), abs(d))
        lam = ((a + d) / k + math.sqrt(((a + d) ** 2 - 4 * det) / k ** 2)) / 2.0
        a, b, c, d = a / k, b / k, c / k, d / k
        v = max((b, lam - a), (lam - d, c), key=lambda v: math.hypot(*v))
        norm = math.hypot(*v)
        xs = s.location.as_tuple()
        for sgn in (1.0, -1.0):
            cand = [0.0] * 4
            cand[active[0]] = xs[active[0]] + sgn * _OUTSET * (v[0] / norm)
            cand[active[1]] = xs[active[1]] + sgn * _OUTSET * (v[1] / norm)
            cand[active[2]] = 1.0 - cand[active[0]] - cand[active[1]]
            if min(cand[i] for i in active) <= 0.0:
                continue
            out.append(SimplexState(*cand))
    return out


def _marker_svg(x: float, y: float, stability: str, r: float = 5.0) -> str:
    common = f'cx="{x:.2f}" cy="{y:.2f}" r="{r}"'
    if stability == "attractive":
        return f'<circle {common} fill="#16324f" stroke="#16324f" stroke-width="1.4"/>'
    if stability == "repulsive":
        return f'<circle {common} fill="#ffffff" stroke="#16324f" stroke-width="1.4"/>'
    # saddle: open disc with the upper half filled
    half = (
        f'<path d="M {x - r:.2f} {y:.2f} A {r} {r} 0 0 1 {x + r:.2f} {y:.2f} Z" '
        f'fill="#16324f"/>'
    )
    ring = f'<circle {common} fill="none" stroke="#16324f" stroke-width="1.4"/>'
    return half + ring


def render_portrait(
    p: Params,
    out_dir: str | Path,
    tol: float = DEFAULT_TOL,
) -> tuple[Path, Path]:
    """Write portrait.svg and portrait_trajectories.csv under ``out_dir``.

    Raises before writing anything, and before creating ``out_dir``, if the
    parameters are inadmissible or degenerate: ``face_states`` raises as
    ``model.ValidationReport.require`` does.
    """
    all_states = {face: face_states(p, face, tol) for face in FACES}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trajectories: list[tuple[str, int, list[SimplexState]]] = []
    for face in FACES:
        starts = _lattice_starts(face) + _saddle_outsets(p, face, all_states[face])
        for k, x0 in enumerate(starts):
            path = states_at(x0, p, _TIMES)
            trajectories.append((face, k, path))

    csv_path = out_dir / "portrait_trajectories.csv"
    with open(csv_path, "w") as fh:
        fh.write("face,traj,t,x1,x2,x3,x4\n")
        for face, k, path in trajectories:
            for t, s in zip(_TIMES, path):
                row = ",".join(decimal(v) for v in (t,) + s.as_tuple())
                fh.write(f"{face},{k},{row}\n")

    # world box: x in [-0.5, 1.5], y in [-H, H], plus label margin
    margin = 0.16
    scale = 360.0
    x_min, x_max = -0.5 - margin, 1.5 + margin
    y_min, y_max = -_H - margin, _H + margin
    width = (x_max - x_min) * scale
    height = (y_max - y_min) * scale

    def px(pt: tuple[float, float]) -> tuple[float, float]:
        return ((pt[0] - x_min) * scale, (y_max - pt[1]) * scale)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}" '
        f'font-family="Helvetica, Arial, sans-serif">'
    )
    parts.append(f'<rect width="{width:.2f}" height="{height:.2f}" fill="#ffffff"/>')

    for face in FACES:
        pts = [px(c) for c in _CORNERS[face].values()]
        pstr = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
        parts.append(
            f'<polygon points="{pstr}" fill="#f4f6f8" stroke="#5b6570" stroke-width="1.3"/>'
        )
        cx = sum(a for a, _ in pts) / 3.0
        cy = sum(b for _, b in pts) / 3.0
        parts.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" fill="#9aa4ad" font-size="15" '
            f'text-anchor="middle">{face}</text>'
        )

    for face, _, path in trajectories:
        pts = [px(_face_xy(face, s)) for s in path]
        pstr = " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)
        parts.append(
            f'<polyline points="{pstr}" fill="none" stroke="#4878a8" '
            f'stroke-width="1.1" stroke-opacity="0.55"/>'
        )

    for face in FACES:
        for s in all_states[face]:
            mx, my = px(_face_xy(face, s.location))
            parts.append(_marker_svg(mx, my, s.stability))

    # corner labels: place each strategy letter just outside its corner copies
    seen: set[tuple[str, str]] = set()
    centroid_all = px((0.5, 0.0))
    for face in FACES:
        for name, c in _CORNERS[face].items():
            key = (name, f"{c[0]:.3f},{c[1]:.3f}")
            if key in seen:
                continue
            seen.add(key)
            cx, cy = px(c)
            dx = cx - centroid_all[0]
            dy = cy - centroid_all[1]
            n = math.hypot(dx, dy) or 1.0
            lx = cx + 16.0 * dx / n
            ly = cy + 16.0 * dy / n
            parts.append(
                f'<text x="{lx:.2f}" y="{ly + 5.0:.2f}" fill="#1a1a1a" font-size="17" '
                f'font-weight="bold" text-anchor="middle">{name}</text>'
            )

    # legend
    lx, ly = 14.0, 20.0
    legend = (("attractive", "attractive"), ("repulsive", "repulsive"), ("saddle", "saddle"))
    for i, (style, label) in enumerate(legend):
        y = ly + 22.0 * i
        parts.append(_marker_svg(lx, y, style))
        parts.append(
            f'<text x="{lx + 14.0:.2f}" y="{y + 4.5:.2f}" fill="#1a1a1a" '
            f'font-size="13">{label}</text>'
        )

    parts.append("</svg>")
    svg_path = out_dir / "portrait.svg"
    svg_path.write_text("\n".join(parts) + "\n")
    return svg_path, csv_path
