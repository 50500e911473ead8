"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Each test also prints a short summary with the measured numbers.
"""

import csv
import io
import json
import sys

import numpy as np
import pytest

from conftest import SET_A, SET_B, SET_C, draw_params
from oracles import coexistence_payoff, from_lv, lv_states_at, numeric_jacobian, to_lv
from socgame import (
    IntegratorConfig,
    SimplexState,
    classify_edge,
    classify_global,
    face_states,
    full_interior_state,
    integrate,
    match_attractor,
    payoff_vector,
    sample_simplex,
    states_at,
)
from socgame.cli import main as cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out


def write_params(tmp_path, p, name):
    f = tmp_path / f"{name}.params"
    f.write_text("".join(
        f"{k} = {getattr(p, k)}\n"
        for k in ("alpha", "beta", "gamma", "delta", "epsilon", "eta")))
    return str(f)


def signs(eigs):
    return sorted("-" if e < 0 else "+" for e in eigs)


def test_01_closed_form_stationary_payoffs():
    pi = payoff_vector(SimplexState(0, 1 / 3, 2 / 3, 0), SET_A)
    assert abs(pi[1] - 1.0) < 1e-12
    assert abs(pi[2] - 1.0) < 1e-12
    pi = payoff_vector(SimplexState(1 / 3, 2 / 9, 4 / 9, 0), SET_A)
    assert abs(pi[0] - 2 / 3) < 1e-12
    assert abs(pi[1] - 2 / 3) < 1e-12
    assert abs(pi[2] - 2 / 3) < 1e-12
    print("criterion 1: both coexistence payoff identities hold within 1e-12")


def test_02_orthant_chart_conjugacy():
    rng = np.random.default_rng(101)
    times = np.linspace(0.0, 20.0, 41)
    worst = 0.0
    for p in (SET_A, SET_B):
        done = 0
        while done < 50:
            x = rng.exponential(size=4)
            x /= x.sum()
            if x[0] < 0.05:
                continue
            done += 1
            x0 = SimplexState(*x)
            direct = states_at(x0, p, times)
            mapped = [from_lv(u) for u in lv_states_at(to_lv(x0), p, times)]
            dev = max(max(abs(a - b) for a, b in zip(d.as_tuple(), m.as_tuple()))
                      for d, m in zip(direct, mapped))
            worst = max(worst, dev)
            assert dev < 1e-6
    print(f"criterion 2: 100 paired runs agree pointwise, worst dev {worst:.2e}")


def test_03_eigen_sign_oracle():
    rng = np.random.default_rng(102)
    checked = 0
    for branch in ("B-plus", "B-minus"):
        for _ in range(50):
            p = draw_params(rng, branch)
            for st in face_states(p, "S_N"):
                if st.kind not in ("vertex", "edge-interior"):
                    continue
                eigs = numeric_jacobian(st.location, p, system="replicator-face")
                assert signs(eigs) == sorted(s for _, s in st.eigen_signs)
                checked += 1
    full = full_interior_state(SET_A)
    eigs = numeric_jacobian(to_lv(full.location), SET_A, system="lv-3d")
    w_bar = to_lv(full.location).w
    assert min(abs(e - SET_A.eta * w_bar) for e in eigs) < 1e-4
    print(f"criterion 3: {checked} stationary states match the numeric "
          f"Jacobian signs; interior eigenvalue eta*w = {SET_A.eta * w_bar:.6f}")


def test_04_regime_goldens(capsys, tmp_path):
    cases = {
        "A": (SET_A, ["2a", "3a", "4a", "5a"], ["O", "H", "P", "N"]),
        "B": (SET_B, ["2e", "3e", "4a", "5c"], ["O", "N", "H+P"]),
        "C": (SET_C, ["2c", "3d", "4a", "5c"], ["O", "P", "N"]),
    }
    for name, (p, figures, labels) in cases.items():
        code, out = run_cli(capsys, "equilibria", "--params",
                            write_params(tmp_path, p, name))
        assert code == 0
        doc = json.loads(out)
        assert [e["figure"] for e in doc["edges"]] == figures
        got = {a["label"]: a["location"] for a in doc["global"]["attractors"]}
        assert sorted(got) == sorted(labels)
        if name == "B":
            hp = got["H+P"]
            assert max(abs(a - b) for a, b in
                       zip(hp, (0, 1 / 3, 2 / 3, 0))) < 1e-12
    print("criterion 4: figure labels and attractor sets reproduced "
          "exactly for all three parameter sets")


def test_05_simulation_classification_agreement():
    rates = []
    for seed, p in ((201, SET_A), (202, SET_B), (203, SET_C)):
        report = classify_global(p)
        attractors = report.global_attractors
        attractor_labels = {a.label for a in attractors}
        inventory = []
        for face in ("S_N", "S_O", "S_H", "S_P"):
            inventory.extend(face_states(p, face))
        full = full_interior_state(p)
        if full is not None:
            inventory.append(full)
        others = [s for s in inventory if s.label not in attractor_labels]

        matched = 0
        for x in sample_simplex(500, seed):
            final = integrate(SimplexState(*x), p).final_state
            if match_attractor(final, attractors) is not None:
                matched += 1
            else:
                stray = match_attractor(final, others)
                assert stray is None, (
                    f"start settled on non-attractor {stray and stray.label}")
        rates.append(matched / 500)
        assert matched >= 495  # 99% of 500
    print("criterion 5: match rates "
          + ", ".join(f"{r:.1%}" for r in rates)
          + " with zero hits outside the classified sets")


def test_06_welfare_inequalities():
    rng = np.random.default_rng(103)
    qualifying = 0
    total = 0
    while qualifying < 1000:
        total += 1
        assert total < 100000
        p = draw_params(rng, "B-minus")
        v = coexistence_payoff(p)
        fig_so = classify_edge(p, "S_O").figure
        assert (fig_so == "3e") == (v > p.eta)
        hp_attracts = classify_edge(p, "S_N").figure == "2e" and fig_so == "3e"
        if not hp_attracts:
            continue
        qualifying += 1
        assert p.beta < v < p.epsilon
        assert v > p.eta
    print(f"criterion 6: sandwich held on {qualifying} coexistence draws "
          f"(of {total} sampled); condition-(9) flag agreed on every draw")


def test_07_trap_dominance():
    rng = np.random.default_rng(104)
    for i in range(200):
        p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
        report = classify_global(p)
        pay = dict(report.welfare.payoffs)
        assert "N" in pay
        for label, v in pay.items():
            if label != "N":
                assert v > p.eta
    print("criterion 7: isolation attracts and pays strictly least on "
          "200/200 validated draws")


def test_08_simplex_and_edge_invariants():
    rng = np.random.default_rng(105)
    for i in range(1000):
        p = draw_params(rng, "B-plus" if i % 2 else "B-minus")
        x = rng.exponential(size=4)
        zeroed = ()
        if i % 3 == 0:
            zeroed = tuple(rng.choice(4, size=rng.integers(1, 3), replace=False))
            for j in zeroed:
                x[j] = 0.0
        x /= x.sum()
        traj = integrate(SimplexState(*x), p)
        _, xs = traj.as_arrays()
        assert np.all(xs >= 0.0)
        assert np.max(np.abs(xs.sum(axis=1) - 1.0)) < 1e-9
        for j in zeroed:
            assert np.all(xs[:, j] == 0.0)
    print("criterion 8: 1000 integrations kept the simplex sum, "
          "nonnegativity and exact-zero invariants")


def test_09_threshold_reproduction():
    lo = integrate(SimplexState(0, 0, 0.24, 0.76), SET_A)
    hi = integrate(SimplexState(0, 0, 0.26, 0.74), SET_A)
    assert lo.verdict == hi.verdict == "converged"
    assert max(abs(a - b) for a, b in
               zip(lo.final_state.as_tuple(), (0, 0, 0, 1))) < 1e-8
    assert max(abs(a - b) for a, b in
               zip(hi.final_state.as_tuple(), (0, 0, 1, 0))) < 1e-8
    print("criterion 9: starts at 0.24 and 0.26 split across the "
          "analytic threshold 0.25 to N and P")


def test_10_sweep_boundary_detection(capsys, tmp_path):
    params_a = write_params(tmp_path, SET_A, "A")
    boundary = SET_A.alpha * SET_A.epsilon / (SET_A.alpha + SET_A.epsilon)
    assert boundary == 1.0

    # on Set A itself the 4a regime must end between the grid rows around 1
    code, out = run_cli(capsys, "sweep", "--params", params_a,
                        "--sweep", "eta:0.1:1.4:14")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    figs = [(float(r[0]), r[6]) for r in rows]
    last_4a = max(eta for eta, f in figs if f == "4a")
    after = min(eta for eta, f in figs if eta > last_4a)
    assert last_4a < boundary <= after + 1e-12
    assert all(f != "4a" for eta, f in figs if eta > last_4a)

    # raising beta keeps the grid admissible on both sides, so the same
    # boundary shows as a literal 4a -> 4b flip between consecutive rows
    code, out = run_cli(capsys, "sweep", "--params", params_a,
                        "--set", "beta=1.5", "--sweep", "eta:0.05:1.45:15")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    figs = [(float(r[0]), r[6]) for r in rows]
    flips = [(a, b) for (ea, a), (eb, b) in zip(figs, figs[1:])
             if a == "4a" and b == "4b" and ea < boundary < eb]
    assert len(flips) == 1
    print(f"criterion 10: 4a regime ends between rows {last_4a:.2f} and "
          f"{after:.2f}; offset grid shows the 4a/4b flip across eta = 1")
