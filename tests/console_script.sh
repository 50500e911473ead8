#!/usr/bin/env bash
# Runs the installed socgame console script on the canonical parameter sets
# and compares its output with the goldens byte for byte, and its exit codes
# with theirs, and fails if `socgame check` or `socgame equilibria` imports
# any numpy module or `fractions`, or if `socgame portrait` imports
# `fractions`.  The tests call cli.main() in process; this checks the entry
# point a user runs, which calls main() with no argv.
#
#   pip install -e . && bash tests/console_script.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
a=perfbench/params/set_a.params
b=perfbench/params/set_b.params
g=tests/golden

socgame check --params "$a" | cmp - "$g/check_A.json"
# check and equilibria read one point on floats: no numpy module may be
# imported, also on set B, where the O-H edge state's payoff divides by
# alpha+beta = 0.  Nor fractions: every rest point is solved in ints
for cmd in check equilibria; do
  for params in "$a" "$b"; do
    PYTHONPROFILEIMPORTTIME=1 socgame "$cmd" --params "$params" 2> "$out/imports.txt" >/dev/null
    grep -q 'socgame\.model$' "$out/imports.txt"
    for mod in numpy fractions; do
      if grep -q "$mod" "$out/imports.txt"; then
        echo "socgame $cmd imported $mod on $params:" >&2
        grep "$mod" "$out/imports.txt" >&2
        exit 1
      fi
    done
  done
done
# portrait types each face's rest points, in ints: it imports no fractions
PYTHONPROFILEIMPORTTIME=1 socgame portrait --params "$a" --out "$out/f" 2> "$out/imports.txt" >/dev/null
grep -q 'socgame\.classify$' "$out/imports.txt"
if grep -q fractions "$out/imports.txt"; then
  echo "socgame portrait imported fractions:" >&2
  grep fractions "$out/imports.txt" >&2
  exit 1
fi
# a program run ends its own process, except under a profiler or tracer,
# which reports after main returns: cProfile must still print its table.
# python -m finds the package on the import path, not the command on PATH
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
  python -m cProfile -m socgame.cli check --params "$a" > "$out/profile.txt"
head -n "$(wc -l < "$g/check_A.json")" "$out/profile.txt" | cmp - "$g/check_A.json"
grep -q 'ncalls  *tottime  *percall  *cumtime  *percall' "$out/profile.txt"
socgame equilibria --params "$a" | cmp - "$g/equilibria_A.json"
# the welfare report gives each global attractor its state's own payoff
socgame equilibria --params "$b" | python -c '
import json, sys
g = json.load(sys.stdin)["global"]
pay = g["welfare"]["payoffs"]
assert g["attractors"] and all(a["payoff"] == pay[a["label"]] for a in g["attractors"]), g
'
# 1e-8 off beta*epsilon+gamma*delta = 0, H+P still attracts on S_N
socgame equilibria --params "$b" --set beta=-20 --set gamma=19.99999999 \
  | cmp - "$g/equilibria_near_coexistence.json"
# the error exits too: each still writes its report, and keeps its code
code=0; socgame check --params "$a" --set eta=3 > "$out/d.json" || code=$?
test "$code" -eq 2
cmp "$out/d.json" "$g/check_A_dominated.json"
code=0; socgame check --params "$a" --set gamma=2 > "$out/g.json" || code=$?
test "$code" -eq 3
cmp "$out/g.json" "$g/check_A_degenerate.json"
# a usage error exits 1 through the program run too: only basins takes --seed
code=0; socgame check --params "$a" --seed 1 >/dev/null 2>&1 || code=$?
test "$code" -eq 1
# check writes no file, so it takes no --out, and creates no directory
code=0; socgame check --params "$a" --out "$out/c" >/dev/null 2>&1 || code=$?
test "$code" -eq 1
test ! -e "$out/c"
# beta = 0 leaves only the S_N face undecided, and is a degenerate boundary
code=0; socgame check --params "$a" --set beta=0 >/dev/null || code=$?
test "$code" -eq 3
# 0 < eta <= tol is a degenerate boundary for check and portrait alike
code=0; socgame check --params "$a" --set eta=1e-10 >/dev/null || code=$?
test "$code" -eq 3
code=0; socgame portrait --params "$a" --set eta=1e-10 --out "$out/e" >/dev/null 2>&1 || code=$?
test "$code" -eq 3
# 3e-9 off epsilon = gamma the table accepts the point, and so does portrait
socgame portrait --params "$a" --set alpha=4 --set beta=-2 --set gamma=2.000000003 \
  --set epsilon=1 --set eta=0.2 --out "$out/n" >/dev/null
socgame sweep --params "$a" --sweep beta:-3:2:11 | cmp - "$g/sweep_A_beta.csv"
socgame basins --params "$b" --samples 200 --seed 5 | cmp - "$g/basins_B.json"
socgame basins --params "$b" --samples 1000 --seed 18 | cmp - "$g/basins_B_seed18.json"
socgame basins --params "$b" --samples 1000 --seed 18 --max-time 3.3 \
  | cmp - "$g/basins_B_max_time.json"
socgame simulate --params "$a" --x0 0,0,0.26,0.74 --out "$out/s" | tail -n 1 | grep -qx P
cmp "$out/s/trajectory.csv" "$g/simulate_A.csv"
socgame simulate --params "$a" --x0 0,0,0.26,0.74 --max-time 2.005 --out "$out/m" >/dev/null
cmp "$out/m/trajectory.csv" "$g/simulate_A_max_time.csv"
socgame portrait --params "$a" --out "$out/p"
cmp "$out/p/portrait.svg" "$g/portrait_A.svg"
cmp "$out/p/portrait_trajectories.csv" "$g/portrait_A_trajectories.csv"
# set A seeds no outsets; set B's saddles inside S_N and S_O seed 2 each, so
# its faces draw 12, 12, 10 and 10 runs: 40 lattice runs and 4 outsets
socgame portrait --params "$b" --out "$out/b" >/dev/null
runs=$(awk -F, 'NR > 1 && !seen[$1 FS $2]++ {n[$1]++}
                END {print n["S_N"], n["S_O"], n["S_H"], n["S_P"]}' \
           "$out/b/portrait_trajectories.csv")
test "$runs" = "12 12 10 10"
echo "console script matches the goldens"
