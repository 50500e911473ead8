#!/usr/bin/env bash
# Runs the installed socgame console script on the canonical parameter sets
# and compares its output with the goldens byte for byte.  The tests call
# cli.main() in process; this checks the entry point a user runs.
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
socgame equilibria --params "$a" | cmp - "$g/equilibria_A.json"
socgame sweep --params "$a" --sweep beta:-3:2:11 | cmp - "$g/sweep_A_beta.csv"
socgame basins --params "$b" --samples 200 --seed 5 | cmp - "$g/basins_B.json"
socgame basins --params "$b" --samples 1000 --seed 18 | cmp - "$g/basins_B_seed18.json"
socgame simulate --params "$a" --x0 0,0,0.26,0.74 --out "$out/s" | tail -n 1 | grep -qx P
cmp "$out/s/trajectory.csv" "$g/simulate_A.csv"
socgame portrait --params "$a" --out "$out/p"
cmp "$out/p/portrait.svg" "$g/portrait_A.svg"
cmp "$out/p/portrait_trajectories.csv" "$g/portrait_A_trajectories.csv"
echo "console script matches the goldens"
