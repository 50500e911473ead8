"""Self-check: two traced runs on one seed must give identical exact counts.

    python3 perfbench/selfcheck.py [--seed N]

Exits 0 when both traced runs are correct and every count in
traced.EXACT_COUNTS is equal between them, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from traced import EXACT_COUNTS  # noqa: E402


def _traced(seed: int) -> dict:
    res = subprocess.run([sys.executable, str(common.BENCH / "run.py"), "--workload", "basins",
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode != 0:
        sys.exit(f"traced run failed ({res.returncode}):\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    seed = ap.parse_args().seed
    first, second = _traced(seed), _traced(seed)
    ok = first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        ok = ok and a == b
        print(f"{name:34s} {a:>12} {b:>12} {'same' if a == b else 'DIFFERENT'}")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
