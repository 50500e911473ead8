"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: the basins counts at the recorded seed, the
basin fractions of a large independent sample (the band for any other seed),
and the sha256 of the sweep's stdout. Run it only on a commit whose outputs
are known good; a later change that alters these outputs is a behaviour
change, which this file makes visible.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

RECORDED_SEED = 1
REFERENCE_SEED = 20160128
REFERENCE_SAMPLES = 20000


def main() -> int:
    common.require_source()
    from socgame import estimate_basins

    env = common.environment()
    common.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.OUT) as tmp:
        tmp = Path(tmp)
        basins = common.run_cli(common.basins_args(RECORDED_SEED), tmp)
        sweep = common.run_cli(common.sweep_args(), tmp)
    if basins.code or sweep.code:
        print(basins.stderr + sweep.stderr, file=sys.stderr)
        return 1
    big = estimate_basins(common.load_params(common.PARAMS_B), REFERENCE_SAMPLES,
                          seed=REFERENCE_SEED, jobs=2)
    doc = {
        "recorded_at": {"git_commit": env["git_commit"], "source_sha256": env["source_sha256"]},
        "basins": {
            "samples": common.BASIN_SAMPLES,
            "recorded_seed": RECORDED_SEED,
            "recorded_counts": {k: v["count"]
                                for k, v in json.loads(basins.stdout)["basins"].items()},
            "reference_seed": REFERENCE_SEED,
            "reference_samples": REFERENCE_SAMPLES,
            "reference_fractions": {k: v for k, v in big.fractions.items()
                                    if k != "unresolved"},
        },
        "sweep": {
            "axes": list(common.SWEEP_AXES),
            "stdout_sha256": hashlib.sha256(sweep.stdout.encode()).hexdigest(),
        },
    }
    common.REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
