"""Write references.json: the pinned outputs of the first reps of every workload.

    python3 bench/pin.py

Seed 1 is the development seed, used while a change is written; seed 2 is
held out, to check a claim on a seed the change never saw.  Pin from a
commit whose outputs are known good; every later run at these seeds must
reproduce them exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
from workloads import PINNED_REPS, WORKLOADS, rep_seed

SEEDS = {"1": "development", "2": "held out"}


def main():
    _, qp = run.import_program()
    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {}
        for seed in SEEDS:
            recs = []
            for rep in range(PINNED_REPS):
                campaign_seed = rep_seed(int(seed), rep)
                output = workload.run(qp, campaign_seed)
                failed, problems = workload.failed_shots(qp, output, campaign_seed)
                if failed:
                    sys.exit(f"{name} seed {seed} rep {rep} fails its own checks: {problems}")
                recs.append(workload.record(output, campaign_seed))
            pinned[name][seed] = recs
            print(f"pinned {name} seed {seed}: {PINNED_REPS} reps")
    doc = {
        "git_sha": run.git_sha(),
        "seeds": SEEDS,
        "pinned_reps": PINNED_REPS,
        "workloads": pinned,
    }
    path = Path(run.BENCH_DIR) / "references.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
