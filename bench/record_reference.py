"""Record ``reference.json``: each workload's headline statistic and the
SHA-256 of its terminal values for every study seed in the pool.

    python3 bench/record_reference.py

Run it only at a commit whose numbers later commits must reproduce; the file
in the repository was recorded at the seed commit.
"""

from __future__ import annotations

import json
import logging
import sys

import run


def main() -> int:
    run.import_package()
    # The fast-switching study warns on every call that its backstop share is high.
    logging.getLogger("switchsde.harness").setLevel(logging.ERROR)
    reference = {"commit": run.git_commit(), "source_sha256": run.source_digest(),
                 "pool_size": run.POOL_SIZE, "workloads": {}}
    for workload in run.WORKLOADS.values():
        cfg = run.load_config(workload)
        units = {}
        for seed in range(run.POOL_SIZE):
            result = run.run_unit(workload, cfg, seed, cfg.model, None)
            if result.error:
                raise SystemExit(f"{workload.name} seed {seed}: {result.error}")
            units[str(seed)] = {"stat": result.stat, "digest": result.digest,
                                "failed": result.failed}
        reference["workloads"][workload.name] = {
            "params": run.unit_params(cfg), "statistic": workload.statistic,
            "units": units}
        print(f"{workload.name}: {run.POOL_SIZE} units recorded", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
