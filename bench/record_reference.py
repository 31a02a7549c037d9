"""Record the `oracle` rows of misclass.csv that the sweep workloads check against.

The oracle classifier uses the true parameters, so its rows depend only on the
data path (graph sampling, scoring, aggregation, soft_classify), never on an
estimator; they are recorded from oracle-only sweeps.  The committed file was
recorded at the commit that introduced the benchmark.  Rerun this only for a
change that is meant to alter those rows, and say so in that change.

    python3 bench/record_reference.py
"""

import json
import sys
import tempfile
from dataclasses import replace

import run


RECORDED_SEEDS = 1000   # master seeds 0..999 for workloads that take the seed


def main() -> int:
    sg = run.import_package()
    from workloads import REFERENCE_PATH, WORKLOADS, Sweep, oracle_rows

    table = {}
    (run.BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
        for name, workload in WORKLOADS.items():
            if not isinstance(workload, Sweep):
                continue
            seeds = ([workload.fixed_master_seed] if workload.fixed_master_seed is not None
                     else range(RECORDED_SEEDS))
            rows = {}
            for seed in seeds:
                config = replace(workload.config, master_seed=seed, estimators=("oracle",))
                paths = sg.emit_outputs(sg.run_sweep(config), tmp)
                with open(paths["misclass"]) as fh:
                    rows[str(seed)] = oracle_rows(fh.read())
            table[name] = rows
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
