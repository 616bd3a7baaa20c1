"""Set-up and first-iteration timing in a fresh interpreter.

``run.py`` starts this script several times per run.  It times
importing ``repro`` plus building one workload's inputs (``setup_s``),
then one cold iteration with empty lazy caches (``first_wall_s``), and
prints both, with the calibration time around that iteration and its
output digest, as one JSON line::

    python3 perfbench/setup_probe.py --workload smoke_grid --seed 1 \
        --workdir .perfbench_work/tmp
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import harness  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    harness.use_source_tree()
    import workloads

    workload = workloads.make(args.workload, args.seed, args.workdir)
    workload.cleanup(workload.prepare())
    setup_s = time.perf_counter() - START
    first = harness.run_iteration(workload)
    print(json.dumps({"setup_s": setup_s, "first_wall_s": first.wall_s,
                      "calibration_s": first.calibration_s,
                      "digest": first.digest}))


if __name__ == "__main__":
    main()
