"""Record the reference output digests the benchmark checks against.

Runs one iteration of every workload for each seed in a range and
writes ``reference_digests.json`` beside this file.  Rerun it only when
a change is *meant* to alter the program's outputs::

    python3 perfbench/record_digests.py --seeds 64
"""

from __future__ import annotations

import argparse
import json

import harness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64,
                        help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args()

    harness.use_source_tree()
    import workloads

    table = {}
    with harness.work_dir("digests-") as workdir:
        for name in workloads.names():
            table[name] = {}
            for seed in range(args.seeds):
                workload = workloads.make(name, seed, workdir)
                table[name][str(seed)] = harness.run_iteration(workload).digest
            print(f"{name}: {args.seeds} seeds", flush=True)
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
