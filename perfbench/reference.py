"""Reference outputs the timed runs are checked against.

``reference.json`` maps workload -> dataset seed -> the outputs of that
dataset resolved on the serial backend: recall, precision, recall-curve
area, virtual time, a digest of the found pairs and, for the stream, the
comparison count.  Every optimisation must leave them bit-identical.

Extend it from the repository root with::

    python3 perfbench/reference.py --seeds 0-15

Datasets already in the file are skipped; delete the file to record anew.

Runs whose seed has no recorded reference instead compare their first
dataset against a serial pass made after timing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def load() -> Dict[str, Dict[str, Any]]:
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def lookup(table, workload: str, dataset_seed: int) -> Optional[Dict[str, Any]]:
    return table.get(workload, {}).get(str(dataset_seed))


def serial_outputs(workload, dataset, dataset_seed: int) -> Dict[str, Any]:
    from workloads import finish, one_pass

    done = finish(one_pass(workload, dataset, dataset_seed, backend="serial"), dataset)
    outputs = dict(done["outputs"])
    outputs.pop("consistent")
    return outputs


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-15"))
    parser.add_argument("--workload", action="append",
                        help="workload to record (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS, dataset_seeds, make_dataset

    table = load()
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        entities, count = workload.size("full")
        for seed in args.seeds:
            for dataset_seed in dataset_seeds(seed, count):
                if lookup(table, name, dataset_seed) is not None:
                    continue
                dataset = make_dataset(workload, entities, dataset_seed)
                table.setdefault(name, {})[str(dataset_seed)] = serial_outputs(
                    workload, dataset, dataset_seed
                )
            print(f"{name} seed {seed} recorded", flush=True)
            with open(REFERENCE_PATH, "w") as handle:
                json.dump(table, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
