"""Record the seeded error-column digests of finished benchmark runs.

    python3 perfbench/run.py --workload all --seed 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/record_digests.py

Reads every result in ``.perfbench/results`` whose gate passed, for the
current configuration of its workload, and writes
``perfbench/digests.json``: workload -> subcommand seed -> digest.  Later
runs report whether their digests still match; the report is information
only, the gate does not use it.
"""
import json
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> None:
    table = {}
    for path in sorted((HERE.parent / ".perfbench" / "results").glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        # skip failed runs and runs of an older workload configuration
        if (not result["correct"]
                or tuple(result["argv"]) != WORKLOADS[result["workload"]].argv):
            continue
        seeds = table.setdefault(result["workload"], {})
        for call in result["calls"]:
            seeds[str(call["seed"])] = call["digest"]
    out = HERE / "digests.json"
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"{sum(map(len, table.values()))} digests -> {out}")


if __name__ == "__main__":
    main()
