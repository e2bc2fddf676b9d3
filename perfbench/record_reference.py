"""Write reference.json from the untraced grid records under out/.

    python3 perfbench/run.py --workload grid-narrow --seed 0 --trace 0
    python3 perfbench/run.py --workload grid-wide --seed 0 --trace 0
    python3 perfbench/record_reference.py

Only the solves of the pinned grid cells are kept (the enumeration check is
drawn from the run seed).  Run it on the commit whose answers are to be the
reference; later runs on the same base fail on a differing optimum.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
KEYS = ("status", "objective", "nodes", "iterations", "pivots", "cuts")


def main():
    base, out = None, {}
    for name in ("grid-narrow", "grid-wide"):
        paths = sorted((HERE / "out").glob(f"{name}-seed*-trace0.json"))
        if not paths:
            sys.exit(f"no untraced record of {name} under {HERE / 'out'}")
        record = json.loads(paths[0].read_text())
        if base not in (None, record["base"]):
            sys.exit("the records were made on different bases")
        base = record["base"]
        out[name] = {row["label"]: {k: row[k] for k in KEYS}
                     for row in record["solves"] if not row["label"].startswith("enum/")}
    (HERE / "reference.json").write_text(
        json.dumps({"base": base, "workloads": out}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
