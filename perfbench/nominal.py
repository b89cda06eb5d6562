"""Write nominal.json: the reference copy's wall-clock seconds per op and
per set-up at the nominal host speed, as medians over run records.

    python3 perfbench/nominal.py perfbench/out/*-trace0.json

run.py reports every time in reference seconds: each op's
library/reference ratio times the op's nominal seconds here.  The figures
only fix the scale; changing them rescales every time metric, so they are
written once, when the benchmark is defined, and kept.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def main(paths) -> int:
    ops = defaultdict(lambda: defaultdict(list))
    setup = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        workload = record["workload"]
        for p in record["passes"]:
            for name, u in zip(p["names"], p["reference_seconds"]):
                ops[workload][name].append(u)
        setup[workload] += [ref for _, ref in record["setup_pairs"]]
    nominal = {
        "ops": {w: {name: round(statistics.median(us), 5) for name, us in by_op.items()}
                for w, by_op in sorted(ops.items())},
        "setup": {w: round(statistics.median(xs), 4) for w, xs in sorted(setup.items())},
    }
    out = Path(__file__).resolve().parent / "nominal.json"
    out.write_text(json.dumps(nominal, indent=1) + "\n")
    print(f"wrote {out} from {len(paths)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
