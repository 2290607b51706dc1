"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload dense_lasso --seeds 1-10 [--sets 2]

Runs ``perfbench/run.py --trace 0`` once per seed (and the whole seed list
once per set, one after the other), then prints for every registered
end-to-end metric the median of each set, its inter-quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), and, with two
sets, how much worse the second median is than the first as a share of it.
Each figure is printed next to the metric's bound from BENCHMARK.json. The
raw results go to ``.perfbench/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    log = ROOT / ".perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    sets: list[list[dict]] = []
    for k in range(args.sets):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"set {k} seed {seed}: incorrect result\n{proc.stderr}")
            results.append(result)
            with log.open("a") as fh:
                fh.write(json.dumps({"set": k, "seed": seed, **result}) + "\n")
        sets.append(results)

    print(f"{args.workload}: {len(args.seeds)} seeds x {args.sets} set(s)")
    print(f"{'metric':<14s} {'bound':>6s} " + " ".join(
        f"{'median' + str(k):>11s} {'spread' + str(k):>8s}" for k in range(args.sets)
    ) + ("  2nd-worse" if args.sets == 2 else ""))
    for m in metrics:
        row = f"{m['name']:<14s} {m['bound']:>6.3f} "
        medians = []
        for results in sets:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            medians.append(statistics.median(values))
            row += f"{medians[-1]:>11.5g} {spread(values):>8.3f} "
        if args.sets == 2:
            sign = 1.0 if m["better"] == "lower" else -1.0
            row += f" {sign * (medians[1] - medians[0]) / medians[0]:>9.3f}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
