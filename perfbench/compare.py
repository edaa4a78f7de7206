"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the captured stdout of run.py runs, one run per
file.  Runs are paired in file-name order, so name them by the order in
which they ran, alternating the side that runs first.  For every
workload and metric this prints each side's median and quartiles, the
change's median as a share of the base's, how many pairs the change
wins, and a verdict against BENCHMARK.json: "gain" needs nine tenths of
the pairs won and a median difference larger than the base's quartile
spread; "regression" is a median worse by more than the metric's bound.

Refuses (exit 2) to compare runs made with different kernel backends,
Python versions or processor counts: the compiled kernel alone moves
end-to-end time by 1.2-1.3x.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONTEXT_KEYS = ("backend", "python", "nproc")


def load_runs(directory: str) -> list[dict]:
    """The runs in `directory`.  A file without a result (a run that
    exited early) is reported on stderr and left out."""
    runs = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line.startswith("{")]
        if len(lines) < 2:
            print(f"warning: {os.path.join(directory, name)} holds no result", file=sys.stderr)
            continue
        context = json.loads(lines[-2])["context"]
        runs.append({"file": name, "context": context, "result": json.loads(lines[-1])})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def specs() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load_runs(argv[0]), load_runs(argv[1])
    seen = {tuple(r["context"].get(k) for k in CONTEXT_KEYS) for r in base + change}
    if len(seen) != 1:
        print(f"error: runs differ in {'/'.join(CONTEXT_KEYS)}: {sorted(map(str, seen))}", file=sys.stderr)
        return 2
    metric_specs = specs()
    workloads = sorted({(r["context"]["workload"], r["context"]["trace"]) for r in base})
    for workload, trace in workloads:
        side = lambda runs: [r for r in runs if (r["context"]["workload"], r["context"]["trace"]) == (workload, trace)]
        b, c = side(base), side(change)
        if not c:
            continue
        failed = sum(r["result"]["failed"] for r in c) - sum(r["result"]["failed"] for r in b)
        print(f"{workload} (trace {trace}): {len(b)} base runs, {len(c)} change runs, "
              f"{failed:+d} failed operations")
        names = set.intersection(*(set(r["result"]["metrics"]) for r in b + c))
        for name in [n for n in b[0]["result"]["metrics"] if n in names]:
            spec = metric_specs.get(name, {"better": "lower"})
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            cv = [r["result"]["metrics"][name]["value"] for r in c]
            bq, cq = quartiles(bv), quartiles(cv)
            sign = 1 if spec["better"] == "lower" else -1
            pairs = list(zip(bv, cv))
            wins = sum(sign * (y - x) < 0 for x, y in pairs)
            verdict = ""
            if bq[1]:
                worse = sign * (cq[1] - bq[1]) / abs(bq[1])
                if wins >= 0.9 * len(pairs) and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
                    verdict = "gain"
                elif "bound" in spec and worse > spec["bound"]:
                    verdict = "regression"
            share = f"{cq[1] / bq[1]:.3f}" if bq[1] else "n/a"
            print(f"  {name:42s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  x{share}  "
                  f"wins {wins}/{len(pairs)} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
