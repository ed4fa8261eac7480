"""Alternating benchmark pairs of two source trees, with the gain rules.

    python tests/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seed S \\
        --pairs 10 [--seconds 55] [--trace 0] [--json runs.json]

Each pair runs `bench/run.py` of each tree from that tree's root, one run
at a time; the parent goes first in even pairs and the change in odd
ones, so a drift of the machine falls on both sides.  For every metric
of the last JSON line the script prints each side's first quartile,
median and third quartile and the pairs the change wins, by the
direction `BENCHMARK.json` of the change root gives.  For each
end-to-end metric it then says whether two gain rules hold: the change
wins at least nine in ten pairs, and its median beats the parent's by
more than the parent's interquartile range.  It also gives the
no-regression verdict under that metric's relative `bound`:

- "unresolved" when the parent's interquartile range over its median
  is wider than the bound and not every change run beats every parent
  run: the runs spread too widely to tell;
- otherwise "worse beyond bound" when the change's median is worse than
  the parent's by more than the bound times the parent's median;
- otherwise "within bound".

`--json` writes the summary and
every run (result, wall time and log line) for a `BENCH_*.json` record;
if a run gives no result, it writes the runs alone and exits 1.
Nothing is written under either tree's `bench/`; `bench/run.py` keeps its
own work files under `.bench_work/`.  The file name keeps pytest from
collecting this script.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


def run_once(root, workload, seed, seconds, trace):
    """(return code, last-line JSON result or None, wall seconds, log line)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    log = lines[-2] if len(lines) > 1 else proc.stderr.strip()[-500:]
    return proc.returncode, result, wall, log


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def verdict(parent, change, lower, bound):
    """The no-regression verdict of one metric's runs; see the module doc."""
    p, cm = quartiles(parent), quartiles(change)["median"]
    pm = p["median"]
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if p["q3"] - p["q1"] > bound * abs(pm) and not beats_all:
        return "unresolved"
    worse = (cm - pm) if lower else (pm - cm)
    return "worse beyond bound" if worse > bound * abs(pm) else "within bound"


def summarise(runs, pairs, better, bounds):
    """Per metric: both sides' quartiles, the change's wins and ties, and
    for the metrics `bounds` names whether the nine-in-ten and IQR rules
    hold and the verdict under that bound.  `better` maps a metric to
    "lower" or "higher"."""
    by = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    names = [k for k in by["parent"][0]["result"]["metrics"]]
    out = {}
    for name in names:
        v = {side: [r["result"]["metrics"][name]["value"] for r in by[side]]
             for side in by}
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(v["parent"], v["change"]))
        ties = sum(c == p for p, c in zip(v["parent"], v["change"]))
        row = {"parent": quartiles(v["parent"]), "change": quartiles(v["change"]),
               "change_better_pairs": wins, "tied_pairs": ties, "pairs": pairs}
        pm, cm = row["parent"]["median"], row["change"]["median"]
        row["ratio_of_medians"] = cm / pm if pm else None
        if name in bounds:
            gain = (pm - cm) if lower else (cm - pm)
            row["nine_in_ten"] = wins >= math.ceil(0.9 * pairs)
            row["beyond_parent_iqr"] = gain > row["parent"]["q3"] - row["parent"]["q1"]
            row["bound"] = bounds[name]
            row["verdict"] = verdict(v["parent"], v["change"], lower, bounds[name])
        out[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path, help="write the summary and the runs here")
    args = ap.parse_args(argv)
    spec = json.loads((args.change_root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}

    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    runs = []
    for pair in range(args.pairs):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for k, side in enumerate(sides):
            rc, result, wall, log = run_once(roots[side], args.workload, args.seed,
                                             args.seconds, args.trace)
            runs.append({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                         "seconds": args.seconds, "side": side, "pair": pair,
                         "ran_first": k == 0, "index": len(runs), "returncode": rc,
                         "result": result, "wall": wall, "log": log})
            print(f"pair {pair} {side}: rc {rc}, {log}", file=sys.stderr, flush=True)
    bad = [r for r in runs if r["result"] is None]
    if bad:
        print(f"{len(bad)} runs gave no result", file=sys.stderr)
        if args.json:
            args.json.write_text(json.dumps({"runs": runs}, indent=1))
        return 1
    summary = summarise(runs, args.pairs, better, bounds)
    for name, row in summary.items():
        p, c = row["parent"], row["change"]
        rules = ""
        if "nine_in_ten" in row:
            rules = (f"  nine-in-ten {'holds' if row['nine_in_ten'] else 'fails'},"
                     f" IQR rule {'holds' if row['beyond_parent_iqr'] else 'fails'};"
                     f" {row['verdict']} ({row['bound']:g})")
        print(f"{name:24s} parent {p['q1']:.4g} / {p['median']:.4g} / {p['q3']:.4g}"
              f"  change {c['q1']:.4g} / {c['median']:.4g} / {c['q3']:.4g}"
              f"  change better {row['change_better_pairs']} of {args.pairs}"
              f" ({better.get(name, 'lower')} is better){rules}")
    correct = all(r["result"]["correct"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"correct in every run: {correct}; failed operations: {failed}")
    if args.json:
        args.json.write_text(json.dumps({
            "summary": {args.workload: {**summary, "correct_all_runs": correct,
                                        "failed_operations": failed}},
            "runs": runs,
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
