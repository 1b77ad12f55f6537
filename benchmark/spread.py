#!/usr/bin/env python3
"""Steadiness check for the benchmark BENCHMARK.json names.

Runs the benchmark's command once per seed on every workload and prints, for
each end-to-end metric, the median over the seeds and the distance between the
first and third quartile as a share of that median, beside the metric's bound.
A spread above a third of the bound is flagged: the benchmark is only useful
while its own runs agree far more closely than the changes it has to judge.

    python3 benchmark/spread.py                 # seeds 1..10, every workload
    python3 benchmark/spread.py --seeds 11 20 --workload spread-stat --trace 1
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", nargs=2, type=int, default=[1, 10], metavar=("FIRST", "LAST"))
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--dump", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    runs = {}
    flagged = 0
    for name in names:
        rows = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            if p.returncode != 0:
                sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}")
            rows.append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"# {name} seed {seed}: {took:.1f} s, {res['attempted']} ops", file=sys.stderr)
        runs[name] = rows
        print(f"{name}")
        for d in defs:
            vals = [r[d["name"]] for r in rows]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            note = ""
            if "bound" in d:
                note = f"bound {d['bound']:.3f}"
                if d["name"] != "setup_s" and spread > d["bound"] / 3:
                    note += "  <-- above a third of the bound"
                    flagged += 1
            same = "  (identical on every run)" if len(set(vals)) == 1 and len(vals) > 1 else ""
            print(f"  {d['name']:<34} median {med:>14.6g} {d['unit']:<10} spread {spread:7.4f}  {note}{same}")
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(runs, f, indent=1)
    print(f"{flagged} metric/workload pairs above a third of their bound")


if __name__ == "__main__":
    main()
