#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 e2ebench/steadiness.py --runs 10 --first-seed 1 --out e2ebench/steadiness/set1.json

Run it from the repository root.  For every workload in BENCHMARK.json it
runs the benchmark command --runs times (seeds first-seed, first-seed+1,
...), and records per metric the ten values, their median and quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound.  Exits 1 when a run fails or a spread exceeds its
bound, and 2 when every spread is within its bound but one is not below a
third of it, the aim for a steady benchmark.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", help="write the record here (JSON)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    record = {"command": bench["command"], "run_seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    within, steady = True, True
    for workload in workloads:
        values = {name: [] for name in bounds}
        stamp = None
        for seed in seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                return 1
            for line in lines:
                if line.startswith("# stamp "):
                    stamp = json.loads(line[len("# stamp "):])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s "
                  + " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        stamp.pop("seed", None)
        rows = {}
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            in_bound = spread <= bounds[name]
            third = spread < bounds[name] / 3
            within, steady = within and in_bound, steady and third
            rows[name] = {"values": v, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "within_bound": in_bound,
                          "below_third_of_bound": third}
            flag = "" if third else "  above a third of its bound" if in_bound else "  OUT OF BOUND"
            print(f"  {workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
        record["workloads"][workload] = {"stamp": stamp, "metrics": rows}

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if steady else 2 if within else 1


if __name__ == "__main__":
    sys.exit(main())
