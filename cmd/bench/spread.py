#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, as its acceptance check does.

Run from the repository root. For every workload in BENCHMARK.json, runs
the benchmark command once per seed with --trace 0 and reports, for each
end-to-end metric, the median and quartiles of the runs
(statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. A spread above a third of the
metric's bound is flagged, and so, with --against, is a median worse
than that set's median by more than the bound.

    python3 cmd/bench/spread.py --seeds 1-10 --label set1 --out cmd/bench/testdata/baseline.json
    python3 cmd/bench/spread.py --seeds 11-20 --label set2 --against set1 --out cmd/bench/testdata/baseline.json

With --out, the set is stored under its label in that JSON file, keeping
the file's other sets; --against names a set already in it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--label", default="set", help="name of this set in --out")
    ap.add_argument("--out", default="", help="JSON file to store the set in")
    ap.add_argument("--against", default="", help="set in --out whose medians this set must stay within bound of")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    seeds = parse_seeds(args.seeds)
    sets = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            sets = json.load(f)
    ref = sets[args.against]["workloads"] if args.against else {}

    result = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - t0)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            for line in lines:
                if line.startswith("# provenance ") and "host" not in result:
                    prov = json.loads(line[len("# provenance "):])
                    result["host"] = {k: prov[k] for k in ("gomaxprocs", "numcpu", "go_version", "vcs_revision")}
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect output\n{out.stderr}")
            for m in values:
                values[m].append(res["metrics"][m]["value"])
        stats = {}
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flags = [] if spread <= m["bound"] / 3 else ["TOO WIDE"]
            shift = ""
            if name in ref:
                old = ref[name]["metrics"][m["name"]]["median"]
                change = (med - old) / old if m["better"] == "lower" else (old - med) / old
                shift = f" worse by {change:7.4f}"
                if change > m["bound"]:
                    flags.append("MEDIAN SHIFTED")
            ok = ok and not flags
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            print(f"{name:14} {m['name']:14} median {med:12.6g} {m['unit']:4} "
                  f"spread {spread:7.4f} bound {m['bound']:5.2f}{shift} {' '.join(flags)}")
        print(f"{name:14} run wall: max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
        result["workloads"][name] = {"metrics": stats, "wall_s": walls}

    if args.out:
        sets[args.label] = result
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
