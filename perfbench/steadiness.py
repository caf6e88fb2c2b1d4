#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --workload ingest --seeds 1-10 [--seconds 20]

Runs `perfbench/run.py` once per seed (untraced), then prints, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartiles as a share of the median (Python's
`statistics.quantiles(values, n=4)`), beside the bound in BENCHMARK.json.
With `--json FILE` the per-run results are also written out, and
`--compare FILE` prints how far this set's medians moved from those of an
earlier set. Run it from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    host = [line for line in out.stdout.splitlines() if line.startswith("host:")]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, host[0] if host else ""


def medians(runs):
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json")
    parser.add_argument("--compare")
    args = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        result, host = run(args.workload, seed, seconds)
        runs.append(result)
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {figures} | {host}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "runs": runs}, f)

    earlier = None
    if args.compare:
        earlier = medians(json.load(open(args.compare))["runs"])
    ok = all(r["correct"] for r in runs)
    for name, values in medians(runs).items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        bound = bounds[name]["bound"]
        line = f"{args.workload} {name}: median {med:.6g} spread {spread:.3f} (bound {bound})"
        if name != "setup_s" and spread > bound:
            ok = False
            line += " SPREAD OVER BOUND"
        if earlier is not None:
            before = statistics.median(earlier[name])
            worse = (med - before) / before
            if bounds[name]["better"] == "higher":
                worse = -worse
            line += f"; vs earlier median {before:.6g}: worse by {worse:+.3f}"
            if worse > bound:
                ok = False
                line += " OVER BOUND"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
