#!/usr/bin/env python3
"""Noise study: run the benchmark the way the driver does, then print NOISE.md.

    python3 benchmark/noise.py run --sets 3 > runs.jsonl        (from the repo root, ~20 min per set)
    python3 benchmark/noise.py report runs.jsonl > benchmark/NOISE.md

One set is one run of every workload at each of --seeds consecutive seeds,
with the command and run length BENCHMARK.json fixes. `run` prints one JSON
object per run. `report` gives, for every end-to-end metric of every
workload, each set's median, each set's spread (interquartile range of the
set's values as a share of their median, quartiles as
statistics.quantiles(n=4) gives them), and the largest shift between two
sets' medians in the metric's worse direction, then every run's op_p50_us in
the order run. A spread above the bound, or a shift above the bound, makes
`report` exit 1: that is what the driver rejects a benchmark for.
"""
import argparse
import json
import platform
import statistics
import subprocess
import sys


def run_sets(spec, sets, seeds):
    for s in range(sets):
        for seed in seeds:
            for w in spec["workloads"]:
                print(f"set {s + 1} seed {seed} {w['name']}", file=sys.stderr)
                out = subprocess.run(
                    spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    check=True, capture_output=True, text=True).stdout
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w['name']} seed {seed}: incorrect run: {result}")
                print(json.dumps({"set": s, "seed": seed, "workload": w["name"],
                                  "metrics": {k: m["value"] for k, m in result["metrics"].items()}}), flush=True)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def report(spec, path):
    # data[set][workload][metric] = one value per seed
    data, seeds = {}, set()
    for line in open(path):
        r = json.loads(line)
        seeds.add(r["seed"])
        for name, v in r["metrics"].items():
            data.setdefault(r["set"], {}).setdefault(r["workload"], {}).setdefault(name, []).append(v)
    sets = sorted(data)

    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True).stdout.strip()
    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    print("# Noise study\n")
    print(f"{len(sets)} sets x seeds {min(seeds)}..{max(seeds)} x {len(spec['workloads'])} workloads, "
          f"`{' '.join(spec['command'])}`, {spec['run_seconds']} s per run. Box: {nproc} CPUs, "
          f"{platform.machine()}, {go}; parent commit {commit or 'unknown'}.\n")
    print("Spread = IQR / median of one set's values (over seeds). Shift = largest worsening of the median "
          "from one set to another, as a share of the better one. Both must stay within the bound; the aim "
          "is a spread under a third of it.\n")

    failed = False
    for w in (w["name"] for w in spec["workloads"]):
        print(f"## {w}\n")
        print("| metric | " + " | ".join(f"median {s + 1}" for s in sets) +
              " | " + " | ".join(f"spread {s + 1}" for s in sets) + " | shift | bound | worst/bound |")
        print("|---|" + "---:|" * (2 * len(sets) + 3))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(data[s][w][name]) for s in sets]
            spreads = [spread(data[s][w][name]) for s in sets]
            best = max(meds) if m["better"] == "higher" else min(meds)
            worst = min(meds) if m["better"] == "higher" else max(meds)
            shift = abs(worst - best) / best
            gated = spreads if name != "setup_s" else []  # the driver does not gate set-up's spread
            ratio = max(gated + [shift]) / bound
            failed = failed or ratio > 1
            print(f"| `{name}` | " + " | ".join(f"{v:.6g}" for v in meds) + " | " +
                  " | ".join(f"{100 * v:.2f}%" for v in spreads) +
                  f" | {100 * shift:.2f}% | {100 * bound:g}% | {ratio:.2f} |")
        print()

    # Runs happen in seed order within a set, so a row read left to right is
    # a time series: a slow stretch that spans every workload at the same
    # seeds is the box's weather, not the seeds.
    print("## op_p50_us of every run, in the order run\n")
    print("| workload | set | " + " | ".join(f"seed {seed}" for seed in sorted(seeds)) + " |")
    print("|---|---:|" + "---:|" * len(seeds))
    for w in (w["name"] for w in spec["workloads"]):
        for s in sets:
            print(f"| {w} | {s + 1} | " + " | ".join(f"{v:.0f}" for v in data[s][w]["op_p50_us"]) + " |")
    print()
    sys.exit(1 if failed else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--sets", type=int, default=2)
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    sub.add_parser("report").add_argument("runs")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    if args.mode == "run":
        run_sets(spec, args.sets, range(args.first_seed, args.first_seed + args.seeds))
    else:
        report(spec, args.runs)


if __name__ == "__main__":
    main()
