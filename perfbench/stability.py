#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

Run from the repository root:

    python3 perfbench/stability.py --seeds 1-10 --seconds 10
    python3 perfbench/stability.py --workloads kv-skew-adaptive --seeds 1-5

For each workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound BENCHMARK.json fixes. It re-runs seeds in new processes and checks
that every simulated metric and the latency digest repeat exactly (the
determinism guard): the first seed once, or every seed with --sets 2,
which also checks that the second set's median of each metric is not
worse than the first's by more than the metric's bound. It runs one
held-out seed that no size was tuned on, which must also be correct. It
exits 1 if any run is incorrect, any simulated result differs at one
seed, any spread other than setup_s's reaches its bound, or a second
set's median falls outside it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HELD_OUT_SEED = 918273


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l.split("digest=")[1] for l in lines if l.startswith("sim: ")), "")
    for l in lines:
        if l.startswith("FAIL"):
            print(f"  {workload} seed {seed}: {l}")
    return result, digest


def sim_fingerprint(result, digest):
    m = result["metrics"]
    return {k: v["value"] for k, v in m.items() if k.startswith("sim_")}, digest


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--sets", type=int, default=1, help="measure every seed this many times")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    ok = True

    for w in names:
        medians = []
        prints = {}  # seed -> simulated fingerprint of its first run
        same = True
        for n in range(args.sets):
            values = {}
            for s in seeds:
                result, digest = run(bench, w, s, seconds)
                ok &= result["correct"] and result["failed"] == 0
                fp = sim_fingerprint(result, digest)
                if prints.setdefault(s, fp) != fp:
                    ok = same = False
                    print(f"  DETERMINISM: seed {s} simulated differently in set {n + 1}:\n"
                          f"    {prints[s]}\n    {fp}")
                for k, v in result["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                print(f"{w} set {n + 1} seed {s}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())), flush=True)
            print(f"\n{w} set {n + 1}: {len(seeds)} seeds, {seconds} s each")
            print(f"  {'metric':24} {'median':>14} {'spread':>8} {'bound':>6}")
            meds = {}
            for k in sorted(values):
                vs = values[k]
                med = meds[k] = statistics.median(vs)
                spread = 0.0
                if len(vs) >= 2 and med:
                    q = statistics.quantiles(vs, n=4)
                    spread = (q[2] - q[0]) / abs(med)
                b = bounds.get(k)
                flag = ""
                # setup_s is exempt from the spread gate: set-up time is
                # host time, and its bound applies only to its median
                # from one set to the next.
                if b is not None and k != "setup_s" and spread >= b:
                    flag, ok = "  OVER BOUND", False
                elif b is not None and spread >= b / 3:
                    flag = "  above bound/3"
                print(f"  {k:24} {med:14.6g} {spread:8.4f} {b if b is not None else '-':>6}{flag}")
            medians.append(meds)
        for n in range(1, len(medians)):
            for k, b in bounds.items():
                a, c = medians[0].get(k), medians[n].get(k)
                if not a:
                    continue
                worse = (c - a) / abs(a) if better[k] == "lower" else (a - c) / abs(a)
                flag = ""
                if worse > b:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"  set {n + 1} vs 1: {k:24} {a:14.6g} -> {c:14.6g} worse by {worse:+.4f} (bound {b}){flag}")

        if args.sets == 1:
            again = sim_fingerprint(*run(bench, w, seeds[0], seconds))
            if again != prints[seeds[0]]:
                ok = same = False
                print(f"  DETERMINISM: seed {seeds[0]} simulated differently on a second run:\n"
                      f"    {prints[seeds[0]]}\n    {again}")
        print("  determinism: " + ("every repeated seed simulated identically" if same else "FAILED"))
        held, digest = run(bench, w, HELD_OUT_SEED, seconds)
        good = held["correct"] and held["failed"] == 0
        ok &= good
        sims = sim_fingerprint(held, digest)[0]
        print(f"  held-out seed {HELD_OUT_SEED}: correct={good} " +
              " ".join(f"{k}={v:.6g}" for k, v in sorted(sims.items())))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    main()
