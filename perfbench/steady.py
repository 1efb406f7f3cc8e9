#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of runs of the same tree, compared.

Run from the root of the repository:

    python3 perfbench/steady.py [--out .bench_build/steady.json]

Each set runs every workload of BENCHMARK.json ten times, each run in its own
process, alternating workloads (paper_sweep, dense_mesh, paper_sweep,
...). The runs of a set take seeds 1000 to 1009, and both sets
use the same seeds, so a difference between the sets is the host's and not
the inputs'. The second set starts a minute after the first ends. For every
end-to-end metric it prints each set's median, quartiles and spread (the
distance between the quartiles as a share of the median), and whether the
two sets agree: each spread within the bound, the second median no worse
than the first by more than the bound, and the same share of failed
operations. Raw results go to --out as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
GAP_S = 60
SEEDS = [1000 + i for i in range(RUNS)]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=".bench_build/steady.json")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for k in range(2):
        if k:
            time.sleep(GAP_S)
        results = {w: [] for w in workloads}
        for i, seed in enumerate(SEEDS):
            for w in workloads:
                r = run_once(w, seed, seconds)
                results[w].append(r)
                vals = ", ".join(f"{n}={m['value']:.6g}" for n, m in r["metrics"].items())
                print(f"set {k + 1} run {i + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)
        sets.append(results)

    ok = True
    print()
    print(f"{'workload':12} {'metric':12} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s[w])
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in s[w]]) for s in sets]
            for k, s in enumerate(sums):
                print(f"{w:12} {name:12} {k + 1:>3} {s['median']:12.6g} {s['q1']:12.6g} "
                      f"{s['q3']:12.6g} {s['spread']:7.4f} {bound:6.3f}")
            first, second = sums[0]["median"], sums[1]["median"]
            worse = ((first - second) / first if m["better"] == "higher"
                     else (second - first) / first)
            agree = all(s["spread"] <= bound for s in sums) and worse <= bound
            ok &= agree
            print(f"{w:12} {name:12} second set worse by {worse:+.4f}: "
                  f"{'agree' if agree else 'DISAGREE'}")
        same_share = shares[0] == shares[1]
        ok &= same_share and correct
        print(f"{w:12} failed share {shares[0]:.4f} / {shares[1]:.4f}, "
              f"all correct: {correct}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(sets, indent=1))
    print("\nsets agree within the bounds" if ok else "\nsets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
