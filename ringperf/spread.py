#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload, it runs the BENCHMARK.json command once per seed
(from the repository root) and prints, per metric, the median, the first
and third quartiles (as statistics.quantiles(values, n=4) gives them) and
the spread: the distance between the quartiles as a share of the median.
It checks that every run is correct and prints exactly the metrics
BENCHMARK.json names, and marks each end-to-end spread against its
bound: "ok" below a third of it, "WIDE" below it, "OVER" beyond it.

    python3 ringperf/spread.py --seeds 1-10
    python3 ringperf/spread.py --workloads lease-churn --seeds 1-5 --seconds 10
    python3 ringperf/spread.py --seeds 1-3 --trace 1 --json ledger.json

With --json it also writes every run's result and the summary to a file.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        sys.exit(f"{' '.join(cmd)}: metrics {sorted(set(result['metrics']) ^ want)} differ from BENCHMARK.json")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect run:\n{out.stdout}")
    result["lines"] = lines[:-1]
    return result


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                         "values": vals}
    return summary


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-5", help="a seed or a range lo-hi")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write the runs and summaries here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds_of(args.seeds):
            runs.append(run_once(bench, w, s, args.seconds, args.trace))
            print(f"{w} seed {s}: attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}",
                  file=sys.stderr, flush=True)
        summary = summarize(runs)
        report[w] = {"runs": runs, "summary": summary}
        print(f"== {w} ({len(runs)} seeds, {args.seconds}s, trace {args.trace})")
        for name, m in summary.items():
            spread, mark = "n/a", ""
            if m["spread"] is not None:
                spread = f"{m['spread']:.4f}"
                if name in bounds and name != "setup_s":
                    b = bounds[name]
                    mark = "ok" if m["spread"] < b / 3 else "WIDE" if m["spread"] <= b else "OVER"
            print(f"  {name:36s} median {m['median']:14.4f} {m['unit']:12s} "
                  f"q1 {m['q1']:14.4f} q3 {m['q3']:14.4f} spread {spread} {mark}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
