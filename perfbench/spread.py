#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (tracing off) and prints, per metric, the median of the values
and the distance between their first and third quartiles as a share of
the median, next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads rack,churn] [--json out.json]

Exits 1 if a run fails, reports incorrect output, or a metric other than
setup_s spreads by more than a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="write the medians and spreads to this file")
    args = ap.parse_args()

    ok, summary = True, {}
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        summary[wl] = {}
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok = ok and steady
            summary[wl][m["name"]] = {"median": med, "iqr_share": spread, "bound": m["bound"], "values": xs}
            print(f"{wl:10s} {m['name']:12s} median {med:12.6g} {m['unit']:4s} spread {100 * spread:6.2f}% "
                  f"bound {100 * m['bound']:.0f}%{'' if steady else '  UNSTEADY'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
