#!/usr/bin/env python3
"""Runs the end-to-end benchmark repeatedly and reports its spread.

    python3 bench/calibrate.py --seeds $(seq 1 10) --out bench/results/seeds-1-10.json
    python3 bench/calibrate.py --seeds 1 1 1 --compare bench/results/seed-1-x5.json --out B.json

For every workload in BENCHMARK.json (or those named with --workloads) it
runs `bash bench/run.sh` once per seed, keeps each run's result line, and
reports for every end-to-end metric the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound. With --compare it also
reports how much worse each median is than the one in an earlier output.
Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--compare")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    base = {}
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)["workloads"]

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    doc = {
        "host": host(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for w in names:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.time()
            p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            res["seed"], res["wall_s"] = seed, round(time.time() - t0, 2)
            runs.append(res)
            print(f"{w} seed {seed}: {res['wall_s']}s attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)
        summary = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m.get("bound")}
            was = base.get(w, {}).get("metrics", {}).get(m["name"])
            if was and was["median"]:
                worse = (med - was["median"]) / was["median"]
                summary[m["name"]]["worse_than_base"] = -worse if m["better"] == "higher" else worse
        doc["workloads"][w] = {"runs": runs, "metrics": summary,
                               "failed": sum(r["failed"] for r in runs)}
        for name, s in summary.items():
            bound = s["bound"]
            flag = "" if bound is None else ("ok" if s["spread"] < bound / 3 else "WIDE")
            line = (f"{w:12} {name:32} median {s['median']:12.4f} spread {100 * s['spread']:6.2f}%"
                    f" bound {'-' if bound is None else f'{100 * bound:.0f}%'} {flag}")
            if "worse_than_base" in s:
                worse = s["worse_than_base"]
                line += f" | {100 * worse:+.2f}% vs base {'ok' if bound is None or worse <= bound else 'REGRESSED'}"
            print(line)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


def host():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    go = subprocess.run(["go", "version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "go": go, "os": platform.platform()}


if __name__ == "__main__":
    sys.exit(main())
