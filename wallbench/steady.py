#!/usr/bin/env python3
"""Steadiness check for the wall-clock benchmark.

Runs every workload of BENCHMARK.json N times, alternating the workload
order between rounds and giving each run its own seed, then prints for
each end-to-end metric its median, quartiles, min-max and the quartile
spread as a share of the median against the metric's bound. Each run's
host record (nproc, CPU model, revision, /proc/stat ticks) is kept, so a
contended run (high steal) can be picked out.

Run from the repository root:

    python3 wallbench/steady.py --runs 10 [--workloads fleet approval]
                                [--seed 1] [--trace 0] [--out steady.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next((json.loads(l.split(":", 1)[1]) for l in lines
                 if l.startswith("wallbench-host:")), {})
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, host, result, proc.stderr


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write every run's record here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    records = {w: [] for w in names}
    ok = True
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = args.seed + i
            code, host, result, err = run_once(
                bench["command"], w, seed, bench["run_seconds"], args.trace)
            records[w].append({"seed": seed, "exit": code, "host": host,
                               "result": result})
            steal = host.get("ticks_steal", "?")
            print(f"round {i} {w:>17} seed {seed}: exit {code}, "
                  f"correct {result.get('correct')}, steal {steal}, "
                  f"wall {host.get('wall_s', 0):.1f}s", flush=True)
            if code != 0:
                ok = False
                sys.stderr.write(err[-2000:])

    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=1)

    any_host = next((r["host"] for rs in records.values() for r in rs if r["host"]), {})
    print(f"\nhost: nproc {any_host.get('nproc')}, {any_host.get('cpu')}, "
          f"rev {any_host.get('rev')}")
    for w in names:
        runs = [r for r in records[w] if r["result"].get("metrics")]
        if not runs:
            print(f"\n{w}: no results")
            ok = False
            continue
        shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        print(f"\n{w}  ({len(runs)} runs; failed share {shares})")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'min':>14} {'max':>14} {'spread':>7} {'bound':>6}")
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["result"]["metrics"]]
            if len(vals) < 2:
                print(f"  {m['name']:<28} missing")
                ok = False
                continue
            q1, med, q3, s = spread(vals)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
            print(f"  {m['name']:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{min(vals):>14.6g} {max(vals):>14.6g} {s:>7.3f} "
                  f"{bound if bound is not None else '':>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
