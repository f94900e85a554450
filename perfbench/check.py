#!/usr/bin/env python3
"""Checks on the benchmark itself, each built from runs of perfbench/run.py.

    python3 perfbench/check.py spread   [--workloads W,..] [--seeds 1-10]
    python3 perfbench/check.py selftest [--workloads W,..] [--seeds 1-5]
    python3 perfbench/check.py overhead [--workloads W,..] [--seeds 1]

spread    runs every workload once per seed and prints, per end-to-end
          metric, the quartile spread (Q3 - Q1) / median next to a third of
          the metric's bound. setup_s is exempt from that test.
selftest  runs each workload plain, with half again added to every handler
          call (--inject handler) and with half of each sweep's CPU time
          spun after it (--inject step), on the same seeds; prints every
          metric whose median got worse than its bound. Exits 1 unless each
          slowdown flags its target metrics (INJECTIONS) and, on every
          workload, nothing outside the metrics of the layer it slows.
overhead  runs each workload untraced and traced on the same seed and
          prints the end-to-end difference the tracing makes.

Runs go one at a time, so that they do not disturb each other.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}

# What each self-test slowdown slows. "layer": the end-to-end metrics it may
# move; "targets": the (workload, metric) pairs on which it must show.
INJECTIONS = {
    "handler": {
        "layer": {"cpu_us_per_request"},
        "targets": [("parallel_mixed", "cpu_us_per_request")],
    },
    "step": {
        "layer": {"train_cpu_s"},
        "targets": [("parallel_mixed", "train_cpu_s"),
                    ("serial_hot", "train_cpu_s")],
    },
}


def run(workload, seed, trace=False, inject="none"):
    """Returns (result, traced end-to-end or None) of one benchmark run."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]),
               "--trace", "1" if trace else "0", "--inject", inject]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run failed: %s" % " ".join(command))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced, provenance = None, {}
    for line in lines[:-1]:
        if line.startswith('{"traced_end_to_end"'):
            traced = json.loads(line)["traced_end_to_end"]
        elif line.startswith('{"provenance"'):
            provenance = json.loads(line)
    # How much CPU other guests took during the run.
    result["steal"] = provenance.get("provenance", {}).get(
        "host_steal_share", "?")
    if not result["correct"] or result["failed"]:
        print("  %s seed %d: correct=%s failed=%d %s" % (
            workload, seed, result["correct"], result["failed"],
            provenance.get("check_failures", [])))
    return result, traced


def values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative: better)."""
    if BOUNDS[metric]["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(workloads, seeds):
    ok = True
    for w in workloads:
        results = [run(w, s)[0] for s in seeds]
        print("%s (%d seeds)" % (w, len(seeds)))
        for name, m in BOUNDS.items():
            v = values(results, name)
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = "" if name == "setup_s" or spread < limit else "  <-- too wide"
            ok &= bool(flag == "")
            print("  %-20s median %-14.6g spread %6.3f  (bound/3 %.3f)%s"
                  % (name, med, spread, limit, flag))
            print("      " + " ".join("%.4g" % x for x in v))
        print("  host_steal_share     " + " ".join(
            r.get("steal", "?") for r in results))
    return 0 if ok else 1


def cmd_selftest(workloads, seeds):
    ok = True
    variants = ["none"] + list(INJECTIONS)
    for w in workloads:
        # Per seed, the plain run and both slowdowns back to back, in an
        # order that rotates with the seed, so that a drift of the host's
        # speed falls on every variant alike.
        results = {v: [] for v in variants}
        for i, s in enumerate(seeds):
            k = i % len(variants)
            for v in variants[k:] + variants[:k]:
                results[v].append(run(w, s, inject=v)[0])
        base = results["none"]
        for inject, expect in INJECTIONS.items():
            hurt = results[inject]
            flagged = {}
            for name, m in BOUNDS.items():
                share = worse_by(name, statistics.median(values(base, name)),
                                 statistics.median(values(hurt, name)))
                if share > m["bound"]:
                    flagged[name] = share
            missed = [m for tw, m in expect["targets"]
                      if tw == w and m in BOUNDS and m not in flagged]
            stray = sorted(set(flagged) - expect["layer"])
            ok &= not missed and not stray
            print("%-15s inject %-8s flagged: %s%s%s" % (
                w, inject,
                ", ".join("%s %+.0f%%" % (n, 100 * v)
                          for n, v in flagged.items()) or "none",
                "  <-- target missed: " + ", ".join(missed) if missed else "",
                "  <-- outside its layer: " + ", ".join(stray) if stray
                else ""))
    return 0 if ok else 1


def cmd_overhead(workloads, seeds):
    for w in workloads:
        for s in seeds:
            plain, _ = run(w, s)
            _, traced = run(w, s, trace=True)
            parts = []
            for name in BOUNDS:
                base = plain["metrics"][name]["value"]
                parts.append("%s %+.1f%%" % (
                    name, 100 * worse_by(name, base, traced[name]["value"])))
            print("%s seed %d tracing costs: %s" % (w, s, ", ".join(parts)))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("check", choices=["spread", "selftest", "overhead"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default=None,
                        help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    default_seeds = {"spread": "1-10", "selftest": "1-5", "overhead": "1"}
    seeds = parse_seeds(args.seeds or default_seeds[args.check])
    workloads = args.workloads.split(",")
    return {"spread": cmd_spread, "selftest": cmd_selftest,
            "overhead": cmd_overhead}[args.check](workloads, seeds)


if __name__ == "__main__":
    sys.exit(main())
