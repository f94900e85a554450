#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--inject none|handler|step]

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; scratch files (arena, checkpoints, spans)
go to <build dir>/perfbench-run. The program's stdout is passed through, so
its last line is the result object; this script checks that the result
carries exactly the metrics BENCHMARK.json declares for the mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    return code


def build(build_dir):
    """Configures (once) and builds the program; build logs go to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def source_id():
    """The git commit, or (outside a git checkout) a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return "git:" + subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--inject", choices=["none", "handler", "step"],
                        default="none")
    args = parser.parse_args()

    # The benchmark measures the repository's own libraries; without their
    # sources beside it there is nothing to build or run.
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("missing %s: run from a full checkout" % needed)
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)

    work_dir = os.path.join(build_dir, "perfbench-run")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--inject", args.inject, "--work-dir", work_dir,
               "--source-id", source_id()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return fail("perfbench timed out after %d s" % RUN_TIMEOUT_S, 1)
    finally:
        # Arena and checkpoints are per run; the traced run's spans stay.
        run_dir = os.path.join(work_dir, "%s-%d" % (args.workload, args.seed))
        if os.path.isdir(run_dir):
            for name in os.listdir(run_dir):
                if name != "spans.json":
                    path = os.path.join(run_dir, name)
                    if os.path.isdir(path):
                        shutil.rmtree(path, ignore_errors=True)
                    else:
                        os.remove(path)
    if proc.returncode != 0:
        return fail("perfbench exited with %d" % proc.returncode, 1)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("perfbench printed no result", 1)
    expected = declared_metrics(args.trace == "1")
    if expected is not None and set(result["metrics"]) != expected:
        return fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                    % (sorted(expected - set(result["metrics"])),
                       sorted(set(result["metrics"]) - expected)), 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
