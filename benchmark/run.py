#!/usr/bin/env python3
"""Build and run one mpbench workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULT.json] [--bless]

Run from the repository root. Builds the `benchmark` package in release
mode (offline; into $CARGO_TARGET_DIR, default `.bench_build`), then runs
`mpbench` once. Its stdout passes through unchanged, so the last line is
the JSON result. Traced runs also write a Perfetto-loadable span file
under the build directory. Trace files the workloads need are written
under the build directory too and removed afterwards.

Exit status: mpbench's own (0 correct, 1 wrong outputs, 2 no result), or
2 if the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result JSON here")
    ap.add_argument("--bless", action="store_true", help="record this seed's outputs in golden.json")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # The program's own instrumentation and worker-count overrides stay
    # out of the measurement.
    for var in ("OBSV", "SWEEP_THREADS"):
        env.pop(var, None)
    # Keep `git rev-parse` (run metadata) from searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "benchmark", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building mpbench failed", file=sys.stderr)
        return 2

    work = os.path.join(target, "mpbench-work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [
        os.path.join(target, "release", "mpbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", work,
        "--golden", os.path.join(ROOT, "benchmark", "golden.json"),
    ]
    if args.trace:
        spans = os.path.join(target, "mpbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.json" % (args.workload, args.seed))]
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    if args.bless:
        cmd.append("--bless")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: mpbench exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
