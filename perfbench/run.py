#!/usr/bin/env python3
"""Build the gpuwmm benchmark program and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tab5 --seed 1 --seconds 30 --trace 0

The library and the perfbench binary are built in Release mode into the
directory named by $CARGO_TARGET_DIR (default: .bench_build), which also
holds the binary's scratch files (hunt corpora, span dumps). Build output
goes to stderr; the binary's last stdout line is the result JSON. The exit
code is the binary's: 0 when every output check passed, 1 when one failed,
and 1 without a result when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tab5", "tab5-oracle", "hunt", "tune")

# The seed results are quoted at. Seed 2 is held out: a claim measured at
# seed 1 is re-checked there (perfbench/README.md, "Seeds").
DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    # The library reads its job count, batch width and engine from GPUWMM_*
    # variables; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUWMM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
