#!/usr/bin/env python3
"""Build and run one workload of the end-to-end TBMD benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (the tbmd library from src/ plus tbmd_perfbench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
tbmd_perfbench from the repository root.  Build output goes to stderr; the
last line of stdout is tbmd_perfbench's JSON result.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "tbmd_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.pop("OMP_NUM_THREADS", None)  # tbmd_perfbench sets its team sizes
    proc = subprocess.run(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--work-dir", work],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
