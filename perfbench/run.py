#!/usr/bin/env python3
"""Repository benchmark: build, prepare and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_sparse --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Builds the origin library and the benchmark binary from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake, trains the model cache
there if it lacks the models (never inside a timed run), then runs the
binary. Its last line of stdout is the JSON result; --trace 0
gives the end-to-end metrics, --trace 1 the per-layer metrics of a
separate traced run. Exits non-zero without a result when the library
sources are missing or the build, preparation or run fails.

The execution knobs stay at their defaults: ORIGIN_SERVE_BATCH is removed
from the environment, and ORIGIN_BACKEND is set to "auto" so the nn layer
dispatches to the best kernel backend of the host.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("serve_sparse", "serve_personalize", "fleet_dense")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def run_logged(cmd, log, env=None, timeout=None):
    """Runs cmd with its output appended to log; returns True on success."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=out,
                                  env=env, timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build(build_dir):
    log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").exists():
        if not run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                           "-DCMAKE_BUILD_TYPE=Release"], log):
            fail(f"configure failed, see {log}", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", str(build_dir), "-j", jobs], log):
        fail(f"build failed, see {log}", 3)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload and its oracles at toy size")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"library sources not found under {ROOT / 'src'}", 2)

    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build(build_dir)
    cache_dir = build_dir / "origin_models"
    out_dir = build_dir / "runs"

    env = dict(os.environ)
    env.pop("ORIGIN_SERVE_BATCH", None)
    env.pop("ORIGIN_CACHE_DIR", None)
    env["ORIGIN_BACKEND"] = "auto"

    # Trains only the models the cache lacks; a no-op load otherwise.
    if not run_logged([str(binary), "--prepare", "--cache-dir", str(cache_dir)],
                      build_dir / "prepare.log", env=env):
        fail(f"model preparation failed, see {build_dir / 'prepare.log'}", 4)

    cmd = [str(binary), "--cache-dir", str(cache_dir), "--out-dir", str(out_dir)]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 5)
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}", 6)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
