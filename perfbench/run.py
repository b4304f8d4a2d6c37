#!/usr/bin/env python3
"""Builds and runs the MS2 benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_macros --seed 1 --seconds 10 --trace 0

Workloads: cold_frontend, cold_macros, daemon_mixed (see perfbench/NOTES.md).
The first run configures and builds perfbench/CMakeLists.txt (the engine,
msqd, msq-lsp and the msq-perfbench harness) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later runs rebuild
only what changed. Build output goes to stderr, so the last line of stdout
is the harness's JSON result. The exit status is the harness's: non-zero when
the build failed, an output was wrong, or a daemon did not drain cleanly.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    """Configures (once) and builds the harness and daemons into `out`."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no MS2 source tree next to perfbench/ "
                 f"({ROOT}/src is missing)")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "msq-perfbench", "msqd", "msq-lsp"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_frontend", "cold_macros", "daemon_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="self-test: corrupt one oracle form")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    # Relative, so msqd's Unix socket path stays short wherever the
    # checkout lives.
    work = os.path.relpath(os.path.join(out, "run"))
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "msq-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--build-dir", out, "--work-dir", work]
    if args.plant_mismatch:
        cmd.append("--plant-mismatch")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
