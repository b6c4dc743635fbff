#!/usr/bin/env python3
"""Build and run the hpu benchmark.

    python3 hpubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hpubench/run.py --self-test

Run from the root of a source checkout. The benchmark package
(hpubench/CMakeLists.txt) is configured and built into
$CARGO_TARGET_DIR/hpubench (default .bench_build/hpubench); an up-to-date
build is a no-op. The last line of standard output is the JSON result of
the hpubench binary. Build output goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("msort-advanced", "qhull-ring", "plan-sweep")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hpubench")


def build(target):
    bdir = build_dir()
    # Keep the compiler's temporary files inside the build directory.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", bdir, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, target)


def git_sha():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_metric_map():
    """Every metric in BENCHMARK.json has a row in layers.json, and back."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    ok = True
    for group in ("end_to_end", "per_layer"):
        declared = [m["name"] for m in bench[group]]
        mapped = list(layers[group])
        if declared != mapped:
            print(f"layers.json {group} does not match BENCHMARK.json: "
                  f"{sorted(set(declared) ^ set(mapped))}", file=sys.stderr)
            ok = False
    return ok


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's helper self-tests")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    if args.self_test and not check_metric_map():
        return 1
    try:
        binary = build("hpubench_selftest" if args.self_test else "hpubench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"hpubench build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary]
    if not args.self_test:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--git-sha", git_sha()]
        if args.trace == "1":
            trace_dir = os.path.join(build_dir(), "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"hpubench exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
