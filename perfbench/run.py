#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. Every argument is passed to the benchmark binary, which
parses them strictly. With --trace 1 the spans go to
<build dir>/spans/<workload>-seed<seed>.json unless --spans is given.

The binary's last stdout line is the JSON result; the exit code is the
binary's, or non-zero when the build fails (no result line then). --all
runs every workload of BENCHMARK.json untraced, one after another (seed 1
and the benchmark's run_seconds unless given), and exits non-zero if any
of them failed.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "sheriff_perfbench"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def source_id():
    """Git commit when available, plus a hash of the engine and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
    return commit + "+src." + digest.hexdigest()[:12]


def flag_value(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def timeout_s(args):
    """Kill limit for one run: the benchmark stops a replica on a host three
    times slower than the reference, so this only catches a hung process."""
    seconds = flag_value(args, "--seconds")
    return 3 * int(seconds) + 60 if seconds and seconds.isdigit() else 120


def run_binary(cmd):
    """Runs the benchmark binary; returns its exit code, or 124 if it hung."""
    limit = timeout_s(cmd)
    try:
        return subprocess.run(cmd, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: %s exceeded %d s and was killed" % (" ".join(cmd[1:3]), limit),
              file=sys.stderr)
        return 124


def run_all(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if "--seconds" not in args:
        args += ["--seconds", str(spec["run_seconds"])]
    if "--seed" not in args:
        args += ["--seed", "1"]
    failed = False
    for workload in spec["workloads"]:
        cmd = [binary, "--workload", workload["name"], "--trace", "0"] + args
        failed |= run_binary(cmd) != 0
    return 1 if failed else 0


def main(argv):
    args = list(argv)
    binary = build()
    if "--commit" not in args:
        args += ["--commit", source_id()]
    if args[:1] == ["--all"]:
        return run_all(binary, args[1:])
    workload, seed = flag_value(args, "--workload"), flag_value(args, "--seed")
    if (flag_value(args, "--trace") == "1" and "--spans" not in args and workload and seed
            and re.fullmatch(r"[A-Za-z0-9_]+", workload) and seed.isdigit()):
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans", os.path.join(spans_dir, "%s-seed%s.json" % (workload, seed))]
    return run_binary([binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
