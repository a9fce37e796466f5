#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The default seed is 42; seed 20211 is held
out for checking a performance claim made while tuning on the default. The
benchmark package is built from source with cargo (offline, release) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset. Standard output carries a manifest line, the benchmark's
report, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Any failure to build or run exits
non-zero without printing that object.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 42

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def output_of(argv):
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources the benchmark links against, so a
    result identifies the program version even outside a git checkout."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("src", "crates"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def manifest(args):
    has_git = os.path.isdir(os.path.join(ROOT, ".git"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": output_of(["git", "rev-parse", "HEAD"]) if has_git else "none",
        "source_sha256": source_digest(),
        "rustc": output_of(["rustc", "--version"]),
        "rustflags": os.environ.get("RUSTFLAGS", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return 1

    print("manifest: " + json.dumps(manifest(args), sort_keys=True), flush=True)
    binary = os.path.join(ROOT, target, "release", "hams-perfbench")
    run = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(run, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark run did not finish: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
