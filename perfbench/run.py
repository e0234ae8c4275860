#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default .bench_build), then run with the same
arguments. Its standard output passes through unchanged: the last line is
the result object. With --trace 1 the recorded spans are written to
<target dir>/perfbench-spans/<workload>-seed<n>.tsv.

Exits non-zero, without printing a result, when the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
# What the digest of the source under test covers, for checkouts that are
# not git repositories.
SOURCE_DIRS = ("crates", "src", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def source_digest():
    h = hashlib.sha256()
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(ROOT, p))]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in filenames:
                if name.endswith((".rs", ".toml", ".py")):
                    paths.append(os.path.relpath(os.path.join(dirpath, name), ROOT))
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def commit():
    """The git commit when there is one, and always the source digest."""
    digest = "source-sha256:" + source_digest()
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return digest
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return f"git:{head} {digest}" if head else digest


def flag(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = list(argv)
    workload, seed = flag(argv, "--workload"), flag(argv, "--seed")
    if flag(argv, "--trace") == "1" and workload and seed:
        spans_dir = os.path.join(target, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(spans_dir, f"{workload}-seed{seed}.tsv")]
    env["PERFBENCH_COMMIT"] = commit()

    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
