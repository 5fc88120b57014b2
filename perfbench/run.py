#!/usr/bin/env python3
"""Build and run the ocelotld end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Builds perfbench/ (a Go module of its own that uses the daemon's packages
from the checkout) into the build directory ($CARGO_TARGET_DIR, default
.bench_build), generates the seeded inputs in a separate process under
.bench_work/, then runs the workload. Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
traced run's spans are kept under .bench_out/. Every file the benchmark
and the Go toolchain write stays inside the checkout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SKIP_DIRS = {".git", ".bench_build", ".bench_work", ".bench_out"}


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=mod", GOENV="off",
               GOPROXY="off", CGO_ENABLED="0")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["explore", "sweep", "follow"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    env["TMPDIR"] = work
    common = ["-workload", args.workload, "-seed", str(args.seed),
              "-seconds", str(args.seconds), "-dir", work]
    try:
        gen = subprocess.run([binary, "gen"] + common, env=env, stdout=sys.stderr)
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        sys.stdout.flush()
        run = subprocess.run([binary, "run"] + common +
                             ["-trace", str(args.trace), "-out", out,
                              "-commit", source_revision()], env=env)
        sys.exit(run.returncode)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
