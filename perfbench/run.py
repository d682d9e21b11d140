#!/usr/bin/env python3
"""Benchmark entry point: builds the engine and the benchmark driver from
source (once per checkout, with sbt), then runs one workload in a fresh JVM.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The last line of standard output is the
JSON result: {"correct", "attempted", "failed", "metrics"}. Per-run records,
span dumps and, for a failed job, its debug dump go to perfbench/results/.
The workloads and metrics are listed in BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE = os.path.join(ROOT, "src", "main", "scala", "repro")
ENGINE_PACKAGES = ("core", "imdg", "pipeline", "nexmark")
BUILD_STAMP = os.path.join(HERE, "target", "perfbench-build.json")
RESULTS = os.path.join(HERE, "results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# The JVM setup of the paper's latency runs (G1, 5 ms pause target), with a
# fixed heap so that collections stay small and alike from run to run. C2-only
# compilation: with tiered compilation, median latency differed by up to 30%
# between otherwise identical JVMs, against under 10% without it.
JVM_FLAGS = ["-Xms2g", "-Xmx2g", "-XX:+UseG1GC", "-XX:MaxGCPauseMillis=5",
             "-XX:+AlwaysPreTouch", "-XX:-UsePerfData", "-XX:-TieredCompilation"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in [os.path.join(ENGINE, p) for p in ENGINE_PACKAGES] + [os.path.join(HERE, "src")]:
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith(".scala")]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(digest):
    """Compiles with sbt unless this exact source tree was built already;
    returns the runtime classpath."""
    try:
        with open(BUILD_STAMP) as fh:
            stamp = json.load(fh)
        if stamp["source_sha256"] == digest:
            return stamp["classpath"]
    except (OSError, ValueError, KeyError):
        pass
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "scala-library" not in lines[-1]:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    classpath = lines[-1].strip()
    os.makedirs(os.path.dirname(BUILD_STAMP), exist_ok=True)
    with open(BUILD_STAMP, "w") as fh:
        json.dump({"source_sha256": digest, "classpath": classpath}, fh)
    return classpath


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if not all(os.path.isdir(os.path.join(ENGINE, p)) for p in ENGINE_PACKAGES):
        fail(f"engine sources not found under {os.path.relpath(ENGINE, os.getcwd())}; run from a full checkout")

    digest = source_hash()
    out = run_jvm(build(digest), digest, args)
    sys.stdout.write(out)
    sys.stdout.flush()


def run_jvm(classpath, digest, args):
    """Runs the benchmark JVM; returns its standard output."""
    cmd = ["java"] + JVM_FLAGS + [
        f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceHash={digest}",
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", args.trace, "--out", RESULTS]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with code {proc.returncode}")
    return out


if __name__ == "__main__":
    main()
