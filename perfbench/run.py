#!/usr/bin/env python3
"""Build and run the RankService benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the lfpr library and the rankbench program from the sources of the
checkout this file sits in (CMake, Release, into .bench_build/), builds
the dataset cache in a separate process so generation never shows in the
measured process, then runs one workload. The program's output is
forwarded; its last line is the JSON result. A failed build or run exits
non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
CMAKE_DIR = BUILD_DIR / "cmake"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    every source file the build reads."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"), *BENCH_DIR.rglob("*")]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no lfpr sources at {ROOT} (need CMakeLists.txt and src/ beside perfbench/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if (CMAKE_DIR / "CMakeCache.txt").exists():
        generator = []  # keep whatever the cache was configured with
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR), *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(CMAKE_DIR), "--target", "rankbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(cmd), 1)
    return CMAKE_DIR / "rankbench"


def run(cmd, env, capture):
    """Run cmd to completion (killed after RUN_TIMEOUT_S); returns (code, stdout)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE if capture else sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}", 1)
    finally:
        shutil.rmtree(BUILD_DIR / "work" / str(proc.pid), ignore_errors=True)
    return proc.returncode, out


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        fail(f"result does not match BENCHMARK.json: {sorted(set(got) ^ set(want))}", 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    exe = build()
    env = dict(os.environ, LFPR_DATASET_DIR=str(BUILD_DIR / "datasets"))
    code, _ = run([str(exe), "--prepare", "--workload", args.workload], env, capture=False)
    if code:
        fail(f"dataset preparation failed (exit {code})", code)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(BUILD_DIR / "work"), "--commit", source_id()]
    if args.trace:
        spans = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--spans-out", str(spans)]
    code, out = run(cmd, env, capture=True)
    if code:
        sys.stderr.write(out)
        fail(f"rankbench exited with {code}", code)
    if not out.strip():
        fail("rankbench printed no result", 1)
    check_result(out.splitlines()[-1], args.trace)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
