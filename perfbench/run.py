#!/usr/bin/env python3
"""Build and run the repo benchmark (the "ledger") for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ into .bench_build/ (or into
$CARGO_TARGET_DIR when set); perfbench/CMakeLists.txt builds the library from
the repository's own CMake files. Later runs only re-check the build. The
ledger binary does the measuring (see perfbench/README.md); this script
checks that the JSON object on its last output line names exactly the
metrics BENCHMARK.json declares, and passes the binary's exit code on.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """A run measures for `seconds`, plus warm-up, set-ups and the gates."""
    return 2 * seconds + 120


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; stdout stays for results."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "ledger", "-j",
                jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "ledger")


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the binary is built from (a checkout need not be one)."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s source=%s" % (commit or "none", digest.hexdigest()[:12])


def check_result(line, trace):
    """Error text when the result line disagrees with BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want)))
    for name, m in metrics.items():
        if m.get("unit") != want[name] or not isinstance(
                m.get("value"), (int, float)):
            return "metric %s is %s" % (name, m)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: the library sources are missing" % ROOT)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("the ledger run exceeded %g s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if lines[-1] else "no output"
    if error is not None:
        print("\n".join(lines[:-1]))
        fail(error + " (exit code %d)" % proc.returncode)
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
