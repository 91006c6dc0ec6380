#!/usr/bin/env python3
"""Replay benchmark: build the simulator from source, run one workload, check the output.

Usage (from the repository root):
  python3 perfbench/run.py --workload resident --seed 7 --seconds 20 --trace 0

Builds perfbench/ (and the simulator sources under src/) into .bench_build/perfbench
with CMake in Release mode, runs replay_bench, checks that it printed exactly the
metrics BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1) with the listed units, validates the Chrome trace files of a traced run, and
prints the result object as the last line of stdout. Exits nonzero, without a result,
when the build or the run cannot happen, and with "correct": false when a check fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")  # Compiler temporaries stay inside.
BINARY = os.path.join(BUILD_DIR, "replay_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture):
    """Runs cmd in its own process group and waits for it. The group is killed on a
    timeout, and when this script is told to stop."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=subprocess.STDOUT if capture else sys.stderr)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)), 1)
    finally:
        for s, h in handlers.items():
            signal.signal(s, h)
    return proc.returncode, out or ""


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no simulator sources (src/) next to the benchmark; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "replay_bench", "-j", jobs])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            fail("build step failed (%d): %s" % (code, " ".join(step)), 1)


def provenance():
    """Git commit when the checkout is a git repository, plus a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        code, out = run(["git", "rev-parse", "--short=12", "HEAD"], 30, capture=True)
        if code == 0:
            sha = out.strip()
    return "%s src-sha256=%s" % (sha, digest.hexdigest()[:16])


def validate_trace_files(workload):
    """Every Chrome trace file of a traced run must pass tools/trace_export.py."""
    tool = os.path.join(ROOT, "tools", "trace_export.py")
    files = sorted(os.path.join(OUT_DIR, f) for f in os.listdir(OUT_DIR)
                   if f.startswith(workload + ".") and f.endswith(".json"))
    if not files:
        return ["no trace files written for " + workload]
    if not os.path.exists(tool):
        print("perfbench: tools/trace_export.py absent; trace files not validated")
        return []
    code, out = run([sys.executable, tool, "--validate"] + files, RUN_TIMEOUT_S, capture=True)
    return [] if code == 0 else ["trace validation failed: " + out.strip()[-500:]]


def check_result(result, spec, trace):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys are %s" % sorted(result))
        return errors
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        errors.append("metric %s missing" % name)
    for name in sorted(set(got) - set(expected)):
        errors.append("metric %s not listed in BENCHMARK.json" % name)
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            errors.append("metric %s has unit %s, BENCHMARK.json says %s"
                          % (name, got[name], expected[name]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a positive integer")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in os.listdir(OUT_DIR):
        if name.startswith(args.workload + "."):
            os.remove(os.path.join(OUT_DIR, name))

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--git", provenance()]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("replay_bench exited %d without a result line" % code, 1)
    for line in lines[:-1]:
        print(line)

    errors = check_result(result, spec, args.trace)
    if args.trace and not errors:
        errors += validate_trace_files(args.workload)
    for e in errors:
        print("CHECK FAILED: " + e)
    if errors:
        result["correct"] = False
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
