#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest

Builds tkbench (and the tunekit library from src/) into
.bench_build/ with CMake in Release mode, runs one workload, and prints the
run's record (workload configuration, sample counts, source revision, host)
followed by the result line that is always the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Records and spans are written to .bench_out/. --selftest checks
BENCHMARK.json against the rules it must meet, checks the name and unit
charsets, runs tkbench's unit checks (percentiles, geometric mean), and makes a
toy-size smoke run of every workload, untraced and traced.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "tkbench")
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure until it succeeds once, then build incrementally; False when
    either step fails."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tkbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode != 0:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def source_revision():
    """Git revision when the tree is a repository, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return {"git_rev": out.stdout.strip()}
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_rev": "unknown", "source_sha256": digest.hexdigest()}


def host():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def run_tkbench(argv, timeout=RUN_TIMEOUT_S):
    """Run tkbench; returns (record, result) or raises RuntimeError."""
    try:
        proc = subprocess.run([BINARY] + argv + ["--out", OUT_DIR], capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RuntimeError("tkbench timed out after %d s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("tkbench exited with %d" % proc.returncode)
    return json.loads(lines[-2]), json.loads(lines[-1])


def run(args):
    if not build():
        return 2
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace)]
    try:
        record, result = run_tkbench(argv)
    except (RuntimeError, ValueError) as e:
        log("run.py: " + str(e))
        return 1
    record.update(source_revision())
    record["host"] = host()
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def check_contract(spec):
    """The rules a BENCHMARK.json must meet; returns a list of problems."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append("top-level keys %s" % sorted(spec))
    if not 1 <= len(spec["paths"]) <= 16:
        problems.append("paths count")
    if not 1 <= spec["run_seconds"] <= 60 or int(spec["run_seconds"]) != spec["run_seconds"]:
        problems.append("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("metric count")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not w["why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("workload %s" % w.get("name"))
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append("end_to_end %s" % m.get("name"))
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append("per_layer %s" % m.get("name"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append("bad name %r" % name)
    if len(names) != len(set(names)):
        problems.append("duplicate names")
    for m in metrics:
        if not UNIT_RE.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append("unit or direction of %s" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" or \
            setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in s, lower, with the largest bound")
    return problems


def check_result(result, expected, workload, trace):
    problems = []
    where = "%s trace=%d: " % (workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(where + "result keys")
    if result.get("correct") is not True or result.get("failed") != 0 or \
            not result.get("attempted", 0) >= 1:
        problems.append(where + "not correct: %s" % result)
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(where + "metric names differ: %s" % sorted(metrics))
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            problems.append(where + "metric %s = %s" % (m["name"], got))
        elif not trace and value <= 0:
            problems.append(where + "end-to-end metric %s is not positive" % m["name"])
    return problems


def check_charsets():
    """The name and unit patterns accept and refuse what they should."""
    cases = [(NAME_RE, n, True) for n in ("ask_p50_ms", "bo.hyperopt_ms", "1x", "a-b", "a" * 64)]
    cases += [(NAME_RE, n, False) for n in ("", "_a", ".a", "-a", "a b", "a/b", "a%", "a\n",
                                             "a" * 65)]
    cases += [(UNIT_RE, u, True) for u in ("ms", "s", "1/s", "%", "GFLOP/s", "count", "MB")]
    cases += [(UNIT_RE, u, False) for u in ("", "m s", "ms!", "x" * 17)]
    return ["charset: %r %s" % (text, "refused" if ok else "accepted")
            for pattern, text, ok in cases if bool(pattern.fullmatch(text)) != ok]


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_contract(spec) + check_charsets()
    if not build():
        return 2
    if subprocess.run([BINARY, "--selftest"]).returncode != 0:
        problems.append("tkbench --selftest failed")
    for w in spec["workloads"]:
        for trace in (0, 1):
            argv = ["--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace",
                    str(trace), "--toy"]
            try:
                _, result = run_tkbench(argv)
            except (RuntimeError, ValueError) as e:
                problems.append("%s trace=%d: %s" % (w["name"], trace, e))
                continue
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            found = check_result(result, expected, w["name"], trace)
            problems += found
            log("smoke %s trace=%d: %s" % (w["name"], trace, "FAILED" if found else "ok"))
    for p in problems:
        log("selftest FAILED: " + p)
    if not problems:
        print("selftest: ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
