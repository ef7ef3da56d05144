#!/usr/bin/env python3
"""Builds and runs the E2-NVM benchmark for one workload.

    python3 e2bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds e2bench/ (and the store
libraries under src/) into .bench_build/, runs one e2bench process, and
prints a summary, the environment block, and as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones; the
span trace goes to .bench_build/traces/<workload>-seed<n>.tsv. The full
report of every run is kept in .bench_build/reports/.

Exits non-zero when the build fails, the run fails, or any operation
failed or returned a wrong value.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "e2bench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2bench")
BINARY = os.path.join(BUILD_DIR, "e2bench")
# Every run must end within 180 s; leave room for the summary.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no E2-NVM sources under src/ (run from the repository root)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "e2bench"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the sources the binary is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "bench", "e2bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def contract_metrics(section, names):
    """The BENCHMARK.json metrics of one report section, as
    {"value", "unit"}. A per-layer span that had no calls in this
    workload (samples == 0) reads 0 here; the full report keeps it as
    null with its sample count."""
    out = {}
    for name in names:
        m = section[name]
        value = m["value"]
        if value is None and m.get("samples") == 0:
            value = 0.0
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    load_at_start = os.getloadavg()[0]
    start = time.monotonic()
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(remaining, 30), cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("e2bench did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("e2bench printed no report (exit %d)" % proc.returncode)
    report = json.loads(lines[-1])
    report["env"].update({
        "loadavg_1m_at_start": load_at_start,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    })
    report_dir = os.path.join(ROOT, ".bench_build", "reports")
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(report, f, indent=1)

    section = report["per_layer" if args.trace else "end_to_end"]
    print("e2bench %s seed=%d trace=%d: %d ops in %.2f s, count window %d "
          "ops" % (args.workload, args.seed, args.trace, report["ops"],
                   report["timed_s"], report["count_ops"]))
    for name, m in section.items():
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        samples = "" if "samples" not in m else "  (n=%d)" % m["samples"]
        gated = "" if name in names else "  [report only]"
        print("  %-48s %14s %-5s%s%s" % (name, value, m["unit"], samples,
                                         gated))
    print("env: " + json.dumps(report["env"], sort_keys=True))

    failed = report["failed"]
    correct = proc.returncode == 0 and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": contract_metrics(section, names),
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
