#!/usr/bin/env python3
"""Determinism test of the benchmark's count metrics.

    python3 e2bench/test_determinism.py        # from the repository root

For every workload, runs e2bench twice on one seed with a short count
window and requires the count metrics (flips, energy, wear, retrain,
address-pool, journal and device counts) and the op-stream digest to be
byte-identical, and all operations to succeed. A run on a second seed
must issue a different op stream. Exits non-zero on any violation.
"""

import importlib.util
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location(
    "e2bench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

# churn_drift's window is long enough for background retrains to finish
# inside it, so a broken drain-on-trigger shows as differing counts.
SHORT_COUNT_OPS = {
    "update_heavy": 20000,
    "read_mostly": 40000,
    "churn_drift": 60000,
    "net_pipelined": 20000,
}
E2E_COUNTS = ("flips_per_bit", "pj_per_put", "wear_max_over_mean")
LAYER_COUNT_PREFIXES = ("core.retrain.", "nvm.", "core.address_pool.",
                        "core.shard_journal.",
                        "core.placement_engine.predict_flops_per_put",
                        "core.placement_engine.release_memo_hit_ratio")


def report(workload, seed):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", "0", "--setup-reps", "1",
           "--count-ops", str(SHORT_COUNT_OPS[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: e2bench exited %d" %
                         (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(rep):
    out = {"stream_digest": rep["window"]["stream_digest"]}
    for name in E2E_COUNTS:
        out[name] = rep["end_to_end"][name]["value"]
    for name, m in rep["per_layer"].items():
        if name.startswith(LAYER_COUNT_PREFIXES) and name != \
                "core.retrain.wait_s":
            out[name] = m["value"]
    return out


def main():
    run.build()
    errors = []
    for workload in SHORT_COUNT_OPS:
        a, b = counts(report(workload, 7)), counts(report(workload, 7))
        for name in a:
            # json round-trips %.17g doubles exactly, so == is bytewise.
            if a[name] != b[name]:
                errors.append("%s: %s differs across runs: %r vs %r" %
                              (workload, name, a[name], b[name]))
        other = counts(report(workload, 8))
        if other["stream_digest"] == a["stream_digest"]:
            errors.append("%s: seeds 7 and 8 issued the same op stream" %
                          workload)
        print("%-14s %d count metrics identical across runs, digest %s" %
              (workload, len(a), a["stream_digest"]))
    for e in errors:
        print("FAIL " + e)
    print("FAIL" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
