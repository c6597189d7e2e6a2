#!/usr/bin/env python3
"""Benchmark runner for the co-location modeling pipeline.

Builds the harness (perfbench/CMakeLists.txt) under .bench_build/, runs one
workload in a worker process, checks its outputs, and prints every metric
with its unit and sample count. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_fit --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
ledger. A worker that dies on a signal mid-pass counts that pass as
failed and a fresh worker continues with the next pass; passes are never
retried. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import collections
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "coloc_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("paper_fit", "characterize", "resweep", "placement")
SETUPS = 3          # set-up repeats per run; setup_s is their median
MAX_WORKERS = 4     # one initial worker plus up to three after crashes
WORKER_GRACE_S = 140  # a worker may overrun --seconds by this much
LAYERS = ("sim", "core", "ml", "linalg", "serve", "store", "common", "obs")
# Units of the ledger's probe figures, by metric family (a family name may
# carry a ".<preset>" or ".<policy>" suffix).
LEDGER_UNITS = {
    "host.fma_peak_gflops": "GFLOP/s", "host.stream_gbps": "GB/s",
    "host.stream_array_mib": "MiB", "host.llc_mib": "MiB",
    "sim.trace_gen_refs_per_s": "1/s", "sim.stack_distance_refs_per_s": "1/s",
    "sim.profile_app_s": "s", "sim.solve_us": "us",
    "core.campaign_cells_per_s": "1/s", "core.zoo_eval_s": "s",
    "ml.validate_nn_s": "s", "ml.validate_linear_s": "s",
    "ml.mlp_fit_ms": "ms", "ml.scg_iters_per_s": "1/s",
    "ml.predict_rows_per_s": "1/s", "ml.nn_f_test_mpe": "%",
    "linalg.gemm_gflops": "GFLOP/s", "linalg.gemm_frac_of_fma_peak": "frac",
    "linalg.tanh_elems_per_s": "1/s", "linalg.qr_solve_us": "us",
    "serve.predict_batch_rows_per_s": "1/s", "serve.decision_p50_us": "us",
    "serve.decision_p99_us": "us", "serve.score_memo_hit_ratio": "frac",
    "serve.replay_s": "s", "serve.events": "count",
    "serve.contention_solves": "count", "serve.mean_wait_s": "sim_s",
    "serve.miss_rate": "frac", "serve.mean_slowdown": "x",
    "store.zoo_save_s": "s", "store.zoo_load_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "coloc_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def worker_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("COLOC_")}
    env["COLOC_PROGRESS"] = "0"
    return env


def run_worker(args, scratch, first_pass, setups, first_setup, seconds):
    """Runs one worker; returns (records, returncode)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--first-pass", str(first_pass), "--setups", str(setups),
           "--first-setup", str(first_setup), "--scratch", scratch]
    records = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            text=True)
    deadline = time.monotonic() + seconds + WORKER_GRACE_S
    try:
        for line in proc.stdout:
            line = line.strip()
            if line.startswith("{"):
                records.append(json.loads(line))
            if time.monotonic() > deadline:
                log("worker overran its deadline; stopping it")
                proc.kill()
                break
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        returncode = proc.wait()
    return records, returncode


def median(values):
    return statistics.median(values) if values else float("nan")


def bucket_quantile(counts, q):
    """Quantile of a base-2 log-bucket histogram (upper bound of bucket i is
    1e-9 * 2**i), interpolated linearly inside the bucket."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            upper = 1e-9 * 2.0 ** i
            lower = upper / 2.0 if i else 0.0
            return lower + (upper - lower) * (rank - seen) / c
        seen += c
    return 1e-9 * 2.0 ** (len(counts) - 2)


def end_to_end(setups, passes):
    walls = [p["wall_s"] for p in passes]
    rates = [p["units"] / p["wall_s"] for p in passes if p["wall_s"] > 0]
    return {
        "setup_s": (median([s["s"] for s in setups]), "s", len(setups)),
        "pass_s": (median(walls), "s", len(walls)),
        "units_per_s": (median(rates), "1/s", len(rates)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MiB",
                        len(passes)),
    }


def per_layer(host, passes, ledger):
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {}
    traced_wall = sum(p["wall_s"] for p in traced)
    for layer in LAYERS:
        self_s = sum(p["layer_self_s"].get(layer, 0.0) for p in traced)
        out["pass." + layer + ".self_frac"] = (self_s / traced_wall, "frac",
                                               len(traced))
    covered = sum(p["covered_s"] for p in traced)
    out["obs.span_residual_frac"] = (1.0 - covered / traced_wall, "frac",
                                     len(traced))
    out["obs.trace_overhead_frac"] = (
        median([p["wall_s"] for p in traced])
        / median([p["wall_s"] for p in untraced]) - 1.0,
        "frac", len(passes))

    def ratio(hits, misses):
        h = sum(p["counters"][hits] for p in passes)
        m = sum(p["counters"][misses] for p in passes)
        return (h / (h + m) if h + m else 0.0, "frac", int(h + m))

    out["sim.profile_memo_hit_ratio"] = ratio("sim_profile_memo_hits_total",
                                              "sim_profile_memo_misses_total")
    out["sim.solve_cache_hit_ratio"] = ratio("sim_solve_cache_hits_total",
                                             "sim_solve_cache_misses_total")
    busy = sum(p["values"].get("pool_busy_s", 0.0) for p in passes)
    idle = sum(p["values"].get("pool_idle_s", 0.0) for p in passes)
    out["common.pool_utilization"] = (busy / (busy + idle) if busy + idle
                                      else 0.0, "frac", len(passes))
    buckets = [sum(col) for col in zip(*(p["queue_wait_buckets"]
                                         for p in passes))]
    out["common.pool_queue_wait_p99_s"] = (bucket_quantile(buckets, 0.99),
                                           "s", int(sum(buckets)))
    for name, value in ledger["metrics"].items():
        family = name if name in LEDGER_UNITS else name.rsplit(".", 1)[0]
        out[name] = (value, LEDGER_UNITS[family], 1)
    out["host.nproc"] = (host["nproc"], "count", 1)
    out["host.avx512f"] = (1 if host["avx512f"] else 0, "count", 1)
    return out


def check_digests(args, passes, failed_checks):
    """At a seed pinned in digests.json, pass 0's campaign datasets, zoo
    MPE/NRMSE, decisions and replay outcomes must match byte for byte.
    With --record-digests, pass 0's digests are pinned instead."""
    first = [p for p in passes if p["index"] == 0]
    if not first:
        return
    observed = first[0]["digests"]
    with open(DIGESTS) as f:
        table = json.load(f)
    if args.record_digests:
        table.setdefault(args.workload, {})[str(args.seed)] = observed
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        return
    pinned = table.get(args.workload, {}).get(str(args.seed), {})
    for name, want in sorted(pinned.items()):
        if observed.get(name) != want:
            failed_checks.append("digest." + name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--record-digests", action="store_true",
                        help="pin pass 0's digests for this workload and "
                             "seed in digests.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 2

    scratch = os.path.join(".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        return measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, scratch):
    setups, passes, ends, ledgers, hosts, pass_errors = [], [], [], [], [], []
    crashed = 0
    next_pass, next_setup = 0, 0
    start = time.monotonic()
    for launch in range(MAX_WORKERS):
        remaining = max(0.001, args.seconds - (time.monotonic() - start))
        records, code = run_worker(args, scratch, next_pass,
                                   SETUPS if launch == 0 else 1, next_setup,
                                   remaining)
        for r in records:
            {"setup": setups, "pass": passes, "end": ends, "ledger": ledgers,
             "host": hosts, "pass_error": pass_errors}[r["type"]].append(r)
        next_setup = len(setups)
        if code == 0:
            break
        # The pass in flight died with its worker: count it, move past it.
        crashed += 1
        in_flight = max([next_pass] + [p["index"] + 1
                                       for p in passes + pass_errors])
        log("worker exited with %d during pass %d; counted as failed"
            % (code, in_flight))
        next_pass = in_flight + 1
        if time.monotonic() - start > args.seconds and passes and ends and (
                ledgers or not args.trace):
            break
    if not passes or not ends or (args.trace and not ledgers):
        log("no complete measurement")
        return 4

    failed_checks, errors = [], []
    for r in passes + ledgers:
        failed_checks += sorted(r["failed_checks"])
        errors += sorted(r["errors"])
    errors += ["pass %d: %s" % (r["index"], r["error"]) for r in pass_errors]
    check_digests(args, passes, failed_checks)

    # A thrown or crashed pass is one failed operation. A pass in which one
    # operation threw still ran and is timed; the operation counts as failed.
    attempted = (sum(r["ops"] for r in passes + ledgers) + len(pass_errors)
                 + crashed)
    failed = (sum(r["failed_ops"] for r in passes + ledgers)
              + len(pass_errors) + crashed)
    if args.trace:
        metrics = per_layer(hosts[0], passes, ledgers[-1])
        metrics["obs.failed_frac"] = (failed / attempted, "frac", attempted)
        metrics["obs.crashed_passes"] = (crashed, "count", len(passes) + crashed)
    else:
        metrics = end_to_end(setups, [p for p in passes if not p["traced"]])

    host = hosts[0]
    print("host: %s, nproc %d, jobs %d, avx2 %s, avx512f %s, clones %s, "
          "L3 %.0f MiB, %s build, flags '%s', %s"
          % (host["cpu_model"], host["nproc"], host["jobs"], host["avx2"],
             host["avx512f"], host["clone_variant"], host["llc_mib"],
             host["build_type"], host["build_flags"], host["compiler"]))
    print("workload %s, seed %d, %d passes, %d crashed, %d/%d ops failed"
          % (args.workload, args.seed, len(passes), crashed, failed,
             attempted))
    outputs = {}
    for p in passes:
        for name, value in p["values"].items():
            outputs.setdefault(name, []).append(value)
    print("pass outputs (median over passes): " + ", ".join(
        "%s %.6g" % (name, median(v)) for name, v in sorted(outputs.items())))
    for name, (value, unit, count) in sorted(metrics.items()):
        print("  %-44s %16.6g %-8s n=%d" % (name, value, unit, count))
    for name in failed_checks:
        print("  CHECK FAILED: " + name)
    for error, count in sorted(collections.Counter(errors).items()):
        print("  OPERATION FAILED (%dx): %s" % (count, error))
    correct = not failed_checks
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
