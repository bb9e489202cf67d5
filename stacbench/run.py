#!/usr/bin/env python3
"""stac benchmark: build, run one workload at one seed, check, report.

    python3 stacbench/run.py --workload pipeline --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root.  The first run builds the stac libraries and
the driver from source into .bench_build (or $CARGO_TARGET_DIR, relative to
the root).  The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 the run repeats its rounds with tracing on and the metrics are
the per-layer ones, rolled up from the trace.  The line before it is the
full record, with the run's meta.  See README.md in this directory.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import rollup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline", "pipeline_timed", "serve")
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))
BUILD_TYPE = "RelWithDebInfo"
# The driver's own budget; building (first run in a checkout) comes before.
DEADLINE_S = 165.0
# The driver's Reference kernel (CPU ms per pass) at a nominal host speed.
# Gated timings are reported at that speed: each is scaled by this over the
# kernel's median in the same pass, which takes out the part of a shared
# host's slowdown that a chain of integer operations feels too.
REFERENCE_MS = 2.5


def log(msg):
    print(f"[stacbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    files = []
    for pattern in ("src/**/*.cpp", "src/**/*.hpp", "src/**/CMakeLists.txt",
                    "stacbench/*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for f in sorted(set(files)):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def build():
    """Configure and build the driver; return its path or exit non-zero."""
    bdir = os.path.join(build_dir(), "stac")
    cmd = ["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", bdir, "--target",
                       "stacbench_driver", "-j", str(BUILD_JOBS)]):
        res = subprocess.run(step, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log("build failed")
            sys.exit(2)
    return os.path.join(bdir, "stacbench_driver")


# ------------------------------------------------------------------- stats

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile level, sample count).  With ten or fewer
    samples no such percentile exists and the maximum is returned.
    """
    n = len(xs)
    if n == 0:
        return float("nan"), 0.0, 0
    s = sorted(xs)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else \
        float("nan")


# (failed, attempted) count pairs of the three kinds of operation.
KINDS = (("events_dropped", "events_offered"), ("bad_epochs", "epochs"),
         ("below_rung0", "predictions"))


def accounting(p):
    """(attempted, failed) operations of one pass."""
    return (sum(p[a] for _, a in KINDS), sum(p[f] for f, _ in KINDS))


def failed_share(p):
    """The largest failed share among the kinds of operation.

    Per kind, so a few failed epochs or predictions are not drowned by the
    hundreds of thousands of ring events beside them.
    """
    return max(p[f] / p[a] if p[a] else 0.0 for f, a in KINDS)


def host_scale(p):
    """Factor that puts a pass's CPU timings at the nominal host speed."""
    return REFERENCE_MS / median(p["reference_ms"])


def end_to_end(rec):
    u = rec["untraced"]
    ape = rec["ape_pct"]
    k = host_scale(u)
    m = {
        "setup_s": (k * median(u["setup_s"]), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - failed_share(u), "frac"),
        "time_to_plan_s": (k * median(u["time_to_plan_s"]), "s"),
        "recommend_p50_ms": (k * median(u["recommend_ms"]), "ms"),
        "rt_ape_p50_pct": (median(ape), "%"),
        "rt_ape_tail_pct": (tail(ape)[0], "%"),
        "plan_speedup_p95": (geomean(rec["speedup_ratios"]), "x"),
        "replan_p50_ms": (k * median(u["replan_ms"]), "ms"),
        "replan_tail_ms": (k * tail(u["replan_ms"])[0], "ms"),
        "reuse_epoch_tail_ms": (k * tail(u["reuse_ms"])[0], "ms"),
        "refit_p50_ms": (k * median(u["refit_ms"]), "ms"),
    }
    samples = {
        "setup_s": len(u["setup_s"]),
        "time_to_plan_s": len(u["time_to_plan_s"]),
        "recommend_ms": len(u["recommend_ms"]),
        "rt_ape": {"n": len(ape), "tail_level": tail(ape)[1]},
        "speedup_ratios": len(rec["speedup_ratios"]),
        "replan_ms": {"n": len(u["replan_ms"]),
                      "tail_level": tail(u["replan_ms"])[1]},
        "reuse_ms": {"n": len(u["reuse_ms"]),
                     "tail_level": tail(u["reuse_ms"])[1]},
        "refit_ms": len(u["refit_ms"]),
    }
    return m, samples


def per_layer(rec, trace_path):
    """Per-layer metrics from the traced pass, per round."""
    t = rec["traced"]
    u = rec["untraced"]
    rounds = t["rounds"]
    with open(trace_path) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    spans = rollup.self_times(events)
    cnt = rec["trace_counters"]

    def st(name):
        return spans.get(name, rollup.SpanStats())

    def total_s(*names):
        return sum(st(n).total_us for n in names) / 1e6

    def self_s(*names):
        return sum(st(n).self_us for n in names) / 1e6

    def p50_ms(name):
        d = st(name).durations_us
        return median(d) / 1e3 if d else 0.0

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    sweeps = st("explore.sweep").args + st("explore.sweep_incremental").args
    hits = sum(a.get("sim_cache_hits", 0) for a in sweeps)
    misses = sum(a.get("sim_cache_misses", 0) for a in sweeps)
    warm = [d for d, a in zip(st("serve.refit").durations_us,
                              st("serve.refit").args) if a.get("cold") == 0]

    # Pool workers: threads that ran spans but none of the driver's own
    # (main thread) or a refit executor's (its own thread).
    owner = {e["tid"] for e in rollup.complete_spans(events)
             if e["name"].startswith("bench.") or e["name"] == "serve.refit"}
    busy = rollup.busy_us_by_thread(events)
    pool_busy_s = sum(b for tid, b in busy.items() if tid not in owner) / 1e6
    workers = rec["pool_workers"]

    traced_round = host_scale(t) * median(t["round_s"])
    untraced_round = host_scale(u) * median(u["round_s"])
    overhead = ratio(traced_round - untraced_round, untraced_round)
    per_round = {
        "profiler.collect_s": (total_s("sampler.seed", "sampler.refine"), "s"),
        "profiler.conditions": (st("profile.condition").count, "count"),
        "queueing.testbed_busy_s": (self_s("testbed.run"), "s"),
        "queueing.testbed_events": (cnt["testbed.events"], "count"),
        "queueing.ggk_busy_s": (self_s("ggk.simulate", "ggk.simulate_batch"),
                                "s"),
        "queueing.ggk_completed": (cnt["ggk.completed"], "count"),
        "cachesim.replay_busy_s": (self_s("profile.condition"), "s"),
        "ml.fit_s": (total_s("stac.refit"), "s"),
        "ml.tree_fits": (st("tree.fit").count, "count"),
        "ml.tree_fit_busy_s": (self_s("tree.fit"), "s"),
        "core.explore_cell_self_s": (self_s("explore.cell"), "s"),
        "core.cells_simulated": (cnt["explore.cells_simulated"], "count"),
        "core.cells_reused": (cnt["explore.cells_reused"], "count"),
        "core.predictions_below_rung0": (t["below_rung0"], "count"),
        "serve.epochs": (t["epochs"], "count"),
        "serve.replan_epochs": (t["replan_epochs"], "count"),
        "serve.plan_busy_s": (t["plan_busy_s"], "s"),
        "serve.drain_estimate_busy_s": (t["drain_estimate_busy_s"], "s"),
        "serve.events_drained": (t["events_drained"], "count"),
        "serve.generate_busy_s": (t["generate_busy_s"], "s"),
        "serve.events_dropped": (t["events_dropped"], "count"),
        "serve.stale_holds": (t["stale_holds"], "count"),
        "serve.deadline_misses": (t["deadline_misses"], "count"),
        "serve.swaps_observed": (t["swaps_observed"], "count"),
        "serve.refits_warm": (t["refits_warm"], "count"),
        "serve.refits_cold": (t["refits_cold"], "count"),
        "cat.write_failures": (t["cat_write_failures"], "count"),
        "cat.write_retries": (t["cat_write_retries"], "count"),
    }
    m = {k: (v / rounds, unit) for k, (v, unit) in per_round.items()}
    m.update({
        "profiler.condition_p50_ms": (p50_ms("profile.condition"), "ms"),
        "queueing.testbed_events_per_s": (
            ratio(cnt["testbed.events"], total_s("testbed.run")), "1/s"),
        "queueing.ggk_completed_per_s": (
            ratio(cnt["ggk.completed"],
                  total_s("ggk.simulate", "ggk.simulate_batch")), "1/s"),
        "ml.tree_fit_p50_ms": (p50_ms("tree.fit"), "ms"),
        "serve.loop_events_per_s": (ratio(t["loop_events"], t["loop_s"]),
                                    "1/s"),
        "ml.predict_rows_per_s": (rec["predict_rows_per_s"], "1/s"),
        "ml.refit_warm_ms": (median(warm) / 1e3 if warm else 0.0, "ms"),
        "core.cell_reuse_ratio": (
            ratio(cnt["explore.cells_reused"],
                  cnt["explore.cells_reused"] +
                  cnt["explore.cells_simulated"]), "ratio"),
        "core.rt_cache_hit_rate": (ratio(hits, hits + misses), "ratio"),
        "common.pool_workers": (workers, "count"),
        "common.effective_cpus": (rec["effective_cpus"], "count"),
        "common.pool_busy_frac": (ratio(pool_busy_s, workers * t["wall_s"]),
                                  "frac"),
        "obs.trace_overhead_frac": (overhead, "frac"),
        "obs.trace_dropped_events": (rec["trace_dropped"], "count"),
    })
    bases = {"rt_cache_hits": hits, "rt_cache_misses": misses,
             "traced_rounds": rounds, "trace_events": rec["trace_events"],
             "warm_refit_spans": len(warm)}
    return m, bases


# ------------------------------------------------------------------ checks

def run_digest(rec):
    """The run's output digest: a round's outputs plus every held-out
    prediction."""
    return rec["untraced"]["digests"][0] + rec["heldout_digest"]


def check(rec, traced, digest_file):
    """Return a list of problems with the program's outputs."""
    problems = []
    passes = [("untraced", rec["untraced"])]
    if traced:
        passes.append(("traced", rec["traced"]))
    for name, p in passes:
        if not p["outputs_valid"]:
            problems += [f"{name}: {x}" for x in p["problems"]]
        if not p["accounting_exact"]:
            problems.append(f"{name}: event accounting not exact")
        if len(set(p["digests"])) != 1:
            problems.append(f"{name}: digest differs across rounds")
        # The manager's primary model and every refit are trained, so a
        # lower rung means a fit failed.
        if p["below_rung0"]:
            problems.append(f"{name}: {p['below_rung0']} predictions "
                            "answered below rung 0")
    if traced and rec["traced"]["digests"][0] != rec["untraced"]["digests"][0]:
        problems.append("traced digest differs from untraced digest")
    problems += rec["heldout_problems"]
    for x in rec["ape_pct"] + rec["speedup_ratios"]:
        if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
            problems.append("non-finite ground-truth comparison")
            break
    if traced:
        if rec["trace_dropped"] != 0:
            problems.append(f"trace dropped {rec['trace_dropped']} events")
        if not rec["trace_written"]:
            problems.append("trace not written")
    # Every run at one seed on one source tree must give the same outputs.
    digest = run_digest(rec)
    if os.path.exists(digest_file):
        with open(digest_file) as fh:
            if fh.read().strip() != digest:
                problems.append("digest differs from an earlier run at this "
                                "seed")
    else:
        os.makedirs(os.path.dirname(digest_file), exist_ok=True)
        with open(digest_file, "w") as fh:
            fh.write(digest + "\n")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.trace:
        rollup.check_rollup()
    driver = build()
    src = source_digest()
    out_dir = os.path.join(build_dir(), "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(out_dir, stem + ".trace.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    # One malloc arena: with per-thread arenas the refit thread's frees land
    # in whichever arena grew, and peak RSS swung by 15% between runs.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        sys.exit(3)
    if res.returncode != 0:
        log(f"driver exited with {res.returncode}")
        sys.exit(3)
    rec = json.loads(res.stdout.strip().splitlines()[-1])
    with open(os.path.join(out_dir, stem + ".raw.json"), "w") as fh:
        json.dump(rec, fh)

    digest_file = os.path.join(build_dir(), "digests", src[:16],
                               f"{args.workload}-seed{args.seed}")
    problems = check(rec, args.trace == 1, digest_file)
    if args.trace:
        metrics, detail = per_layer(rec, trace_path)
        passes = [rec["untraced"], rec["traced"]]
    else:
        metrics, detail = end_to_end(rec)
        passes = [rec["untraced"]]
    for name, (value, _) in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"metric {name} is not a finite number")
    attempted = sum(accounting(p)[0] for p in passes)
    failed = sum(accounting(p)[1] for p in passes)

    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "pool_workers": rec["pool_workers"],
            "effective_cpus": rec["effective_cpus"],
            "isa": rec["isa"],
            "reference_ms": median(rec["untraced"]["reference_ms"]),
            "build_type": BUILD_TYPE,
            "commit": git_commit(),
            "source_sha256": src,
        },
        "digest": run_digest(rec),
        "rounds": rec["untraced"]["rounds"],
        "samples" if not args.trace else "bases": detail,
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    if problems:
        log("output check failed: " + "; ".join(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
