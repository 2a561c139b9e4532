#!/usr/bin/env python3
"""Host-throughput benchmark of the MorphCtr simulator.

Builds perfbench/morph_perfbench from the checkout's sources, then runs
one workload for a fixed host-time budget and prints its metrics. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mcf-morph --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --json-out FILE   # every workload, both runs
    python3 perfbench/run.py --write-reference        # re-bless reference.json

--trace 0 times untraced runs and reports the end-to-end metrics;
--trace 1 runs the traced replica and reports the per-layer metrics.
Each repetition is its own process; a repetition that exits non-zero,
or whose simulated statistics differ from the committed reference for
its workload and seed, counts as a failed operation. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("mcf-morph", "libquantum-morph", "gcc-nvm-strict")
# Workloads with the DRAM model on (gcc-nvm-strict is traffic-only).
TIMING_WORKLOADS = ("mcf-morph", "libquantum-morph")

# reference.json keeps the full statistics of these two seeds (the
# default, and one held out from tuning) and a digest of every seed in
# REFERENCE_SEEDS.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
REFERENCE_SEEDS = range(100)

CORES = 4

MIN_UNTRACED_REPS = 3
MIN_TRACED_REPS = 1
REP_TIMEOUT_S = 120

# Documented agreement (README.md, "DRAM share cross-check"): the span
# share lies below the A/B share by at most this much, because the A/B
# also removes core interleaving and so over-states the DRAM layer.
AB_MAX_GAP = 0.25

END_TO_END_UNITS = {"accesses_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "workloads.next_ns": "ns",
    "workloads.share": "fraction",
    "sim.core_ns": "ns",
    "sim.share": "fraction",
    "secmem.access_ns": "ns",
    "secmem.share": "fraction",
    "secmem.mem_accesses_per_data": "per_access",
    "secmem.finish_run_ns": "ns",
    "mdcache.hit_rate": "fraction",
    "mdcache.misses_per_data": "per_access",
    "mdcache.dirty_evictions_per_data": "per_access",
    "counters.rebases_per_million": "per_Maccess",
    "counters.morphs_per_million": "per_Maccess",
    "counters.overflows_per_million": "per_Maccess",
    "persist.line_persists_per_write": "per_write",
    "persist.log_appends_per_write": "per_write",
    "dram.access_ns": "ns",
    "dram.share": "fraction",
    "dram.accesses_per_data": "per_access",
    "dram.row_hit_rate": "fraction",
    "trace.overhead": "ratio",
    "trace.coverage": "fraction",
}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark binary; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/")
        return None
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(out)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "--target", "morph_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "morph_perfbench")


# ---------------------------------------------------------------------------
# Reference statistics

def canonical(stats):
    return json.dumps(stats, sort_keys=True, separators=(",", ":"))


def digest(stats):
    return hashlib.sha256(canonical(stats).encode()).hexdigest()[:32]


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def scale(rep):
    return {"warmup_per_core": rep["warmup_per_core"],
            "accesses_per_core": rep["accesses_per_core"]}


def check_invariants(rep):
    """Cheap consistency checks that hold for every seed."""
    problems = []
    stats = rep["stats"]
    data = stats["traffic_reads"][0] + stats["traffic_writes"][0]
    if data != CORES * rep["accesses_per_core"]:
        problems.append("data accesses %d != %d"
                        % (data, CORES * rep["accesses_per_core"]))
    traffic = sum(stats["traffic_reads"]) + sum(stats["traffic_writes"])
    dram = stats["dram"]["reads"] + stats["dram"]["writes"]
    expected_dram = traffic if rep["timing"] else 0
    if dram != expected_dram:
        problems.append("DRAM accesses %d != %d" % (dram, expected_dram))
    return problems


def check_stats(reference, workload, seed, rep):
    """Return a list of mismatches against the committed reference."""
    problems = check_invariants(rep)
    if reference["scale"].get(workload) != scale(rep):
        problems.append("scale %s differs from the reference's %s; re-run "
                        "with --write-reference"
                        % (scale(rep), reference["scale"].get(workload)))
    stats = rep["stats"]
    full = reference["stats"].get(workload, {}).get(str(seed))
    pinned = reference["digests"].get(workload, {}).get(str(seed))
    if full is not None and full != stats:
        keys = sorted(k for k in set(full) | set(stats)
                      if full.get(k) != stats.get(k))
        problems.append("statistics differ from reference in "
                        + ", ".join(keys))
    elif pinned is not None and pinned != digest(stats):
        problems.append("statistics digest %s != reference %s"
                        % (digest(stats), pinned))
    return problems


# ---------------------------------------------------------------------------
# Repetitions

def run_child(binary, args):
    """Run one repetition; return its parsed JSON line or None."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, cwd=ROOT,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("repetition timed out: " + " ".join(args))
        return None
    if proc.returncode != 0:
        log("repetition exited %d: %s" % (proc.returncode, " ".join(args)))
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("unparseable output: " + " ".join(args))
        return None


def probe(binary):
    result = run_child(binary, ["--probe"])
    if result is not None:
        for key, mb in (("mem_latency_ns", "buffer_mb"),
                        ("llc_latency_ns", "llc_buffer_mb")):
            print("host.%s %.1f (diagnostic: pointer chase over %d MB)"
                  % (key, result[key], result[mb]))
    return result


def run_reps(binary, reference, workload, seed, seconds, traced):
    """Repeat until @seconds of host time is spent; return (reps that
    produced a result, tries, failures). A rep whose statistics fail a
    check is a failure but still timed: its timings are as real as any
    other."""
    args = ["--workload", workload, "--seed", str(seed)]
    if traced:
        args.append("--trace")
    min_reps = MIN_TRACED_REPS if traced else MIN_UNTRACED_REPS
    reps, attempted, failed = [], 0, 0
    first_stats = None
    start = time.monotonic()
    while attempted < min_reps or time.monotonic() - start < seconds:
        attempted += 1
        rep = run_child(binary, args)
        if rep is None:
            failed += 1
            continue
        problems = check_stats(reference, workload, seed, rep)
        if traced and not rep["same_program"]:
            problems.append("traced loop diverged from runWorkload")
        if first_stats is None:
            first_stats = rep["stats"]
        elif rep["stats"] != first_stats:
            problems.append("statistics differ between repetitions")
        for p in problems:
            log("%s seed %d: %s" % (workload, seed, p))
        failed += bool(problems)
        reps.append(rep)
    if str(seed) not in reference["digests"].get(workload, {}):
        log("no committed reference for %s seed %d; checked invariants "
            "and repeatability only" % (workload, seed))
    return reps, attempted, failed


def end_to_end(reps):
    """Medians, not the best repetition: on a host whose memory system
    is shared, the best of a call spreads about twice as much from call
    to call as the median (README.md, "Host noise")."""
    setups = [s for rep in reps for s in rep["setup_s"]]
    return {
        "accesses_per_s": statistics.median(
            rep["accesses"] / rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"]
                                         for rep in reps),
    }


def per_layer(reps):
    return {name: statistics.median(rep["metrics"][name] for rep in reps)
            for name in PER_LAYER_UNITS}


def timing_ab(binary, workload, seed):
    """Median DRAM share by the timing A/B, or None if the run failed."""
    rep = run_child(binary, ["--workload", workload, "--seed", str(seed),
                             "--ab"])
    return rep and statistics.median(rep["shares"])


def dram_cross_check(workload, span_share, ab_share):
    gap = ab_share - span_share
    check = {"dram.share": span_share, "dram.ab_share": ab_share,
             "gap": gap, "tolerance": [0.0, AB_MAX_GAP],
             "within_tolerance": 0.0 <= gap <= AB_MAX_GAP}
    print("%s dram.ab_share %.4g fraction (diagnostic: timing A/B; gap "
          "to dram.share %.3f, tolerance 0-%.2f: "
          "%s)" % (workload, ab_share, gap, AB_MAX_GAP,
                   "agree" if check["within_tolerance"] else "DISAGREE"))
    return check


def measure(binary, reference, workload, seed, seconds, traced):
    """Run one call; return (result line, DRAM cross-check or None)."""
    start = time.monotonic()
    run_ab = traced and workload in TIMING_WORKLOADS
    ab_share = timing_ab(binary, workload, seed) if run_ab else None
    reps, attempted, failed = run_reps(
        binary, reference, workload, seed,
        seconds - (time.monotonic() - start), traced)
    # The A/B run is one more operation of the call.
    attempted += run_ab
    failed += run_ab and ab_share is None
    if not reps:
        log("every repetition failed")
        return {"correct": False, "attempted": attempted,
                "failed": failed, "metrics": {}}, None
    values = per_layer(reps) if traced else end_to_end(reps)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))
    check = None
    if ab_share is not None:
        check = dram_cross_check(workload, values["dram.share"], ab_share)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, check


# ---------------------------------------------------------------------------
# Modes

def write_reference(binary):
    scales, stats, digests = {}, {}, {}
    for workload in WORKLOADS:
        stats[workload], digests[workload] = {}, {}
        for seed in REFERENCE_SEEDS:
            rep = run_child(binary, ["--workload", workload, "--seed",
                                     str(seed)])
            if rep is None:
                return 1
            problems = check_invariants(rep)
            if problems:
                log("%s seed %d: %s" % (workload, seed, "; ".join(problems)))
                return 1
            scales[workload] = scale(rep)
            digests[workload][str(seed)] = digest(rep["stats"])
            if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                stats[workload][str(seed)] = rep["stats"]
            log("%s seed %d blessed" % (workload, seed))
    doc = {
        "scale": scales,
        "stats": stats,
        "digests": digests,
    }
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def host_info():
    """CPU model and count, so a history point names its hardware."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count()}


def run_all(binary, reference, seed, seconds, json_out):
    latency = probe(binary)
    doc = {"seed": seed, "seconds": seconds, "host": host_info(),
           "host_mem_latency_ns": latency and latency["mem_latency_ns"],
           "host_llc_latency_ns": latency and latency["llc_latency_ns"],
           "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        result = {}
        for traced in (False, True):
            r, check = measure(binary, reference, workload, seed, seconds,
                               traced)
            ok = ok and r["correct"]
            result["trace" if traced else "end_to_end"] = r
            if check is not None:
                result["dram_cross_check"] = check
        doc["workloads"][workload] = result
    if json_out:
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--json-out",
                        help="with --all: write the results document here")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (args.all or args.write_reference or args.workload):
        parser.error("one of --workload, --all or --write-reference "
                     "is required")

    binary = build()
    if binary is None:
        return 2
    if args.write_reference:
        return write_reference(binary)
    reference = load_reference()
    if args.all:
        return run_all(binary, reference, args.seed, args.seconds,
                       args.json_out)

    probe(binary)
    result, _ = measure(binary, reference, args.workload, args.seed,
                        args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
