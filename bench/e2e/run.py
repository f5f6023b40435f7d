#!/usr/bin/env python3
"""End-to-end benchmark of the validator: time from source text to verdict.

  python3 bench/e2e/run.py [--seed=N]      build, run every workload, print
                                           every metric, write a result JSON
  python3 bench/e2e/run.py --repeat=5      five sets (seeds N..N+4) and the
                                           spread of every end-to-end metric
  python3 bench/e2e/run.py --compare PARENT.json CHANGE.json
  python3 bench/e2e/run.py --selftest      flip one expected answer per
                                           workload; must exit non-zero
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                           one workload; the last line of
                                           stdout is a JSON summary

Every round is a fresh parcoach_bench process (main.cpp). Untraced rounds
give the end-to-end metrics; one counted round and two traced rounds give the
per-layer metrics. See README.md for what each number means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "parcoach_bench"
WORKLOADS = ["verdict_sweep", "fig1_compile", "npb_bt_mz", "epcc_armed"]
# Untraced rounds per workload per run. The host's noise comes in bursts, so
# a run is several short fresh processes, not one long one.
ROUNDS = 5

COMPILE_LAYERS = [
    "frontend.parse", "frontend.sema", "frontend.lower", "passes.optimize",
    "ir.emit",
]
ANALYSIS_LAYERS = [
    "core.summaries", "core.phases", "core.algorithm1", "core.thread_level",
    "core.plan",
]
TIMED_LAYERS = COMPILE_LAYERS + ANALYSIS_LAYERS + [
    "interp.bc_compile", "interp.bc_passes", "interp.run", "simmpi.coll",
    "simmpi.parked", "simmpi.teardown",
]
COUNTED_LAYERS = [
    "core.warnings", "core.armed_sites", "interp.bc_instrs", "interp.ops",
    "simmpi.slots", "simmpi.slot_waits", "simmpi.comms_created",
    "simmpi.watchdog_polls", "rt.cc_checks", "trace.events",
]


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then lets cmake decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "parcoach_bench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_round(workload, seed, seconds, mode, flip=False):
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--mode={mode}"]
    if flip:
        cmd.append("--flip")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + 30)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} round timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"{workload} {mode} round exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


# ---- Metrics ------------------------------------------------------------------

def end_to_end(rounds):
    """Percentiles over the samples pooled from all rounds; the rest are
    medians across rounds."""
    pooled = [ns / 1e6 for r in rounds for ns in r["samples_ns"]]
    return {
        "verdict_ms_p50": median(pooled),
        "verdict_ms_p90": statistics.quantiles(pooled, n=10,
                                               method="inclusive")[8],
        "verdicts_per_s": median(
            [len(r["samples_ns"]) / (r["loop_ns"] / 1e9) for r in rounds]),
        "cpu_ms_per_verdict": median(
            [r["cpu_ns"] / len(r["samples_ns"]) / 1e6 for r in rounds]),
        "peak_rss_mb": median([r["maxrss_kb"] / 1024 for r in rounds]),
        "setup_s": median([r["setup_ns"] / 1e9 for r in rounds]),
    }


def traced_layers(r, untraced_p50_ns):
    """Per-verdict layer metrics of one traced round."""
    t = r["traced"]
    n = len(r["samples_ns"])
    ns, counts = t["ns"], t["counts"]
    m = {f"{k}_ms": ns[k] / n / 1e6 for k in TIMED_LAYERS}
    outside = max(0, ns["interp.ranks_active"] - ns["simmpi.coll"])
    m["interp.outside_coll_ms"] = outside / n / 1e6
    m["interp.ns_per_op"] = outside / counts["interp.ops"] \
        if counts["interp.ops"] else 0.0
    baseline = sum(ns[k] for k in COMPILE_LAYERS)
    m["core.overhead_pct"] = 100.0 * sum(
        ns[k] for k in ANALYSIS_LAYERS) / baseline
    for k in COUNTED_LAYERS:
        m[k] = counts[k] / n
    for name, subject_ns in t["fig1_ns"].items():
        m[f"fig1.{name}.compile_ms"] = subject_ns / 1e6
    m["trace.overhead_pct"] = 100.0 * (
        median(r["samples_ns"]) / untraced_p50_ns - 1.0)
    return m


def per_layer(counted, traced_rounds):
    """Medians of the traced rounds, plus process counts from the counted
    (untraced) round."""
    base_p50 = median(counted["samples_ns"])
    per_round = [traced_layers(r, base_p50) for r in traced_rounds]
    m = {k: median([p[k] for p in per_round]) for k in per_round[0]}
    n = len(counted["samples_ns"])
    m["alloc.count_per_verdict"] = counted["allocs"] / n
    m["alloc.bytes_per_verdict"] = counted["alloc_bytes"] / n
    m["os.ctx_switches_per_verdict"] = counted["ctx_switches"] / n
    m["miniomp.threads_per_verdict"] = (
        counted["threads_created"] - counted["ranks_started"]) / n
    return m


def integrity(rounds):
    """Integrity problems the rounds reported, plus deterministic counts that
    differ between traced rounds."""
    problems = [p for r in rounds for p in r["integrity"]]
    traced = [r["traced"]["deterministic"] for r in rounds if "traced" in r]
    for other in traced[1:]:
        for key, value in traced[0].items():
            if other[key] != value:
                problems.append(f"{key} differs between traced rounds: "
                                f"{traced[0][key]} vs {other[key]}")
    return problems


def units(spec):
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---- One workload (the form BENCHMARK.json's command uses) -------------------

def run_one(args, spec):
    unit = units(spec)
    if args.trace:
        counted = run_round(args.workload, args.seed, args.seconds / 3,
                            "counted")
        traced = [run_round(args.workload, args.seed, args.seconds / 3,
                            "traced") for _ in range(2)]
        rounds = [counted] + traced
        metrics = per_layer(counted, traced)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        rounds = [run_round(args.workload, args.seed, args.seconds / ROUNDS,
                            "plain") for _ in range(ROUNDS)]
        metrics = end_to_end(rounds)
        names = [m["name"] for m in spec["end_to_end"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = integrity(rounds)
    samples = sum(len(r["samples_ns"]) for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {samples} timed "
          f"verdicts, error_rate {failed / attempted:.6f}")
    for p in [f for r in rounds for f in r["failures"]] + problems:
        print(f"  FAIL {p}")
    for name in names:
        print(f"  {name:34s} {metrics[name]:16.6f} {unit[name]}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit[k]} for k in names},
    }))
    return 0 if correct else 1


# ---- Every workload ------------------------------------------------------------

def run_set(seed, seconds):
    """Untraced rounds interleaved across workloads, then each workload's
    counted and traced rounds."""
    plain = {w: [] for w in WORKLOADS}
    for _ in range(ROUNDS):
        for w in WORKLOADS:
            plain[w].append(run_round(w, seed, seconds / ROUNDS, "plain"))
    result = {}
    for w in WORKLOADS:
        counted = run_round(w, seed, seconds / 3, "counted")
        traced = [run_round(w, seed, seconds / 3, "traced") for _ in range(2)]
        rounds = plain[w] + [counted] + traced
        attempted = sum(r["attempted"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        result[w] = {
            "end_to_end": end_to_end(plain[w]),
            "per_layer": per_layer(counted, traced),
            "deterministic": traced[0]["traced"]["deterministic"],
            "samples": sum(len(r["samples_ns"]) for r in plain[w]),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "failures": [f for r in rounds for f in r["failures"]],
            "integrity": integrity(rounds),
        }
    return result


def run_all(args, spec):
    seeds = list(range(args.seed, args.seed + args.repeat))
    sets = []
    for seed in seeds:
        print(f"set seed={seed}: {len(WORKLOADS)} workloads x {ROUNDS} "
              f"rounds, then counted and traced rounds", flush=True)
        sets.append(run_set(seed, args.seconds))
    result = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    bad = False
    for w in WORKLOADS:
        runs = [s[w] for s in sets]
        entry = {
            "end_to_end": {k: [r["end_to_end"][k] for r in runs]
                           for k in runs[0]["end_to_end"]},
            "per_layer": {k: [r["per_layer"][k] for r in runs]
                          for k in runs[0]["per_layer"]},
            "deterministic": runs[0]["deterministic"],
            "samples": [r["samples"] for r in runs],
            "error_rate": [r["error_rate"] for r in runs],
            "failures": [f for r in runs for f in r["failures"]],
            "integrity": [p for r in runs for p in r["integrity"]],
        }
        result["workloads"][w] = entry
        bad |= any(r["failed"] for r in runs) or bool(entry["integrity"])

        print(f"\n== {w}: samples {entry['samples']}, error_rate "
              f"{max(entry['error_rate']):.6f}")
        for p in entry["failures"] + entry["integrity"]:
            print(f"  FAIL {p}")
        print(f"  {'end-to-end metric':34s} {'median':>14s} {'IQR/median':>11s}"
              f" {'bound':>7s}")
        for m in spec["end_to_end"]:
            values = entry["end_to_end"][m["name"]]
            s = spread(values)
            flag = "" if s * 1.5 <= m["bound"] else "  spread too wide"
            print(f"  {m['name']:34s} {median(values):14.4f} {s:11.4f} "
                  f"{m['bound']:7.3f} {m['unit']}{flag}")
        print(f"  {'per-layer metric':34s} {'median':>14s}")
        for m in spec["per_layer"]:
            values = entry["per_layer"][m["name"]]
            print(f"  {m['name']:34s} {median(values):14.4f} {m['unit']}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 1 if bad else 0


# ---- Compare ------------------------------------------------------------------

def label(parent, change, bound, better):
    """The choosing-metrics rule: a gain needs nine tenths of the pairs
    (runs paired in order) and a median difference beyond the parent's own
    interquartile range; a parent spread wider than the bound leaves the
    metric unresolved unless every change run beats every parent run."""
    sign = 1 if better == "higher" else -1

    def wins(c, p):
        return sign * (c - p) > 0

    pm, cm = median(parent), median(change)
    pairs = list(zip(parent, change))
    won = sum(wins(c, p) for p, c in pairs)
    parent_iqr = spread(parent) * pm
    if wins(cm, pm) and won >= 0.9 * len(pairs) and abs(cm - pm) > parent_iqr:
        return "better"
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse beyond bound"
    if spread(parent) > bound and not all(
            wins(c, p) for c in change for p in parent):
        return "unresolved"
    return "unchanged"


def compare(parent_path, change_path, spec):
    parent_run = json.loads(Path(parent_path).read_text())
    change_run = json.loads(Path(change_path).read_text())
    parent, change = parent_run["workloads"], change_run["workloads"]
    # Work counts depend on the seed only; with the same first seed they
    # must repeat exactly, or the two sides did not run the same work.
    if parent_run["seeds"][0] == change_run["seeds"][0]:
        for w in WORKLOADS:
            if parent[w]["deterministic"] != change[w]["deterministic"]:
                print(f"{w}: deterministic counts differ: "
                      f"{parent[w]['deterministic']} vs "
                      f"{change[w]['deterministic']}")
    print(f"{'workload':14s} {'metric':20s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}  label")
    worse = False
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            p = parent[w]["end_to_end"][m["name"]]
            c = change[w]["end_to_end"][m["name"]]
            verdict = label(p, c, m["bound"], m["better"])
            worse |= verdict == "worse beyond bound"
            print(f"{w:14s} {m['name']:20s} {quartiles(p):>32s} "
                  f"{quartiles(c):>32s}  {verdict}")
    return 1 if worse else 0


def quartiles(values):
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{median(values):.4f} [{q1:.4f}, {q3:.4f}]"


# ---- Self-test -----------------------------------------------------------------

def selftest(args):
    """Every workload must reject a flipped expected answer: the run then
    fails, as a run with a wrong verdict must."""
    caught = []
    for w in WORKLOADS:
        r = run_round(w, args.seed, 1.0, "plain", flip=True)
        rate = r["failed"] / r["attempted"]
        print(f"{w:14s} error_rate {rate:.6f} ({r['failed']}/{r['attempted']})")
        caught.append(rate > 0)
    if all(caught):
        print("selftest: every workload rejected the flipped answer")
        return 1
    print("selftest FAILED: a flipped answer went unnoticed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per workload (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", default=str(BUILD / "e2e-result.json"))
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        if args.selftest:
            return selftest(args)
        if args.workload:
            return run_one(args, spec)
        return run_all(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
