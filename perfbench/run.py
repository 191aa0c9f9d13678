#!/usr/bin/env python3
"""The eus benchmark: builds the harness, runs one workload, checks its
outputs and prints every metric.

    python3 perfbench/run.py --workload study-ds3 --seed 7 --seconds 10 --trace 0

Workloads (perfbench/README.md says why each exists):
  study-ds3    StudyEngine::run, the paper's five populations on dataset 3
  serve-fleet  a router and two backends under the serving mix

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
the traced variant and prints the per-layer metrics, and writes the spans
to .bench_build/perfbench/traces/.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero
without that line when the benchmark cannot run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "eus_perfbench")
WORKLOADS = ("study-ds3", "serve-fleet")
# Set-ups per run, reported as a median: set-up is cheap and noisy, so it is
# repeated far more often than the timed work.
SETUPS = 20
HARNESS_TIMEOUT_S = 170
# Reported in place of a percentile that lands on a failed request.
MISSING = 1e9

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "front_hv": "ratio",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "workload.build_s": "s",
    "sched.build_s": "s",
    "sched.full_ns_per_task": "ns",
    "sched.trusted_ns_per_task": "ns",
    "sched.delta_ns_per_task": "ns",
    "sched.delta_share": "ratio",
    "sched.machines_per_delta": "count",
    "heuristics.seed_ms.min-energy": "ms",
    "heuristics.seed_ms.max-utility": "ms",
    "heuristics.seed_ms.max-upe": "ms",
    "heuristics.seed_ms.min-min": "ms",
    "nsga2.evaluation_cpu_share": "ratio",
    "nsga2.variation_cpu_share": "ratio",
    "nsga2.selection_cpu_share": "ratio",
    "nsga2.evaluations": "count",
    "nsga2.generations": "count",
    "study.cpu_util": "ratio",
    "study.pop_finish_spread_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "cold_p99_ms": "ms",
    "hit_p99_ms": "ms",
    "delta_p99_ms": "ms",
    "capacity_rps": "1/s",
    "deadline_hv": "ratio",
    "serve.queue_ms.p50": "ms",
    "serve.queue_ms.p99": "ms",
    "serve.service_ms.cold.p50": "ms",
    "serve.service_ms.cold.p99": "ms",
    "serve.service_ms.delta.p50": "ms",
    "serve.service_ms.delta.p99": "ms",
    "serve.transport_ms.p50": "ms",
    "serve.transport_ms.p99": "ms",
    "serve.cache_hit_share": "ratio",
    "serve.deadline_generations.p50": "count",
    "serve.evals_per_ms": "1/ms",
    "serve.partial_share": "ratio",
    "serve.parse_us": "us",
    "serve.fingerprint_us": "us",
    "tenant.warm_share": "ratio",
    "tenant.archive_evictions": "count",
    "fleet.hop_ms.p50": "ms",
    "fleet.hop_ms.p99": "ms",
    "fleet.backend_skew": "ratio",
    "fleet.retries": "count",
    "fleet.upstream_failed": "count",
    "loadgen.late_ms.p99": "ms",
    "trace.overhead_share": "ratio",
}

SEED_NAMES = {
    "min-energy": "min-energy",
    "max-utility": "max-utility",
    "max-utility-per-energy": "max-upe",
    "min-min-completion-time": "min-min",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The caller's environment minus every EUS_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EUS_")}


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; waits for it even on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=clean_env(), cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(jobs):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("eus sources (src/) not found next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD, "-j", str(jobs)], 840) != 0:
        fail("build failed")


class Report:
    """Collects metrics, check failures and human-readable lines."""

    def __init__(self):
        self.metrics = {}
        self.problems = []
        self.lines = []

    def put(self, name, value, unit, note=""):
        if not math.isfinite(value):
            # Only a latency percentile over failed requests gets here.
            value, note = MISSING, note + "  (failed requests: counted as missing)"
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:34s} {value:14.6g} {unit}{note}")

    def pct(self, name, samples, q, unit):
        value, n = benchlib.percentile(samples, q)
        self.put(name, value, unit, f"  (n={n})")

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def counter(report, counters, name):
    """A counter by name; a missing one is reported as absent, not fatal."""
    if name in counters:
        return counters[name]
    report.lines.append(f"  (counter {name} absent; reported as 0)")
    return 0


def share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(report, counters, timers, cpu_s, layers):
    """The workload, sched, heuristics and NSGA-II rows every workload has.

    `layers` holds the harness's own timings: workload_s, sched_s,
    evaluator (ns per task) and seed_ms (per heuristic)."""
    report.put("workload.build_s", layers["workload_s"], "s")
    report.put("sched.build_s", layers["sched_s"], "s")
    for key in ("full", "trusted", "delta"):
        name = f"{key}_ns_per_task"
        report.put(f"sched.{name}", layers["evaluator"][name], "ns")
    hits = counter(report, counters, "evaluator.incremental.hits")
    fallbacks = counter(report, counters, "evaluator.incremental.fallbacks")
    machines = counter(report, counters, "evaluator.incremental.machines_resimulated")
    report.put("sched.delta_share", share(hits, hits + fallbacks), "ratio")
    report.put("sched.machines_per_delta", share(machines, hits), "count")
    for key, short in SEED_NAMES.items():
        report.put(f"heuristics.seed_ms.{short}", layers["seed_ms"][key], "ms")
    for phase in ("evaluation", "variation", "selection"):
        report.put(f"nsga2.{phase}_cpu_share",
                   share(timers.get(f"nsga2.{phase}_s", 0.0), cpu_s), "ratio")
    report.put("nsga2.evaluations", counter(report, counters, "nsga2.evaluations"), "count")
    report.put("nsga2.generations", counter(report, counters, "nsga2.generations"), "count")


# --- study workloads -------------------------------------------------------

def check_study_run(report, doc, scenario, run):
    """Checks one study's fronts; returns their digest."""
    e_lo, u_hi = scenario["energy_lower"], scenario["utility_upper"]
    fronts = run["fronts"]
    report.check(len(fronts) == 5, f"expected 5 populations, got {len(fronts)}")
    for p, per_checkpoint in enumerate(fronts):
        report.check(len(per_checkpoint) == len(doc["checkpoints"]),
                     f"population {p}: missing checkpoints")
        previous = 0.0
        for c, front in enumerate(per_checkpoint):
            where = f"scenario seed {scenario['seed']} population {p} checkpoint {c}"
            report.check(len(front) > 0, f"{where}: empty front")
            report.check(benchlib.is_nondominated(front),
                         f"{where}: front holds a dominated point")
            report.check(benchlib.within_bounds(front, e_lo, u_hi),
                         f"{where}: front beats the analytic bounds")
            hv = benchlib.normalized_hv(front, e_lo, u_hi)
            report.check(hv >= previous,
                         f"{where}: hypervolume fell from {previous} to {hv}")
            previous = hv
    return benchlib.front_digest(fronts)


def final_front_hv(scenario):
    """Mean normalized hypervolume of the five populations' final fronts."""
    fronts = scenario["run"]["fronts"]
    return sum(benchlib.normalized_hv(per_checkpoint[-1], scenario["energy_lower"],
                                      scenario["utility_upper"])
               for per_checkpoint in fronts) / len(fronts)


def study_metrics(report, doc, args):
    scenarios = doc["datasets"]
    digests = [check_study_run(report, doc, sc, sc["run"]) for sc in scenarios]
    # The least disturbed study: one study's wall time has a long tail (see
    # perfbench/README.md), which a median of five does not hold steady.
    study_s = min(sc["run"]["study_s"] for sc in scenarios)
    setups = [s for sc in scenarios for s in sc["setups"]]
    if not args.trace:
        report.put("setup_s", benchlib.median(s["total_s"] for s in setups), "s",
                   f"  (median of {len(setups)})")
        report.put("run_s", study_s, "s", f"  (fastest of {len(scenarios)} studies)")
        report.put("front_hv", sum(final_front_hv(sc) for sc in scenarios)
                   / len(scenarios), "ratio", f"  ({len(scenarios)} scenarios)")
        report.put("peak_rss_mib", doc["peak_rss_mib"], "MiB")
        return 5 * len(scenarios), 0

    traced = doc["traced"]
    report.check(check_study_run(report, doc, scenarios[0], traced) == digests[0],
                 "traced study's fronts differ from the untraced study's")
    layer_metrics(report, traced["counters"], traced["timers"], traced["cpu_s"],
                  {"workload_s": benchlib.median(s["workload_s"] for s in setups),
                   "sched_s": benchlib.median(s["sched_s"] for s in setups),
                   "evaluator": doc["evaluator"], "seed_ms": doc["seed_ms"]})
    report.put("study.cpu_util",
               share(traced["cpu_s"], traced["study_s"] * doc["threads"]), "ratio")
    report.put("study.pop_finish_spread_s",
               max(traced["pop_finish_s"]) - min(traced["pop_finish_s"]), "s")
    # The traced study ran between two untraced studies of its scenario.
    # Compared in CPU seconds: one study's wall time varies by 20% with how
    # the pool spreads its populations (perfbench/README.md), its CPU time
    # by a few percent, and tracing adds work, not waiting.
    untraced_cpu_s = doc["untraced_cpu_s"]
    report.put("trace.overhead_share",
               traced["cpu_s"] / (sum(untraced_cpu_s) / len(untraced_cpu_s)) - 1,
               "ratio", f"  (CPU seconds, against the mean of {len(untraced_cpu_s)} "
               "untraced studies around it)")
    bypassed(report)
    write_trace(args, doc["spans"])
    # Populations evolved: the five studies, the traced one and the two around it.
    return 5 * (len(scenarios) + 3), 0


# --- serve-fleet ----------------------------------------------------------

EXPECTED_CODES = {"deadline": (200, 206)}
KIND, DUE, SEND, RECV, CODE, CACHE, WARM, GENS, EVALS, QUEUE, SERVICE, FRONT = range(12)


def check_samples(report, samples, phase):
    """Counts failed requests and checks every answer; returns failed."""
    failed = 0
    for s in samples:
        kind, code = s[KIND], s[CODE]
        if code not in EXPECTED_CODES.get(kind, (200,)):
            failed += 1
            continue
        where = f"{phase} {kind} request"
        report.check(benchlib.is_nondominated(s[FRONT]),
                     f"{where}: front holds a dominated point")
        report.check(len(s[FRONT]) > 0, f"{where}: empty front")
        if kind in ("hit", "query"):
            report.check(s[CACHE] == 1, f"{where}: not answered from the cache")
        if kind == "delta":
            report.check(s[WARM] == 1, f"{where}: not warm")
    report.check(failed == 0, f"{phase}: {failed} requests failed or were refused")
    return failed


def latency_ms(s):
    # A failed or refused request counts as missing every limit.
    ok = s[CODE] in EXPECTED_CODES.get(s[KIND], (200,))
    return (s[RECV] - s[DUE]) * 1e3 if ok else float("inf")


def serve_metrics(report, doc, args):
    phase_b = doc["phase_b"]
    samples = phase_b["samples"]
    failed = check_samples(report, samples, "phase B")
    attempted = len(samples)
    cold = doc["cold_sample"]
    report.check(len(cold) > 0 and all(c["same"] for c in cold),
                 "a routed cold response differs from serve::handle_allocate "
                 "on the same request")
    setups = doc["setups"]
    if not args.trace:
        report.put("setup_s", benchlib.median(s["total_s"] for s in setups), "s",
                   f"  (median of {len(setups)})")
        pieces = phase_b["piece_s"]
        report.put("run_s", min(pieces), "s",
                   f"  (fastest of {len(pieces)} pieces of {attempted // len(pieces)} requests)")
        report.put("front_hv", sum(benchlib.normalized_hv(
            c["front"], c["energy_lower"], c["utility_upper"]) for c in cold)
                   / max(1, len(cold)), "ratio", f"  ({len(cold)} cold fronts)")
        report.put("peak_rss_mib", doc["peak_rss_mib"], "MiB")
        return attempted, failed

    phase_a = doc["phase_a"]["samples"]
    failed += check_samples(report, phase_a, "phase A")
    attempted += len(phase_a)
    by_kind = {}
    for s in phase_a:
        by_kind.setdefault(s[KIND], []).append(s)

    def lat(*kinds):
        return [latency_ms(s) for k in kinds for s in by_kind.get(k, [])]

    counters = doc["counters"]
    layer_metrics(report, counters, doc["timers"], doc["cpu_s"], doc["layers"])
    report.put("study.cpu_util", 0.0, "ratio", "  (no study: bypassed)")
    report.put("study.pop_finish_spread_s", 0.0, "s", "  (no study: bypassed)")

    report.pct("p50_ms", lat(*by_kind), 0.5, "ms")
    report.pct("p99_ms", lat(*by_kind), 0.99, "ms")
    report.pct("cold_p99_ms", lat("cold", "deadline"), 0.99, "ms")
    report.pct("hit_p99_ms", lat("hit", "query"), 0.99, "ms")
    report.pct("delta_p99_ms", lat("delta"), 0.99, "ms")
    report.put("capacity_rps", len(samples) / phase_b["duration_s"], "1/s")
    ratios = []
    for d in doc["deadline"]:
        report.check(d["full_code"] == 200, "no-deadline reference run failed")
        full = benchlib.normalized_hv(d["full"], d["energy_lower"], d["utility_upper"])
        part = benchlib.normalized_hv(d["partial"], d["energy_lower"], d["utility_upper"])
        if full > 0:
            ratios.append(part / full)
    report.check(len(ratios) > 0, "no partial deadline responses to compare")
    report.put("deadline_hv", benchlib.median(ratios) if ratios else 0.0, "ratio",
               f"  (median of {len(ratios)})")

    timed = [s for s in phase_a if s[CODE] in (200, 206)]
    report.pct("serve.queue_ms.p50", [s[QUEUE] for s in timed], 0.5, "ms")
    report.pct("serve.queue_ms.p99", [s[QUEUE] for s in timed], 0.99, "ms")
    for kind in ("cold", "delta"):
        service = [s[SERVICE] for s in by_kind.get(kind, [])]
        report.pct(f"serve.service_ms.{kind}.p50", service, 0.5, "ms")
        report.pct(f"serve.service_ms.{kind}.p99", service, 0.99, "ms")
    spans = doc["spans"]
    self_s = benchlib.self_times(spans)
    transport = [self_s[i] * 1e3 for i, s in enumerate(spans)
                 if s["name"] == "client.round_trip"]
    late = [(s["end_s"] - s["start_s"]) * 1e3 for s in spans if s["name"] == "loadgen.wait"]
    report.pct("serve.transport_ms.p50", transport, 0.5, "ms")
    report.pct("serve.transport_ms.p99", transport, 0.99, "ms")
    cache_hits = counter(report, counters, "serve.cache.hits")
    cache_misses = counter(report, counters, "serve.cache.misses")
    report.put("serve.cache_hit_share", share(cache_hits, cache_hits + cache_misses), "ratio")
    deadline = by_kind.get("deadline", [])
    report.pct("serve.deadline_generations.p50", [s[GENS] for s in deadline], 0.5, "count")
    evolved = by_kind.get("cold", []) + deadline
    report.put("serve.evals_per_ms", share(sum(s[EVALS] for s in evolved),
                                           sum(s[SERVICE] for s in evolved)), "1/ms")
    report.put("serve.partial_share",
               share(sum(1 for s in deadline if s[CODE] == 206), len(deadline)), "ratio")
    report.put("serve.parse_us", doc["protocol"]["parse_us"], "us")
    report.put("serve.fingerprint_us", doc["protocol"]["fingerprint_us"], "us")
    warm = counter(report, counters, "serve.delta.warm")
    cold_deltas = counter(report, counters, "serve.delta.cold")
    report.put("tenant.warm_share", share(warm, warm + cold_deltas), "ratio")
    report.put("tenant.archive_evictions",
               counter(report, counters, "archive.evictions"), "count")
    report.check(doc["hop"]["misses"] == 0, "a hop-measurement request missed the cache")
    hops = [routed - direct for routed, direct in doc["hop"]["pairs"]]
    report.pct("fleet.hop_ms.p50", hops, 0.5, "ms")
    report.pct("fleet.hop_ms.p99", hops, 0.99, "ms")
    per_backend = doc["backend_requests"]
    report.put("fleet.backend_skew",
               share(max(per_backend), sum(per_backend) / len(per_backend)), "ratio")
    report.put("fleet.retries", counter(report, counters, "fleet.retries"), "count")
    report.put("fleet.upstream_failed",
               counter(report, counters, "fleet.upstream_failed"), "count")
    late_p99, n = benchlib.percentile(late, 0.99)
    report.put("loadgen.late_ms.p99", late_p99, "ms", f"  (n={n})")
    # Phase A is valid while the generator's p99 lateness stays below the
    # fastest class's median latency; beyond that its percentiles measure
    # the generator as much as the fleet.
    late_bound, _ = benchlib.percentile(lat("hit", "query"), 0.5)
    if late_p99 > late_bound:
        # A measurement problem, not a wrong output: flag it, keep `correct`.
        report.lines.append(f"  PHASE A INVALID: the load generator ran {late_p99:.3f} ms "
                            f"late at p99, beyond the hit class's p50 of "
                            f"{late_bound:.3f} ms")
    # Pieces of one closed-loop pass alternate: even ones untraced, odd ones
    # traced, so machine drift falls on both kinds alike.
    pieces = doc["alternating_piece_s"]
    untraced, traced = pieces[0::2], pieces[1::2]
    report.put("trace.overhead_share",
               (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1,
               "ratio", f"  ({len(traced)} traced pieces against {len(untraced)} untraced)")
    write_trace(args, spans)
    return attempted, failed


def bypassed(report):
    """Serve-side metrics of a workload that never starts a server."""
    for name, unit in PER_LAYER.items():
        if name not in report.metrics:
            report.put(name, 0.0, unit, "  (bypassed)")


def write_trace(args, spans):
    self_s = benchlib.self_times(spans)
    totals = {}
    for span, own in zip(spans, self_s):
        entry = totals.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span["end_s"] - span["start_s"]
        entry["self_s"] += own
    path = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "by_name": totals,
                   "spans": [dict(s, self_s=own) for s, own in zip(spans, self_s)]}, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    threads = len(os.sched_getaffinity(0))
    build(threads)
    # Raw results run to tens of MB; only the latest per workload is kept.
    out = os.path.join(BUILD, "results", f"{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    code = run_quiet([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace),
                      "--threads", str(threads), "--setups", str(SETUPS),
                      "--out", out], HARNESS_TIMEOUT_S)
    if code != 0:
        fail(f"harness exited with {code}")
    with open(out) as f:
        doc = json.load(f)

    report = Report()
    try:
        if args.workload == "serve-fleet":
            attempted, failed = serve_metrics(report, doc, args)
        else:
            attempted, failed = study_metrics(report, doc, args)
    except benchlib.InsufficientSamples as e:
        fail(f"too few samples for a percentile: {e}")
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(report.metrics))
    if missing:
        fail(f"metrics not produced: {missing}")
    metrics = {name: report.metrics[name] for name in wanted}

    print(f"{args.workload} seed={args.seed} trace={args.trace} threads={threads}")
    print("\n".join(report.lines))
    for problem in report.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": not report.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
