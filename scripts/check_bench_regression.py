#!/usr/bin/env python3
"""Advisory data-plane bench regression check.

Compares a fresh bench run against its committed baseline. Three bench formats
are recognised by their "bench" field:

* micro_dataplane (BENCH_dataplane.json, "after" block): throughput rates must
  not drop more than the threshold, and allocs_per_pick must be 0.
* delta (BENCH_delta.json): the snapshot-vs-delta reduction factors must not
  drop more than the threshold, entries_reduction_x must stay >= 5 (the
  acceptance floor — it is scale-independent), and maps_identical must be true
  (delta-patched subscribers must be byte-equivalent to snapshot-fed ones).
  apply_reduction_x is compared only when baseline and fresh ran at the same
  SM_BENCH_SCALE: the one-time owned-map materialisation amortises over the
  publish count, so the factor is not comparable across scales.
* smr_failover (BENCH_smr_failover.json): deterministic must be true (a
  same-seed replay divergence is a correctness bug, not noise), no point may
  record invariant violations, success_rate must not drop more than the
  threshold against the matching kill-interval baseline point, and the
  leaderless windows must not grow more than the threshold. Absolute request
  counts are compared only at equal SM_BENCH_SCALE (the churn window scales).
* sim_parallel (BENCH_sim_parallel.json): deterministic must be true (digest
  divergence across thread counts is a correctness bug, not noise),
  speedup_8t_x and fleet_size_x must stay above the 5x acceptance floor and
  must not drop more than the threshold against the baseline (both are
  critical-path projections from per-window profiles, hardware-independent),
  and serial_events_per_sec is compared as an ordinary noisy rate.
* obs_overhead (BENCH_obs_overhead.json): pick_overhead_pct must stay within
  the 5% acceptance ceiling, allocs_per_pick must be 0, every gray intensity
  must be detected, detection latency must not grow more than the threshold
  against the matching intensity baseline point, and demotion must keep
  improving p99 (improvement_x >= 1). The sim-clock numbers (detect_ms,
  improvement_x) are deterministic per seed; only the wall-clock pick rates
  carry runner noise.
* solver_scale (BENCH_solver_scale.json): deterministic must be true — the
  byte-identity of assignments across thread counts is a correctness contract,
  so a false value FAILS the check (exit 1), the one non-advisory case. The
  cold/warm evals-to-convergence ratio must stay above the 5x acceptance
  floor and must not drop more than the threshold against a same-scale
  baseline (advisory).
* solver_parallel (BENCH_solver_parallel.json): deterministic must be true
  (FAILS the check, as above). At equal scale the objective/violations per
  thread count are compared exactly — a drift means the solver's deterministic
  trajectory changed and the baseline needs regeneration (advisory).
* hotspot (BENCH_hotspot.json): deterministic must be true — the flash-crowd
  scenario's state digest must be byte-identical across sim threads {1,2,8}
  and a same-seed repeat, so a false value FAILS the check (exit 1). At the
  highest hotspot intensity, adaptive split/merge must beat a static shard map
  on both hold-window failure rate (lower) and goodput (higher); either one
  not holding is a warning. The adaptive hold-window p99.9 (successful
  requests only) per intensity must not grow more than the threshold against
  a same-scale baseline point (advisory — the sim clock is deterministic per
  seed, but CI runs at a reduced scale with its own curve).

Exits 0 in every advisory case — CI treats throughput deltas as advisory
because shared-runner throughput is noisy — but prints a loud warning (and a
GitHub ::warning:: annotation) when something regresses. The one exception is
a solver determinism violation, which exits 1: cross-thread divergence is a
correctness bug that no runner noise can explain. A missing baseline file is
advisory (warn, exit 0): the first PR that adds a bench has nothing committed
to compare against, and that must not fail the lane.

Usage: check_bench_regression.py <baseline.json> <fresh.json> [--threshold 0.20]
"""

import argparse
import json
import sys

RATE_KEYS = [
    "events_per_sec",
    "publishes_per_sec",
    "routed_requests_per_sec",
    "route_end_to_end_per_sec",
]

DELTA_FLOOR = 5.0  # acceptance floor for entries_reduction_x


def check_dataplane(reference, fresh, threshold):
    warnings = []
    for key in RATE_KEYS:
        base = reference.get(key)
        now = fresh.get(key)
        if not base or now is None:
            continue
        drop = (base - now) / base
        status = "WARN" if drop > threshold else "ok"
        print(f"{status:4} {key}: baseline {base:,.0f} fresh {now:,.0f} "
              f"({-drop:+.1%})")
        if drop > threshold:
            warnings.append(f"{key} dropped {drop:.1%} "
                            f"(baseline {base:,.0f}, fresh {now:,.0f})")

    allocs = fresh.get("allocs_per_pick")
    if allocs is not None:
        print(f"{'WARN' if allocs > 0 else 'ok':4} allocs_per_pick: {allocs}")
        if allocs > 0:
            warnings.append(f"allocs_per_pick is {allocs}, expected 0 "
                            "(router fast path should be allocation-free)")
    return warnings


def check_delta(reference, fresh, threshold):
    warnings = []
    same_scale = reference.get("scale") == fresh.get("scale")
    keys = ["entries_reduction_x"] + (["apply_reduction_x"] if same_scale else [])
    if not same_scale:
        print(f"note: scales differ (baseline {reference.get('scale')}, fresh "
              f"{fresh.get('scale')}); skipping apply_reduction_x comparison")
    for key in keys:
        base = reference.get(key)
        now = fresh.get(key)
        if not base or now is None:
            continue
        drop = (base - now) / base
        status = "WARN" if drop > threshold else "ok"
        print(f"{status:4} {key}: baseline {base:,.1f}x fresh {now:,.1f}x "
              f"({-drop:+.1%})")
        if drop > threshold:
            warnings.append(f"{key} dropped {drop:.1%} "
                            f"(baseline {base:,.1f}x, fresh {now:,.1f}x)")

    entries_x = fresh.get("entries_reduction_x")
    if entries_x is not None and entries_x < DELTA_FLOOR:
        print(f"WARN entries_reduction_x {entries_x:.1f}x below the "
              f"{DELTA_FLOOR:.0f}x acceptance floor")
        warnings.append(f"entries_reduction_x is {entries_x:.1f}x, "
                        f"acceptance floor is {DELTA_FLOOR:.0f}x")

    identical = fresh.get("maps_identical")
    print(f"{'ok' if identical else 'WARN':4} maps_identical: {identical}")
    if not identical:
        warnings.append("delta-patched subscriber maps diverged from "
                        "snapshot-fed ones — a correctness bug, not noise")
    return warnings


def check_smr_failover(reference, fresh, threshold):
    warnings = []
    deterministic = fresh.get("deterministic")
    print(f"{'ok' if deterministic else 'WARN':4} deterministic: {deterministic}")
    if not deterministic:
        warnings.append("same-seed replay diverged in the failover path — a "
                        "correctness bug, not noise")

    base_points = {p.get("kill_interval_s"): p for p in reference.get("points", [])}
    same_scale = reference.get("scale") == fresh.get("scale")
    if not same_scale:
        print(f"note: scales differ (baseline {reference.get('scale')}, fresh "
              f"{fresh.get('scale')}); comparing rates and windows only")
    for point in fresh.get("points", []):
        level = point.get("kill_interval_s")
        label = "none" if not level else f"{level:g}s"
        violations = point.get("violations", 0)
        if violations:
            print(f"WARN kill_interval={label}: {violations} invariant violation(s)")
            warnings.append(f"kill_interval={label} recorded {violations} "
                            "invariant violation(s) under failover chaos")
        base = base_points.get(level)
        if base is None:
            continue
        base_rate = base.get("success_rate")
        rate = point.get("success_rate")
        if base_rate and rate is not None:
            drop = (base_rate - rate) / base_rate
            status = "WARN" if drop > threshold else "ok"
            print(f"{status:4} kill_interval={label} success_rate: baseline "
                  f"{base_rate:.4f} fresh {rate:.4f} ({-drop:+.2%})")
            if drop > threshold:
                warnings.append(f"kill_interval={label} success_rate dropped "
                                f"{drop:.1%} (baseline {base_rate:.4f}, "
                                f"fresh {rate:.4f})")
        for key in ("mean_leaderless_ms", "max_leaderless_ms"):
            base_win = base.get(key)
            win = point.get(key)
            if base_win is None or win is None:
                continue
            floor = 10.0  # ignore sub-notify-window jitter
            grew = win > max(base_win * (1.0 + threshold), base_win + floor)
            status = "WARN" if grew else "ok"
            print(f"{status:4} kill_interval={label} {key}: baseline "
                  f"{base_win:.1f} fresh {win:.1f}")
            if grew:
                warnings.append(f"kill_interval={label} {key} grew from "
                                f"{base_win:.1f}ms to {win:.1f}ms")
    return warnings


SIM_SPEEDUP_FLOOR = 5.0  # acceptance floor for fleet_size_x at 8 threads


def check_sim_parallel(reference, fresh, threshold):
    warnings = []
    deterministic = fresh.get("deterministic")
    print(f"{'ok' if deterministic else 'WARN':4} deterministic: {deterministic}")
    if not deterministic:
        warnings.append("sharded-sim digests diverged across thread counts — "
                        "a correctness bug, not noise")

    for key in ("speedup_8t_x", "fleet_size_x"):
        now = fresh.get(key)
        if now is None:
            continue
        # The projection is hardware-independent, so the floor applies everywhere.
        if key == "fleet_size_x" and now < SIM_SPEEDUP_FLOOR:
            print(f"WARN {key} {now:.2f}x below the {SIM_SPEEDUP_FLOOR:.0f}x "
                  "acceptance floor")
            warnings.append(f"{key} is {now:.2f}x, acceptance floor is "
                            f"{SIM_SPEEDUP_FLOOR:.0f}x")
        base = reference.get(key)
        if not base:
            continue
        drop = (base - now) / base
        status = "WARN" if drop > threshold else "ok"
        print(f"{status:4} {key}: baseline {base:,.2f}x fresh {now:,.2f}x "
              f"({-drop:+.1%})")
        if drop > threshold:
            warnings.append(f"{key} dropped {drop:.1%} "
                            f"(baseline {base:.2f}x, fresh {now:.2f}x)")

    base_rate = reference.get("serial_events_per_sec")
    rate = fresh.get("serial_events_per_sec")
    if base_rate and rate is not None:
        drop = (base_rate - rate) / base_rate
        status = "WARN" if drop > threshold else "ok"
        print(f"{status:4} serial_events_per_sec: baseline {base_rate:,.0f} "
              f"fresh {rate:,.0f} ({-drop:+.1%})")
        if drop > threshold:
            warnings.append(f"serial_events_per_sec dropped {drop:.1%} "
                            f"(baseline {base_rate:,.0f}, fresh {rate:,.0f})")
    return warnings


OBS_OVERHEAD_CEILING_PCT = 5.0  # acceptance ceiling for pick_overhead_pct


def check_obs_overhead(reference, fresh, threshold):
    warnings = []
    overhead = fresh.get("pick_overhead_pct")
    if overhead is not None:
        over = overhead > OBS_OVERHEAD_CEILING_PCT
        print(f"{'WARN' if over else 'ok':4} pick_overhead_pct: {overhead:.2f}% "
              f"(ceiling {OBS_OVERHEAD_CEILING_PCT:.0f}%)")
        if over:
            warnings.append(f"pick_overhead_pct is {overhead:.2f}%, acceptance "
                            f"ceiling is {OBS_OVERHEAD_CEILING_PCT:.0f}%")

    allocs = fresh.get("allocs_per_pick")
    if allocs is not None:
        print(f"{'WARN' if allocs > 0 else 'ok':4} allocs_per_pick: {allocs}")
        if allocs > 0:
            warnings.append(f"allocs_per_pick is {allocs}, expected 0 "
                            "(accounting must stay allocation-free)")

    detected = fresh.get("detected_all")
    print(f"{'ok' if detected else 'WARN':4} detected_all: {detected}")
    if not detected:
        warnings.append("gray-failure detection missed an intensity — the "
                        "scorer never flagged a degraded replica")

    base_points = {(p.get("latency_multiplier"), p.get("loss")): p
                   for p in reference.get("points", reference.get("gray_points", []))}
    for point in fresh.get("gray_points", []):
        key = (point.get("latency_multiplier"), point.get("loss"))
        label = f"x{key[0]:g}/loss{key[1]:g}"
        improvement = point.get("improvement_x")
        if improvement is not None and improvement < 1.0:
            print(f"WARN {label}: improvement_x {improvement:.2f} < 1")
            warnings.append(f"{label}: demotion made p99 worse "
                            f"(improvement_x {improvement:.2f})")
        base = base_points.get(key)
        if base is None:
            continue
        base_detect = base.get("detect_ms")
        detect = point.get("detect_ms")
        if base_detect and detect is not None:
            grew = detect > base_detect * (1.0 + threshold)
            status = "WARN" if grew else "ok"
            print(f"{status:4} {label} detect_ms: baseline {base_detect:,} "
                  f"fresh {detect:,}")
            if grew:
                warnings.append(f"{label}: detection latency grew from "
                                f"{base_detect}ms to {detect}ms")
    return warnings


SOLVER_RATIO_FLOOR = 5.0  # acceptance floor for cold/warm evals-to-convergence


def check_solver_scale(reference, fresh, threshold):
    warnings = []
    fatals = []
    deterministic = fresh.get("deterministic")
    print(f"{'ok' if deterministic else 'FAIL':4} deterministic: {deterministic}")
    if not deterministic:
        fatals.append("solver assignments diverged across thread counts — a "
                      "correctness bug, not noise")

    ratio = fresh.get("ratio_cold_over_warm")
    bound = " (cold lower bound)" if fresh.get("ratio_is_lower_bound") else ""
    if ratio is not None:
        below = ratio < SOLVER_RATIO_FLOOR
        print(f"{'WARN' if below else 'ok':4} ratio_cold_over_warm: "
              f"{ratio:.1f}x{bound} (floor {SOLVER_RATIO_FLOOR:.0f}x)")
        if below:
            warnings.append(f"cold/warm evals-to-convergence ratio is "
                            f"{ratio:.1f}x, acceptance floor is "
                            f"{SOLVER_RATIO_FLOOR:.0f}x")

    same_scale = reference.get("scale") == fresh.get("scale")
    if not same_scale:
        print(f"note: scales differ (baseline {reference.get('scale')}, fresh "
              f"{fresh.get('scale')}); skipping ratio/evals comparisons")
        return warnings, fatals
    base = reference.get("ratio_cold_over_warm")
    if base and ratio is not None:
        drop = (base - ratio) / base
        status = "WARN" if drop > threshold else "ok"
        print(f"{status:4} ratio_cold_over_warm: baseline {base:,.1f}x fresh "
              f"{ratio:,.1f}x ({-drop:+.1%})")
        if drop > threshold:
            warnings.append(f"ratio_cold_over_warm dropped {drop:.1%} "
                            f"(baseline {base:.1f}x, fresh {ratio:.1f}x)")
    base_modes = {m.get("mode"): m for m in reference.get("modes", [])}
    for mode in fresh.get("modes", []):
        base = base_modes.get(mode.get("mode"))
        if base is None:
            continue
        base_evals = base.get("evals_to_convergence")
        evals = mode.get("evals_to_convergence")
        if not base_evals or base_evals < 0 or evals is None:
            continue
        if evals < 0:
            print(f"WARN {mode.get('mode')}: no longer converges on the ladder")
            warnings.append(f"mode {mode.get('mode')} converged in the baseline "
                            "but not in the fresh run")
            continue
        grew = (evals - base_evals) / base_evals
        status = "WARN" if grew > threshold else "ok"
        print(f"{status:4} {mode.get('mode')} evals_to_convergence: baseline "
              f"{base_evals:,} fresh {evals:,} ({grew:+.1%})")
        if grew > threshold:
            warnings.append(f"mode {mode.get('mode')} evals-to-convergence grew "
                            f"{grew:.1%} (baseline {base_evals:,}, "
                            f"fresh {evals:,})")
    return warnings, fatals


def check_solver_parallel(reference, fresh, threshold):
    warnings = []
    fatals = []
    deterministic = fresh.get("deterministic")
    print(f"{'ok' if deterministic else 'FAIL':4} deterministic: {deterministic}")
    if not deterministic:
        fatals.append("portfolio results diverged across thread counts — a "
                      "correctness bug, not noise")

    same_scale = reference.get("scale") == fresh.get("scale")
    if not same_scale:
        print(f"note: scales differ (baseline {reference.get('scale')}, fresh "
              f"{fresh.get('scale')}); skipping per-thread comparisons")
        return warnings, fatals
    base_points = {p.get("threads"): p for p in reference.get("points", [])}
    for point in fresh.get("points", []):
        base = base_points.get(point.get("threads"))
        if base is None:
            continue
        # Same scale + same seed means the trajectory is fully deterministic:
        # any drift is an intentional solver change awaiting baseline regen.
        for key in ("objective", "violations"):
            if base.get(key) != point.get(key):
                print(f"WARN threads={point.get('threads')} {key}: baseline "
                      f"{base.get(key)} fresh {point.get(key)}")
                warnings.append(f"threads={point.get('threads')} {key} changed "
                                f"({base.get(key)} -> {point.get(key)}); "
                                "regenerate the committed baseline if intended")
    return warnings, fatals


def check_hotspot(reference, fresh, threshold):
    warnings = []
    fatals = []
    deterministic = fresh.get("deterministic")
    print(f"{'ok' if deterministic else 'FAIL':4} deterministic: {deterministic}")
    if not deterministic:
        fatals.append("flash-crowd state digest diverged across sim thread "
                      "counts or a same-seed repeat — a correctness bug, not "
                      "noise")

    # The adaptive loop must do better than static sharding at the peak.
    peak = max(fresh.get("sweep", []), key=lambda p: p.get("intensity", 0),
               default=None)
    if peak is not None:
        for metric, better in (("failure_rate", "lower"),
                               ("goodput_per_s", "higher")):
            static = peak.get(f"static_{metric}")
            adaptive = peak.get(f"adaptive_{metric}")
            if static is None or adaptive is None:
                continue
            bad = adaptive >= static if better == "lower" else adaptive <= static
            print(f"{'WARN' if bad else 'ok':4} intensity={peak['intensity']:g} "
                  f"{metric}: static {static:,.6g} adaptive {adaptive:,.6g}")
            if bad:
                warnings.append(f"at peak intensity {peak['intensity']:g} the "
                                f"adaptive {metric} ({adaptive:,.6g}) is not "
                                f"{better} than static ({static:,.6g})")

    same_scale = reference.get("scale") == fresh.get("scale")
    if not same_scale:
        print(f"note: scales differ (baseline {reference.get('scale')}, fresh "
              f"{fresh.get('scale')}); skipping per-intensity comparisons")
        return warnings, fatals
    base_points = {p.get("intensity"): p for p in reference.get("sweep", [])}
    for point in fresh.get("sweep", []):
        intensity = point.get("intensity")
        base = base_points.get(intensity)
        if base is None:
            continue
        base_p999 = base.get("adaptive_hold_p999_ms")
        p999 = point.get("adaptive_hold_p999_ms")
        if not base_p999 or p999 is None:
            continue
        grew = (p999 - base_p999) / base_p999
        status = "WARN" if grew > threshold else "ok"
        print(f"{status:4} intensity={intensity:g} adaptive_hold_p999_ms: "
              f"baseline {base_p999:,.2f} fresh {p999:,.2f} ({grew:+.1%})")
        if grew > threshold:
            warnings.append(f"intensity={intensity:g} adaptive hold-window "
                            f"p99.9 grew {grew:.1%} (baseline "
                            f"{base_p999:,.2f}ms, fresh {p999:,.2f}ms)")
        base_splits = base.get("splits")
        splits = point.get("splits")
        if base_splits and not splits:
            print(f"WARN intensity={intensity:g}: planner no longer splits "
                  f"(baseline {base_splits})")
            warnings.append(f"intensity={intensity:g}: the adaptive planner "
                            f"stopped splitting (baseline {base_splits} "
                            "splits, fresh 0)")
    return warnings, fatals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="fresh bench output")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional drop before warning (default 0.20)")
    args = parser.parse_args()

    # Fail soft on a missing/unreadable baseline: the first PR that introduces a
    # bench has no committed file yet, and the lane is advisory either way.
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as err:
        print(f"::warning title=Data-plane bench regression::baseline "
              f"{args.baseline} unavailable ({err}); skipping comparison")
        baseline = {}
    with open(args.fresh) as f:
        fresh = json.load(f)

    # The committed dataplane file stores before/after; a raw bench run is flat.
    reference = baseline.get("after", baseline)

    fatals = []
    if fresh.get("bench") == "delta":
        warnings = check_delta(reference, fresh, args.threshold)
    elif fresh.get("bench") == "smr_failover":
        warnings = check_smr_failover(reference, fresh, args.threshold)
    elif fresh.get("bench") == "sim_parallel":
        warnings = check_sim_parallel(reference, fresh, args.threshold)
    elif fresh.get("bench") == "obs_overhead":
        warnings = check_obs_overhead(reference, fresh, args.threshold)
    elif fresh.get("bench") == "solver_scale":
        warnings, fatals = check_solver_scale(reference, fresh, args.threshold)
    elif fresh.get("bench") == "solver_parallel":
        warnings, fatals = check_solver_parallel(reference, fresh, args.threshold)
    elif fresh.get("bench") == "hotspot":
        warnings, fatals = check_hotspot(reference, fresh, args.threshold)
    else:
        warnings = check_dataplane(reference, fresh, args.threshold)

    if warnings:
        for w in warnings:
            print(f"::warning title=Data-plane bench regression::{w}")
        print(f"\n{len(warnings)} advisory regression(s) — see above. "
              "Shared-runner noise is common; re-run before acting on this.",
              file=sys.stderr)
    elif not fatals:
        print("\nNo data-plane regressions beyond threshold.")
    if fatals:
        for f_msg in fatals:
            print(f"::error title=Bench determinism::{f_msg}")
        print(f"\n{len(fatals)} determinism failure(s) — not advisory.",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
