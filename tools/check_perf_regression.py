#!/usr/bin/env python3
"""Gate bench results against the committed baselines in bench/baseline/.

Two modes:

  Single pair (the original interface):
    tools/check_perf_regression.py --baseline bench/baseline/BENCH_sim_throughput.json \
        --current build/BENCH_sim_throughput.json [--tolerance 0.15]

  Multi-config (gate every baseline that has a current counterpart):
    tools/check_perf_regression.py --baseline-dir bench/baseline \
        --current-dir build/bench [--tolerance 0.15]

Each bench name carries its own comparison spec: which point fields
identify a configuration, which metrics are gated, and in which
direction ("higher" is throughput-like, "lower" is latency-like,
"exact" is a correctness flag that must match the baseline bit for
bit — used for identity and invariant verdicts, which must never be
waved through as "within tolerance"). A gated metric may be slower
than baseline by at most --tolerance (default 15%); faster is always
fine. Exits 1 on any regression so CI can fail the step; stdlib only.
"""

import argparse
import glob
import json
import os
import sys

# Per-bench comparison specs: point-identity fields, gated point metrics,
# gated top-level metrics. Benches without a spec fall back to gating
# nothing point-wise (but still fail loudly on a missing counterpart),
# so adding a new bench JSON never silently passes CI with a typo'd name.
SPECS = {
    "sim_throughput": {
        "key": ("bytes", "window", "transport_timers"),
        "metrics": [("mevents_per_s", "higher")],
        "meta": [("total_mevents_per_s", "higher")],
    },
    "prof_attribution": {
        # Causal-profiler correctness verdicts (DESIGN.md §16). All are
        # exact: Σ segments == e2e is an invariant, a repeated run must
        # reproduce the profile byte for byte, the cross-foot of the
        # profile and latency view (both replayed from the recorder's
        # stream) against the flow-control and QP counters is equality of
        # integer counts, and the fig3 gap
        # attribution is a deterministic function of the simulated runs.
        # The per-point segment totals are exact for the same reason — any
        # change here is a protocol/timing change, not noise.
        "key": ("prepost",),
        "metrics": [("exact", "exact"), ("identical", "exact"),
                    ("audit_ok", "exact"), ("e2e_ns", "exact"),
                    ("credit_stall_ns", "exact"), ("ecm_rtt_ns", "exact")],
        "meta": [("exact", "exact"), ("identical", "exact"),
                 ("audit_ok", "exact"), ("gap_attributed_ok", "exact")],
    },
    "conn_scaling": {
        # Connection-count scaling (DESIGN.md §17). Throughput per point is
        # tolerance-gated like any other rate; the O(active) verdicts are
        # exact: the marginal-events slope must be bit-identical across
        # world sizes (idle connections schedule nothing), the 1024-rank
        # hotspot rate must stay within 2x of 16 ranks, and the engine's
        # zombie accounting on the timer-heavy cell (every cancelled timer
        # reaped exactly once: dead_pops == cancelled) is an invariant,
        # not a measurement.
        "key": ("shape", "ranks"),
        "metrics": [("mevents_per_s", "higher"), ("events", "exact")],
        "meta": [("o_active_slope_invariant", "exact"),
                 ("hotspot_1024_vs_16_ratio_ok", "exact"),
                 ("timer_accounting_ok", "exact")],
    },
    "chaos_campaign": {
        # Per-cell points carry no stable identity fields (cell labels are
        # strings); everything worth gating is top-level. `violations` and
        # `identical` are correctness verdicts and must match the baseline
        # (0 and 1) exactly. `audit_overhead_ratio` is audit-on wall time
        # over audit-off on the same fault-free bandwidth run, the median
        # of five such pairs (the side run first alternates), because one
        # pair of millisecond-long runs swings past the tolerance on its
        # own: gating it
        # "lower" bounds what arming the auditor may cost, while the
        # auditor-*disabled* hot path (the default everywhere else) stays
        # gated by the ordinary throughput specs above — every other bench
        # runs with MVFLOW_AUDIT unset.
        "key": (),
        "metrics": [],
        "meta": [("violations", "exact"), ("identical", "exact"),
                 ("audit_overhead_ratio", "lower")],
    },
}


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def point_key(point, fields):
    return tuple(point.get(f) for f in fields)


def check_pair(baseline, current, tolerance, failures, checks):
    name = baseline.get("name", "?")
    spec = SPECS.get(name)
    if spec is None:
        failures.append("%s: no comparison spec in check_perf_regression.py"
                        % name)
        return

    def check(label, metric, direction, base_v, cur_v):
        full = "%s: %s %s" % (name, label, metric)
        if direction == "exact":
            ok = base_v == cur_v
            checks.append((full, base_v, cur_v, 1.0 if ok else 0.0))
            if not ok:
                failures.append(full + " (exact-match metric diverged)")
            return
        if base_v is None or base_v <= 0:
            return
        ratio = (cur_v / base_v) if direction == "higher" else (base_v / cur_v
                                                                if cur_v > 0
                                                                else 0.0)
        checks.append((full, base_v, cur_v, ratio))
        if ratio < 1.0 - tolerance:
            failures.append(full)

    for metric, direction in spec["meta"]:
        check("(meta)", metric, direction, baseline.get(metric),
              current.get(metric, 0.0))

    current_points = {point_key(p, spec["key"]): p
                      for p in current.get("points", [])}
    for bp in baseline.get("points", []):
        key = point_key(bp, spec["key"])
        label = " ".join("%s=%s" % (f, v) for f, v in zip(spec["key"], key))
        cp = current_points.get(key)
        if cp is None:
            failures.append("%s: %s (missing from current run)"
                            % (name, label))
            continue
        for metric, direction in spec["metrics"]:
            check(label, metric, direction, bp.get(metric),
                  cp.get(metric, 0.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="single baseline JSON")
    ap.add_argument("--current", help="single current JSON")
    ap.add_argument("--baseline-dir", help="directory of BENCH_*.json baselines")
    ap.add_argument("--current-dir", help="directory of current BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15 = 15%%)")
    args = ap.parse_args()

    pairs = []
    if args.baseline and args.current:
        pairs.append((args.baseline, args.current))
    elif args.baseline_dir and args.current_dir:
        for base_path in sorted(glob.glob(
                os.path.join(args.baseline_dir, "BENCH_*.json"))):
            cur_path = os.path.join(args.current_dir,
                                    os.path.basename(base_path))
            pairs.append((base_path, cur_path))
        if not pairs:
            print("no BENCH_*.json baselines under " + args.baseline_dir)
            return 1
    else:
        ap.error("need --baseline/--current or --baseline-dir/--current-dir")

    failures = []
    checks = []
    for base_path, cur_path in pairs:
        if not os.path.exists(cur_path):
            failures.append(os.path.basename(base_path) +
                            " (current result not produced)")
            continue
        check_pair(load(base_path), load(cur_path), args.tolerance,
                   failures, checks)

    print("perf check: tolerance %.0f%% slowdown, %d baseline file(s)" %
          (100.0 * args.tolerance, len(pairs)))
    for label, base_v, cur_v, ratio in checks:
        verdict = "FAIL" if ratio < 1.0 - args.tolerance else "ok"
        print("  [%s] %-58s baseline %10.3f  current %10.3f  (%.2fx)" %
              (verdict, label, base_v, cur_v, ratio))

    if failures:
        print("REGRESSION: %d check(s) failed:" % len(failures))
        for label in failures:
            print("  - " + label)
        return 1
    print("all %d checks within tolerance" % len(checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
