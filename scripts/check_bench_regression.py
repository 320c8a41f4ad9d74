#!/usr/bin/env python3
"""Compare a fresh bench_core run against the committed BENCH_core.json.

The committed artifact is the perf trajectory the ROADMAP asks every PR to
watch; this script makes "watched" mean something mechanical:

  * coverage  — every (section, workload, protocol, impl) row family present
                in the committed baseline must also appear in the fresh run,
                so a bench refactor cannot silently drop a measured lane;
  * speedups  — for rows that report a speedup_vs_* ratio, fresh and
                baseline are compared per matching n (a full-sweep rerun
                checks every size independently, so a large-n regression
                cannot hide behind a healthy small-n row); when no sizes
                overlap (the n=256 CI smoke run vs the committed
                1k/10k/100k sweep) the fresh run's smallest n is compared
                against the baseline's smallest n, the closest regimes.
                A fresh ratio below --threshold times the baseline one is
                flagged.
  * phases    — for rows that carry a "phase_ns" object (BEEPMIS_PHASE_TIMERS
                builds), the deliver/emit CPU-time ratio is compared the
                same way: a shift beyond --phase-tolerance in either
                direction is flagged even when the row's total speedup
                stays inside --threshold.  This is what catches a delivery
                sweep quietly losing locality (e.g. a storage-tier change
                paging the adjacency) behind a still-healthy wall clock.

By default the script only *warns* (exit 0): a tiny-n smoke sweep on a
noisy shared runner is a liveness check for the drivers and the merge
script, not a publishable measurement.  Pass --strict to turn warnings
into a nonzero exit for a dedicated perf runner.

--min-hardware-threads N is a runner assertion, not a warning: when the
fresh report's sections record hardware_threads below N (or record none at
all), the script exits nonzero regardless of --strict — parallel-speedup
numbers measured on an undersized box are wrong, not noisy.

Usage:
  scripts/check_bench_regression.py \
      [--baseline BENCH_core.json] [--fresh build/BENCH_core_smoke.json] \
      [--threshold 0.3] [--phase-tolerance 4.0] \
      [--min-hardware-threads N] [--strict]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTIONS = ("frontier", "batch", "shard", "faults", "graph_tier")


def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def speedup_of(row):
    """The row's speedup_vs_* value, whatever the baseline impl is named."""
    for key, value in row.items():
        if key.startswith("speedup_vs_"):
            return float(value)
    return None


def phase_ratio_of(row):
    """deliver/emit CPU-ns ratio from the row's optional phase_ns object.

    Phase keys are namespaced per engine ("scalar/deliver",
    "batch/deliver", ...); same-named phases are summed so a row whose
    reps crossed engines still yields one ratio.  Returns None when the
    row has no phase timers, either phase is missing or zero, or a value
    is unparseable — a ratio that cannot be computed is simply not
    compared, never guessed.
    """
    phases = row.get("phase_ns")
    if not isinstance(phases, dict):
        return None
    deliver = 0.0
    emit = 0.0
    for key, value in phases.items():
        name = str(key).rsplit("/", 1)[-1]
        if name not in ("deliver", "emit"):
            continue
        try:
            parsed = float(value)
        except (TypeError, ValueError):
            return None
        if name == "deliver":
            deliver += parsed
        else:
            emit += parsed
    if deliver <= 0.0 or emit <= 0.0:
        return None
    return deliver / emit


def row_is_degraded(row):
    """True when the row's measurement came from a degraded sweep.

    The crash-safe trial harness may return *partial* results: a sweep
    truncated by a wall-clock budget, or one that quarantined failing
    trials, stamps its bench row with the optional "truncated" /
    "quarantined" fields.  Such a row aggregates fewer samples than the
    lane's baseline, so its ratio is not comparable — it is excluded from
    the speedup comparison (with a note) but still counts for coverage.
    Unparseable values are treated as degraded: better to skip one ratio
    than to flag a phantom regression.
    """
    if bool(row.get("truncated", False)):
        return True
    try:
        return int(row.get("quarantined", 0)) > 0
    except (TypeError, ValueError):
        return True


def row_key(row):
    """Identity of a measured lane, independent of n and of timing noise.

    Older baselines predate the per-protocol bench_batch rows, so a missing
    "protocol" field maps to the only protocol they measured.  "mode" is the
    draw contract a row ran under; the bench drivers no longer emit it,
    since every batched and sharded lane now draws in scalar order, so a
    missing "mode" maps to "scalar-order".  The key keeps it so that a
    baseline still holding rows of the removed statistical-lanes mode keeps
    them apart from the scalar-order rows of the same (workload, protocol,
    impl) — they were different lanes with very different speedups.

    Any other row fields — the faults section's recovery_p50/p95/p99 SLA
    quantiles, disruption counts, and whatever future drivers add — are
    deliberately ignored: new optional fields must never break keying or
    comparison of existing lanes.
    """
    return (
        row.get("workload", "?"),
        row.get("protocol", "local-feedback"),
        row.get("impl", "?"),
        row.get("mode", "scalar-order"),
    )


def index_rows(report):
    """{(section, workload, protocol, impl, mode):
        [(n, speedup, degraded, phase_ratio), ...]}"""
    indexed = {}
    for section in SECTIONS:
        for per_n in report.get(section, []):
            for row in per_n.get("results", []):
                key = (section,) + row_key(row)
                indexed.setdefault(key, []).append(
                    (int(row.get("n", 0)), speedup_of(row), row_is_degraded(row),
                     phase_ratio_of(row))
                )
    return indexed


def hardware_threads_of(report):
    """{section: set of hardware_threads recorded by that section's reports}.

    Shard speedups are a property of the machine as much as of the code (a
    1-core box records oversubscription, a 16-core box records scaling), so
    the comparison must know when baseline and fresh ran on different
    hardware.  Sections that do not stamp hardware_threads yield an empty
    set and are always comparable.
    """
    threads = {}
    for section in SECTIONS:
        for per_n in report.get(section, []):
            if "hardware_threads" in per_n:
                threads.setdefault(section, set()).add(int(per_n["hardware_threads"]))
    return threads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_core.json"),
        help="committed perf record (default: repo BENCH_core.json)",
    )
    parser.add_argument(
        "--fresh",
        default=os.path.join(REPO_ROOT, "build", "BENCH_core_smoke.json"),
        help="freshly produced record (default: build/BENCH_core_smoke.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        help="flag fresh speedup below THRESHOLD * baseline speedup "
        "(default 0.3: generous, smoke n is far below baseline n)",
    )
    parser.add_argument(
        "--phase-tolerance",
        type=float,
        default=4.0,
        help="flag a deliver/emit phase_ns ratio drifting beyond this "
        "multiple of the baseline ratio, in either direction (default 4.0)",
    )
    parser.add_argument(
        "--min-hardware-threads",
        type=int,
        default=0,
        help="hard-fail (regardless of --strict) when the fresh report "
        "records hardware_threads below this, or records none at all "
        "(0 = no check; perf runners pass 2+)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings (for a dedicated perf runner)",
    )
    args = parser.parse_args()

    try:
        baseline_report = load_report(args.baseline)
    except (OSError, ValueError) as err:
        print(f"error: cannot read baseline {args.baseline}: {err}")
        return 1
    baseline = index_rows(baseline_report)
    try:
        fresh_report = load_report(args.fresh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read fresh report {args.fresh}: {err}")
        return 1
    fresh = index_rows(fresh_report)

    baseline_threads = hardware_threads_of(baseline_report)
    fresh_threads = hardware_threads_of(fresh_report)

    if args.min_hardware_threads > 0:
        recorded = sorted({t for ts in fresh_threads.values() for t in ts})
        if not recorded:
            print(f"error: --min-hardware-threads {args.min_hardware_threads}: "
                  f"the fresh report records no hardware_threads at all")
            return 1
        undersized = [t for t in recorded if t < args.min_hardware_threads]
        if undersized:
            print(f"error: fresh run recorded hardware_threads {undersized} below "
                  f"the required minimum {args.min_hardware_threads} — parallel "
                  f"speedups measured on this box are invalid, not noisy")
            return 1
        print(f"ok: fresh hardware_threads {recorded} >= "
              f"{args.min_hardware_threads}")

    # Sections whose speedup ratios depend on the core count are only
    # comparable between runs on matching hardware: a baseline recorded on
    # a 1-core dev box (sharded rows < 1x) against a fresh run on a
    # many-core runner — or vice versa — would flag phantom regressions on
    # every run, which is fatal under --strict.  Coverage is still checked;
    # only the ratio comparison is skipped.
    incomparable = set()
    for section in SECTIONS:
        base_t = baseline_threads.get(section, set())
        fresh_t = fresh_threads.get(section, set())
        if base_t and fresh_t and base_t != fresh_t:
            incomparable.add(section)
            print(f"note: skipping speedup comparison for section '{section}': "
                  f"baseline hardware_threads={sorted(base_t)} vs "
                  f"fresh hardware_threads={sorted(fresh_t)} (coverage still checked)")

    warnings = []

    for key in sorted(baseline):
        section, workload, protocol, impl, mode = key
        label = f"{section}/{workload}/{protocol}/{impl}/{mode}"
        if key not in fresh:
            warnings.append(f"coverage lost: {label} is in the baseline but "
                            "missing from the fresh run")
            continue
        if section in incomparable:
            continue  # hardware mismatch: coverage checked above, ratios not
        degraded_n = sorted({n for n, _, d, _ in baseline[key] + fresh[key] if d})
        if degraded_n:
            print(f"note: {label}: ignoring truncated/quarantined row(s) at "
                  f"n={degraded_n} for the speedup comparison")

        def comparison_pairs(base_rows, fresh_rows):
            """Per-size pairs when sweeps overlap, smallest-vs-smallest
            otherwise (the closest regimes: tiny-n smoke vs committed)."""
            common = sorted(set(base_rows) & set(fresh_rows))
            if common:
                # Full-sweep rerun: every size stands on its own, so a
                # large-n regression cannot hide behind a small-n row.
                return [(base_rows[n], fresh_rows[n], f"n={n}") for n in common]
            base_n = min(base_rows)
            fresh_n = min(fresh_rows)
            return [(base_rows[base_n], fresh_rows[fresh_n],
                     f"baseline n={base_n} vs fresh n={fresh_n}")]

        base_rows = {n: s for n, s, d, _ in baseline[key] if s is not None and not d}
        fresh_rows = {n: s for n, s, d, _ in fresh[key] if s is not None and not d}
        if base_rows and fresh_rows:
            # Reference impl rows (speedup == 1) still count for coverage.
            for base_speedup, fresh_speedup, where in comparison_pairs(
                    base_rows, fresh_rows):
                if (base_speedup > 1.0
                        and fresh_speedup < args.threshold * base_speedup):
                    warnings.append(
                        f"possible regression: {label} fresh speedup "
                        f"{fresh_speedup:.2f}x < {args.threshold:.2f} * baseline "
                        f"{base_speedup:.2f}x ({where})"
                    )

        # Phase drift: deliver/emit CPU-ratio shifts flag even when the
        # total wall time (speedup) stays inside --threshold.
        base_phases = {n: r for n, _, d, r in baseline[key] if r is not None and not d}
        fresh_phases = {n: r for n, _, d, r in fresh[key] if r is not None and not d}
        if base_phases and fresh_phases:
            for base_ratio, fresh_ratio, where in comparison_pairs(
                    base_phases, fresh_phases):
                drift = fresh_ratio / base_ratio
                if drift > args.phase_tolerance or drift < 1.0 / args.phase_tolerance:
                    warnings.append(
                        f"phase drift: {label} deliver/emit phase_ns ratio "
                        f"moved {drift:.2f}x (baseline {base_ratio:.3f}, fresh "
                        f"{fresh_ratio:.3f}, tolerance {args.phase_tolerance:.1f}x, "
                        f"{where}) — delivery cost shifted even if wall time "
                        f"looks healthy"
                    )

    for key in sorted(set(fresh) - set(baseline)):
        print(f"note: new lane not in baseline yet: {'/'.join(key)}")

    if warnings:
        for warning in warnings:
            print(f"WARNING: {warning}")
        print(f"{len(warnings)} warning(s); "
              + ("failing (--strict)" if args.strict else "warn-only, exiting 0"))
        return 1 if args.strict else 0

    print(f"ok: {len(baseline)} baseline lanes all present, no speedup below "
          f"{args.threshold:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
