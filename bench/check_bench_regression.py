#!/usr/bin/env python3
"""Compare a fresh BENCH_figures.json against the committed baseline.

The gate is work, which is the same on any machine: for every figure x
strategy in `figures` and `figures_noindex`, the rows_scanned,
index_lookups, subquery_invocations and rows_materialized counters must
match the baseline exactly, as must the result cardinality and the
ok/error status. A change in plan or in the amount of work then fails on
any machine; a change that only makes the same work faster passes.

The same holds per operator: each strategy's `operators` tree is walked in
step with the baseline's, and every node must name the same operator and
report the same rows_out, rows_in, keyfilter_rejected, loops, next_calls,
build_rows, index_probes, cache_hits, cache_misses and cache_evictions (an
absent field counts as 0). This catches work that moved between operators
while the per-strategy totals stayed put. A baseline strategy without an
operator tree is skipped with a note.

Absolute wall times are machine-dependent, so the check also compares the
vs_ni ratios (each strategy's wall time relative to nested iteration on
the same machine, same run): a strategy regresses when its fresh ratio
exceeds the baseline ratio by more than --tolerance (default 25%).

Ratios are skipped (with a note) when the nested-iteration time of
either run is below --ni-floor-ms: dividing by a sub-millisecond NI
time amplifies scheduler noise past any sane tolerance.

Subquery-cache hit and miss counts are fixed by the plan and the memo's
budget, not by the run, so the per-operator cache_hits, cache_misses and
cache_evictions above are compared exactly (a strategy entry's
subquery_cache_hits and subquery_cache_misses are their sums). The derived
cache_hit_rate on strategy entries and the cache_sweep section's timing and
hit-rate fields stay telemetry and are NOT compared — a baseline produced
before those fields existed stays comparable. What IS enforced for the NI+C
strategy: its ok status and row counts in every figure (like any other
strategy), plus every fresh cache_sweep level must report rows_match_ni — a
memoized run returning different rows than plain NI is a correctness bug,
never noise.

The dedup_prune_sweep section follows the same split: its timings,
speedups and `dedup pruned` notes are telemetry (not compared against
the baseline — older baselines without the section stay comparable),
but every fresh case must report rows_match_unpruned — a pruned plan
returning different rows than the unpruned plan means a derived key was
wrong, which is a correctness bug, never noise.

The spill_sweep sections get the same treatment: wall times, slowdowns
and spilled-bytes counters are telemetry, but every budget rung that
completed must report rows_match_unbounded (a spilled run returning
different rows than the in-memory run is a correctness bug), and each
case must report spilled_and_completed — a ladder where no rung ever
both spilled and finished means graceful degradation silently stopped
working.

The server_throughput section (serving layer, DESIGN.md §15) follows
the same split: qps, wall times and admission counters are telemetry
(older baselines without the section stay comparable), but every fresh
client-count point must report rows_match_single — a served result
diverging from the single-session reference is an isolation or
plan-cache correctness bug, never noise — and at least one point must
record plan-cache hits, since a cache that never hits means the shared
plan cache silently stopped amortizing anything.

The Auto series gets one extra fresh-run gate: in every figure that
records it, the cost-based pick's wall time must stay within
--auto-tolerance (default 10%) of the best hand-picked strategy in the
same figure, plus --auto-slack-ms of absolute grace (Auto's wall time
includes the selector's trial rewrites and estimation — a constant
cost that is irrelevant at bench scale but visible next to
single-digit-millisecond figures) — a mis-costed pick is a planner
bug, not machine noise. The comparison is within one run on one
machine, so it needs no baseline (older baselines without the Auto
series stay comparable); like the vs_ni ratios it is skipped when the
best hand-picked time is below --ni-floor-ms.

Usage:
  bench/check_bench_regression.py --baseline BENCH_figures.json \
      --fresh build/BENCH_fresh.json [--tolerance 0.25] [--ni-floor-ms 5.0]

Exit status: 0 = no regression, 1 = regression or incomparable inputs.
"""

import argparse
import json
import sys

# Deterministic per-strategy work counters, compared exactly.
WORK_COUNTERS = ("rows_scanned", "index_lookups", "subquery_invocations",
                 "rows_materialized")
# Deterministic per-operator counters, compared exactly node by node. The
# JSON omits keyfilter_rejected, build_rows and index_probes when they are
# zero, and the cache counters when the operator's memo was never probed.
OPERATOR_COUNTERS = ("rows_out", "rows_in", "keyfilter_rejected", "loops",
                     "next_calls", "build_rows", "index_probes",
                     "cache_hits", "cache_misses", "cache_evictions")


def load(path):
    with open(path) as f:
        return json.load(f)


def figures_by_id(doc):
    out = {}
    for key in ("figures", "figures_noindex"):
        for fig in doc.get(key, []):
            out[fig["id"]] = fig
    return out


def strategies_by_name(fig):
    return {s["strategy"]: s for s in fig.get("strategies", [])}


def compare_operators(tag, base, fresh, path, errors):
    """Walks two operator trees in step, reporting every counter change."""
    here = f"{path}/{base.get('op')}"
    if base.get("op") != fresh.get("op"):
        errors.append(f"{tag}: operator at {path or '/'} changed "
                      f"{base.get('op')} -> {fresh.get('op')}")
        return
    for counter in OPERATOR_COUNTERS:
        b, f = base.get(counter, 0), fresh.get(counter, 0)
        if b != f:
            errors.append(f"{tag}: {here} {counter} changed {b} -> {f} "
                          "(work moved between operators)")
    base_kids = base.get("children", [])
    fresh_kids = fresh.get("children", [])
    if len(base_kids) != len(fresh_kids):
        errors.append(f"{tag}: {here} has {len(fresh_kids)} children, "
                      f"baseline {len(base_kids)}")
        return
    for b, f in zip(base_kids, fresh_kids):
        compare_operators(tag, b, f, here, errors)


def ni_wall_ms(fig):
    for s in fig.get("strategies", []):
        if s["strategy"] == "NI" and s.get("ok"):
            return s.get("wall_ms", 0.0)
    return 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative increase of the vs_ni ratio")
    ap.add_argument("--ni-floor-ms", type=float, default=5.0,
                    help="skip ratio checks when NI ran faster than this")
    ap.add_argument("--auto-tolerance", type=float, default=0.10,
                    help="allowed slowdown of Auto vs the best hand-picked "
                         "strategy in the same fresh figure")
    ap.add_argument("--auto-slack-ms", type=float, default=1.0,
                    help="absolute grace on top of --auto-tolerance: the "
                         "Auto series' wall time includes the selector's "
                         "trial rewrites and estimation, a constant that is "
                         "noise at bench scale but visible next to "
                         "single-digit-millisecond figures")
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    errors = []
    notes = []

    bmeta, fmeta = baseline.get("meta", {}), fresh.get("meta", {})
    for key in ("schema_version", "scale_factor"):
        if bmeta.get(key) != fmeta.get(key):
            errors.append(
                f"meta.{key} differs (baseline {bmeta.get(key)!r} vs fresh "
                f"{fmeta.get(key)!r}); runs are not comparable — regenerate "
                "the baseline instead")

    base_figs = figures_by_id(baseline)
    fresh_figs = figures_by_id(fresh)
    for fig_id in sorted(base_figs):
        if fig_id not in fresh_figs:
            errors.append(f"{fig_id}: missing from fresh run")
            continue
        base_strats = strategies_by_name(base_figs[fig_id])
        fresh_strats = strategies_by_name(fresh_figs[fig_id])
        base_ni = ni_wall_ms(base_figs[fig_id])
        fresh_ni = ni_wall_ms(fresh_figs[fig_id])
        for name in sorted(base_strats):
            b = base_strats[name]
            f = fresh_strats.get(name)
            tag = f"{fig_id}/{name}"
            if f is None:
                errors.append(f"{tag}: missing from fresh run")
                continue
            if b.get("ok") != f.get("ok"):
                errors.append(
                    f"{tag}: ok changed {b.get('ok')} -> {f.get('ok')}"
                    + (f" ({f.get('error')})" if f.get("error") else ""))
                continue
            if not b.get("ok"):
                continue  # both declined the same way; nothing to compare
            if b.get("rows") != f.get("rows"):
                errors.append(
                    f"{tag}: result cardinality changed "
                    f"{b.get('rows')} -> {f.get('rows')}")
            for counter in WORK_COUNTERS:
                if b.get(counter) != f.get(counter):
                    errors.append(
                        f"{tag}: {counter} changed {b.get(counter)} -> "
                        f"{f.get(counter)} (plan or work changed)")
            if "operators" not in b:
                notes.append(f"{tag}: no baseline operator tree; per-operator "
                             "counters skipped")
            elif "operators" not in f:
                errors.append(f"{tag}: operator tree missing from fresh run")
            else:
                compare_operators(tag, b["operators"], f["operators"], "",
                                  errors)
            if name == "NI":
                continue  # NI's vs_ni is 1.0 by construction
            if base_ni < args.ni_floor_ms or fresh_ni < args.ni_floor_ms:
                notes.append(
                    f"{tag}: ratio check skipped (NI {base_ni:.2f}/"
                    f"{fresh_ni:.2f} ms below {args.ni_floor_ms} ms floor)")
                continue
            b_ratio, f_ratio = b.get("vs_ni"), f.get("vs_ni")
            if not b_ratio or not f_ratio:
                notes.append(f"{tag}: no vs_ni ratio recorded; skipped")
                continue
            if f_ratio > b_ratio * (1.0 + args.tolerance):
                errors.append(
                    f"{tag}: vs_ni regressed {b_ratio:.3f} -> {f_ratio:.3f} "
                    f"(>{args.tolerance:.0%} over baseline)")
            else:
                notes.append(
                    f"{tag}: vs_ni {b_ratio:.3f} -> {f_ratio:.3f} ok")

    # Auto competitiveness gate (fresh run only — same machine, same run, so
    # no baseline is needed): the cost-based pick must stay within
    # --auto-tolerance of the best hand-picked strategy in each figure.
    for fig_id in sorted(fresh_figs):
        strats = strategies_by_name(fresh_figs[fig_id])
        auto = strats.get("Auto")
        if auto is None:
            continue  # figure predates the Auto series
        tag = f"{fig_id}/Auto"
        if not auto.get("ok"):
            errors.append(
                f"{tag}: auto selection failed ({auto.get('error')}) — NI is "
                f"always applicable, so Auto must never decline")
            continue
        hand = [s for name, s in strats.items()
                if name != "Auto" and s.get("ok")]
        if not hand:
            continue
        best = min(hand, key=lambda s: s.get("wall_ms", float("inf")))
        best_ms = best.get("wall_ms", 0.0)
        auto_ms = auto.get("wall_ms", 0.0)
        if best_ms < args.ni_floor_ms:
            notes.append(
                f"{tag}: competitiveness check skipped (best hand-picked "
                f"{best.get('strategy')} {best_ms:.2f} ms below "
                f"{args.ni_floor_ms} ms floor)")
            continue
        if auto_ms > best_ms * (1.0 + args.auto_tolerance) + args.auto_slack_ms:
            errors.append(
                f"{tag}: {auto_ms:.2f} ms is >{args.auto_tolerance:.0%} "
                f"slower than the best hand-picked strategy "
                f"({best.get('strategy')} at {best_ms:.2f} ms) — the cost "
                f"model mis-picked")
        else:
            notes.append(
                f"{tag}: {auto_ms:.2f} ms vs best hand-picked "
                f"{best.get('strategy')} {best_ms:.2f} ms ok")

    # NI+C correctness gate: every completed sweep level in the fresh run
    # must have returned exactly plain NI's rows. Hit rates and timings in
    # the same sections are telemetry and are not compared.
    for section in ("cache_sweep", "cache_sweep_noindex"):
        for level in fresh.get(section, {}).get("levels", []):
            if level.get("ok") and not level.get("rows_match_ni", True):
                errors.append(
                    f"{section}/{level.get('id')}: NI+C rows diverge from NI "
                    f"(memoization correctness bug)")

    # Dedup-pruning correctness gate: a pruned plan must return exactly the
    # unpruned plan's rows. Speedups and the pruned-note telemetry in the
    # same section are machine-dependent and are not compared.
    for case in fresh.get("dedup_prune_sweep", {}).get("cases", []):
        if case.get("ok") and not case.get("rows_match_unpruned", True):
            errors.append(
                f"dedup_prune_sweep/{case.get('id')}: pruned rows diverge "
                f"from unpruned (derived-key correctness bug)")

    # Spill correctness gate: every completed budget rung must return
    # exactly the unbounded run's rows, and each case's ladder must contain
    # at least one rung that completed by actually spilling. Wall times and
    # spilled-bytes counters in the same sections are telemetry and are not
    # compared.
    for section in ("spill_sweep", "spill_sweep_noindex"):
        for case in fresh.get(section, {}).get("cases", []):
            if not case.get("ok"):
                errors.append(
                    f"{section}/{case.get('id')}: unbounded run failed "
                    f"({case.get('error')})")
                continue
            for rung in case.get("rungs", []):
                if rung.get("ok") and not rung.get(
                        "rows_match_unbounded", True):
                    errors.append(
                        f"{section}/{case.get('id')}@"
                        f"{rung.get('budget_pct_of_peak')}%: spilled rows "
                        f"diverge from the in-memory run (spill correctness "
                        f"bug)")
            if not case.get("spilled_and_completed", True):
                errors.append(
                    f"{section}/{case.get('id')}: no budget rung both "
                    f"spilled and completed (graceful degradation broken)")

    # Serving-layer correctness gate: every client-count point must have
    # returned exactly the single-session reference rows, and the shared
    # plan cache must have produced hits somewhere in the section. The qps,
    # wall-time and admission-counter telemetry is machine-dependent and is
    # not compared.
    server = fresh.get("server_throughput")
    if server is not None:
        total_hits = 0
        for point in server.get("clients", []):
            tag = f"server_throughput/clients={point.get('clients')}"
            if not point.get("ok"):
                errors.append(f"{tag}: served run failed "
                              f"({point.get('error')})")
                continue
            if not point.get("rows_match_single", True):
                errors.append(
                    f"{tag}: served rows diverge from the single-session "
                    f"reference (serving-layer correctness bug)")
            total_hits += point.get("plan_cache_hits", 0)
        if server.get("clients") and total_hits <= 0:
            errors.append(
                "server_throughput: no plan-cache hits at any client count "
                "(shared plan cache stopped amortizing)")

    for note in notes:
        print(f"[bench-check] {note}")
    if errors:
        for err in errors:
            print(f"[bench-check] REGRESSION: {err}", file=sys.stderr)
        return 1
    print(f"[bench-check] OK: {len(notes)} comparisons, no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
