#!/usr/bin/env python3
"""Guard against VM-backend performance regressions.

Compares a freshly generated bench JSON (``bench/main.exe -- t1 --json``)
against the committed baseline (``BENCH_PR1.json``) and fails if any
``table1/*`` entry's ``speedup_vs_tree`` dropped by more than the allowed
fraction (default 20%).  Entries present in only one file are reported but
do not fail the check; absolute wall times are ignored because CI hardware
varies — the compiled-vs-tree *ratio* is the stable signal.

Additionally, any ``guards/*`` entry in the current file (the PR-4
``guards`` bench target) must report a ``guard_overhead`` at or below
``--guard-threshold`` (default 2%): guarded execution is required to be
free on the hot path.

The PR-6 bytecode backend adds two more gates on ``table1/*`` entries of
the current file: ``speedup_bytecode_vs_compiled`` must stay at or above
``--bytecode-floor`` (default 1.25x, raised from the PR-6 floor of 1.2x
by the PR-7 PGO work; the committed BENCH_PR7.json records 1.8-2.1x on
dev hardware), and ``probe_overhead_bytecode`` must stay at or below
``--probe-threshold`` (default 5%).  The probe overhead is measured as
the median of interleaved best-of-N timing pairs, which removes drift
bias but still carries a few percent of residual jitter either way
(BENCH_PR6.json recorded *negative* overheads on some rows); the
threshold is therefore deliberately wider than the true ~1% effect, and
only the positive direction is gated — probes measuring faster than the
uninstrumented run is noise, not a cost.  All fields are optional per
entry so older bench JSONs still pass.

The PR-7 PGO loop adds three more optional gates on ``table1/*`` entries:
``fallback_execs / max(1, fallback_execs_pgo)`` must reach
``--fallback-reduction-floor`` (default 10x — PGO inlining must eliminate
at least 10x of the bytecode's FALLBACK escapes to the tree walker),
``pgo_prediction_error`` must stay at or below ``--pgo-error-threshold``
(default 0.15 — the estimator's closed-form prediction of its own
reoptimization delta; the node-id-preserving reoptimizer makes this
exactly 0 in practice), and ``cycles_pgo`` must never exceed
``cycles_original`` (reoptimization must not regress simulated cycles).

The PR-8 incremental-memo work adds gates on ``incremental/*`` entries of
the current file: ``warm_speedup`` (cold / warm re-analysis latency over
the edit-stream replay) must reach ``--warm-speedup-floor`` (default 5x,
CI-lenient; dev hardware records 14-16x in BENCH_PR8.json),
``hit_rate`` must reach ``--hit-rate-floor`` (default 0.75), and a
``byte_identical`` field, when present, must be ``"yes"`` — a memoized
re-analysis that is fast but wrong is worse than no memo at all.

The PR-9 TCP service adds gates on ``serve/*`` entries of the current
file: ``p99_latency_s`` must stay at or below ``--serve-p99-threshold``
(default 5.0s — CI-lenient; dev hardware records ~0.06s steady-state), a
row marked ``saturated: "yes"`` (the overload burst) must report
``rejection_rate`` above 0 — a saturated server that sheds nothing has a
broken admission queue — and a non-saturated row's ``rejection_rate``
must stay at or below ``--rejection-rate-max`` (default 0.05).

The ``placement`` bench target (smart counter placement on generated
wide CFGs of 1k-8k nodes) adds a complexity gate on the current file:
``wall_s`` of ``placement/wide8000`` over that of ``placement/wide2000``
must stay at or below ``PLACEMENT_GROWTH_MAX`` (6; linear growth gives
~4, the quadratic solvability check it replaced ~40-60).  The bench times
those two rows as one interleaved pair, so a ratio from one run is
hardware-independent.

Rows present in both files are also compared field-by-field: a field
recorded in the baseline row but missing from the current row prints a
``note:`` warning (fields feed gates, so one silently vanishing would
disable its gate without failing anything).

Malformed input (missing file, invalid JSON, a bench entry whose field is
not numeric) is reported as a one-line error with exit status 2 — never a
traceback — so CI logs point at the broken file, not at this script.

Usage: check_bench_regression.py CURRENT.json [BASELINE.json]
       [--tolerance 0.2] [--guard-threshold 0.02]
"""

import argparse
import json
import sys

# placement/wide8000 wall over placement/wide2000 wall: linear growth
# gives ~4, the quadratic placement it replaced ~40-60
PLACEMENT_GROWTH_MAX = 6.0


class BenchInputError(Exception):
    """A bench JSON file that cannot be interpreted."""


def load_entries(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchInputError(f"cannot read {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise BenchInputError(f"{path} is not valid JSON: {e}")
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        raise BenchInputError(
            f"{path}: expected a JSON object with a 'benchmarks' array")
    return data["benchmarks"]


def load_field(path, prefix, field):
    out = {}
    for row in load_entries(path):
        if not isinstance(row, dict):
            raise BenchInputError(f"{path}: non-object entry in 'benchmarks'")
        name = row.get("name", "")
        if name.startswith(prefix) and field in row:
            try:
                out[name] = float(row[field])
            except (TypeError, ValueError):
                raise BenchInputError(
                    f"{path}: entry {name!r} has non-numeric {field}: "
                    f"{row[field]!r}")
    return out


def load_speedups(path):
    return load_field(path, "table1/", "speedup_vs_tree")


def load_guard_overheads(path):
    return load_field(path, "guards/", "guard_overhead")


def load_bytecode_speedups(path):
    return load_field(path, "table1/", "speedup_bytecode_vs_compiled")


def load_bytecode_probe_overheads(path):
    return load_field(path, "table1/", "probe_overhead_bytecode")


def load_rows_by_name(path):
    """All rows keyed by name (for field-presence comparison)."""
    out = {}
    for row in load_entries(path):
        if not isinstance(row, dict):
            raise BenchInputError(f"{path}: non-object entry in 'benchmarks'")
        name = row.get("name", "")
        if name:
            out[name] = row
    return out


def load_incremental_rows(path):
    """incremental/* rows carrying the PR-8 memo fields, keyed by name."""
    out = {}
    for name, row in load_rows_by_name(path).items():
        if name.startswith("incremental/") and "warm_speedup" in row:
            checked = {}
            for f in ("warm_speedup", "hit_rate"):
                if f in row:
                    try:
                        checked[f] = float(row[f])
                    except (TypeError, ValueError):
                        raise BenchInputError(
                            f"{path}: entry {name!r} has non-numeric {f}: "
                            f"{row[f]!r}")
            if "byte_identical" in row:
                checked["byte_identical"] = row["byte_identical"]
            out[name] = checked
    return out


def load_serve_rows(path):
    """serve/* rows carrying the PR-9 service fields, keyed by name."""
    out = {}
    for name, row in load_rows_by_name(path).items():
        if name.startswith("serve/"):
            checked = {}
            for f in ("p99_latency_s", "p50_latency_s", "rejection_rate",
                      "flood_p99_ratio", "store_bytes_after_gc",
                      "max_store_bytes"):
                if f in row:
                    try:
                        checked[f] = float(row[f])
                    except (TypeError, ValueError):
                        raise BenchInputError(
                            f"{path}: entry {name!r} has non-numeric {f}: "
                            f"{row[f]!r}")
            if "saturated" in row:
                checked["saturated"] = row["saturated"]
            out[name] = checked
    return out


def load_placement_walls(path):
    return load_field(path, "placement/", "wall_s")


def load_pgo_rows(path):
    """table1 rows carrying the PR-7 PGO fields, keyed by name."""
    fields = ("fallback_execs", "fallback_execs_pgo", "cycles_original",
              "cycles_pgo", "pgo_prediction_error")
    per_field = {f: load_field(path, "table1/", f) for f in fields}
    names = set(per_field["fallback_execs_pgo"])
    out = {}
    for name in names:
        row = {}
        for f in fields:
            if name in per_field[f]:
                row[f] = per_field[f][name]
        out[name] = row
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline", nargs="?", default="BENCH_PR1.json")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional drop vs baseline (default 0.2)")
    ap.add_argument("--guard-threshold", type=float, default=0.02,
                    help="max allowed guards/* guard_overhead (default 0.02)")
    ap.add_argument("--bytecode-floor", type=float, default=1.25,
                    help="min allowed table1/* speedup_bytecode_vs_compiled "
                         "(default 1.25)")
    ap.add_argument("--probe-threshold", type=float, default=0.05,
                    help="max allowed table1/* probe_overhead_bytecode "
                         "(default 0.05; median-of-pairs measurement still "
                         "jitters a few percent either way)")
    ap.add_argument("--fallback-reduction-floor", type=float, default=10.0,
                    help="min allowed table1/* fallback_execs / "
                         "max(1, fallback_execs_pgo) (default 10)")
    ap.add_argument("--pgo-error-threshold", type=float, default=0.15,
                    help="max allowed table1/* pgo_prediction_error "
                         "(default 0.15)")
    ap.add_argument("--warm-speedup-floor", type=float, default=5.0,
                    help="min allowed incremental/* warm_speedup "
                         "(default 5; dev hardware records 14-16x)")
    ap.add_argument("--hit-rate-floor", type=float, default=0.75,
                    help="min allowed incremental/* hit_rate (default 0.75)")
    ap.add_argument("--serve-p99-threshold", type=float, default=5.0,
                    help="max allowed serve/* p99_latency_s (default 5.0; "
                         "dev hardware records ~0.06s steady-state)")
    ap.add_argument("--rejection-rate-max", type=float, default=0.05,
                    help="max allowed serve/* rejection_rate on rows not "
                         "marked saturated (default 0.05)")
    ap.add_argument("--flood-p99-ratio-max", type=float, default=2.0,
                    help="max allowed serve/* flood_p99_ratio: the "
                         "well-behaved tenant's p99 under a flooding tenant, "
                         "as a multiple of its unloaded baseline "
                         "(default 2.0; dev hardware records ~1.1x)")
    args = ap.parse_args()

    try:
        current = load_speedups(args.current)
        baseline = load_speedups(args.baseline)
        guard_overheads = load_guard_overheads(args.current)
        bc_speedups = load_bytecode_speedups(args.current)
        bc_probe_overheads = load_bytecode_probe_overheads(args.current)
        pgo_rows = load_pgo_rows(args.current)
        serve_rows = load_serve_rows(args.current)
        inc_rows = load_incremental_rows(args.current)
        placement_walls = load_placement_walls(args.current)
        current_rows = load_rows_by_name(args.current)
        baseline_rows = load_rows_by_name(args.baseline)
    except BenchInputError as e:
        print(f"error: {e}")
        return 2
    if not baseline:
        print(f"error: no table1 speedup_vs_tree entries in {args.baseline}")
        return 2
    if not current:
        print(f"error: no table1 speedup_vs_tree entries in {args.current}")
        return 2

    failed = False
    for name, base in sorted(baseline.items()):
        if name not in current:
            # a silently vanished bench target would hide any regression in
            # it forever, so absence is itself a failure
            print(f"MISSING    {name}: in baseline {args.baseline} but not "
                  f"in {args.current}")
            failed = True
            continue
        cur = current[name]
        floor = base * (1.0 - args.tolerance)
        status = "ok" if cur >= floor else "REGRESSION"
        print(f"{status:10s} {name}: {cur:.3f}x vs baseline {base:.3f}x "
              f"(floor {floor:.3f}x)")
        if cur < floor:
            failed = True
    for name in sorted(set(current) - set(baseline)):
        print(f"note: {name} not in baseline (new entry)")

    for name, overhead in sorted(guard_overheads.items()):
        ok = overhead <= args.guard_threshold
        status = "ok" if ok else "REGRESSION"
        print(f"{status:10s} {name}: guard overhead {overhead * 100:+.2f}% "
              f"(threshold {args.guard_threshold * 100:.2f}%)")
        if not ok:
            failed = True

    for name, speedup in sorted(bc_speedups.items()):
        ok = speedup >= args.bytecode_floor
        status = "ok" if ok else "REGRESSION"
        print(f"{status:10s} {name}: bytecode vs compiled {speedup:.3f}x "
              f"(floor {args.bytecode_floor:.2f}x)")
        if not ok:
            failed = True

    for name, overhead in sorted(bc_probe_overheads.items()):
        ok = overhead <= args.probe_threshold
        status = "ok" if ok else "REGRESSION"
        print(f"{status:10s} {name}: bytecode smart-probe overhead "
              f"{overhead * 100:+.2f}% "
              f"(threshold {args.probe_threshold * 100:.2f}%)")
        if not ok:
            failed = True

    for name, row in sorted(pgo_rows.items()):
        if "fallback_execs" in row:
            before = row["fallback_execs"]
            after = row["fallback_execs_pgo"]
            reduction = before / max(1.0, after)
            ok = reduction >= args.fallback_reduction_floor
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: pgo fallback execs {before:.0f} -> "
                  f"{after:.0f} ({reduction:.1f}x, floor "
                  f"{args.fallback_reduction_floor:.0f}x)")
            if not ok:
                failed = True
        if "pgo_prediction_error" in row:
            err = row["pgo_prediction_error"]
            ok = err <= args.pgo_error_threshold
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: pgo prediction error {err * 100:.2f}% "
                  f"(threshold {args.pgo_error_threshold * 100:.0f}%)")
            if not ok:
                failed = True
        if "cycles_pgo" in row and "cycles_original" in row:
            ok = row["cycles_pgo"] <= row["cycles_original"]
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: pgo cycles {row['cycles_pgo']:.0f} "
                  f"vs original {row['cycles_original']:.0f}")
            if not ok:
                failed = True

    for name, row in sorted(inc_rows.items()):
        if "warm_speedup" in row:
            speedup = row["warm_speedup"]
            ok = speedup >= args.warm_speedup_floor
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: warm re-analysis speedup "
                  f"{speedup:.1f}x (floor {args.warm_speedup_floor:.0f}x)")
            if not ok:
                failed = True
        if "hit_rate" in row:
            rate = row["hit_rate"]
            ok = rate >= args.hit_rate_floor
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: memo hit rate {rate * 100:.1f}% "
                  f"(floor {args.hit_rate_floor * 100:.0f}%)")
            if not ok:
                failed = True
        if "byte_identical" in row:
            ok = row["byte_identical"] == "yes"
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: memoized output byte-identical: "
                  f"{row['byte_identical']}")
            if not ok:
                failed = True

    for name, row in sorted(serve_rows.items()):
        saturated = row.get("saturated") == "yes"
        if "p99_latency_s" in row:
            p99 = row["p99_latency_s"]
            ok = p99 <= args.serve_p99_threshold
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: p99 job latency {p99:.4f}s "
                  f"(threshold {args.serve_p99_threshold:.1f}s)")
            if not ok:
                failed = True
        if "rejection_rate" in row:
            rate = row["rejection_rate"]
            if saturated:
                # an overload run that sheds nothing means admission
                # control silently stopped bounding the queue
                ok = rate > 0.0
                status = "ok" if ok else "REGRESSION"
                print(f"{status:10s} {name}: saturated rejection rate "
                      f"{rate * 100:.0f}% (must shed under overload)")
            else:
                ok = rate <= args.rejection_rate_max
                status = "ok" if ok else "REGRESSION"
                print(f"{status:10s} {name}: rejection rate {rate * 100:.1f}% "
                      f"(max {args.rejection_rate_max * 100:.0f}%)")
            if not ok:
                failed = True
        if "flood_p99_ratio" in row:
            ratio = row["flood_p99_ratio"]
            ok = ratio <= args.flood_p99_ratio_max
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: well-behaved p99 under flood "
                  f"{ratio:.2f}x unloaded "
                  f"(max {args.flood_p99_ratio_max:.1f}x)")
            if not ok:
                failed = True
        if "store_bytes_after_gc" in row and row.get("max_store_bytes", 0) > 0:
            after = row["store_bytes_after_gc"]
            bound = row["max_store_bytes"]
            ok = after <= bound
            status = "ok" if ok else "REGRESSION"
            print(f"{status:10s} {name}: store after GC {after:.0f} bytes "
                  f"(bound {bound:.0f})")
            if not ok:
                failed = True

    small = placement_walls.get("placement/wide2000")
    large = placement_walls.get("placement/wide8000")
    if small is not None and large is not None:
        growth = large / small if small > 0 else float("inf")
        ok = growth <= PLACEMENT_GROWTH_MAX
        status = "ok" if ok else "REGRESSION"
        print(f"{status:10s} placement: wall 8k/2k nodes {growth:.2f}x "
              f"(max {PLACEMENT_GROWTH_MAX:.1f}x)")
        if not ok:
            failed = True

    # fields feed gates above, so a field that silently vanishes from a
    # row would disable its gate without failing anything — surface it
    for name in sorted(set(current_rows) & set(baseline_rows)):
        gone = sorted(set(baseline_rows[name]) - set(current_rows[name]))
        if gone:
            print(f"note: {name} lost field(s) vs {args.baseline}: "
                  f"{', '.join(gone)}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
