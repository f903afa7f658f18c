#!/usr/bin/env bash
# Quantifies the cost of compiled-in-but-disabled telemetry — the contract
# is one relaxed atomic load per instrumented site (docs/OBSERVABILITY.md).
#
# Builds Release twice (default DCB_TELEMETRY=1 with runtime gates off, and
# -DDCB_TELEMETRY=0 with every site compiled out), runs the single-lane
# throughput benchmarks in both, and records the per-benchmark regression
# as a "telemetry_overhead" section inside BENCH_<label>.json (the file
# scripts/run_benches.sh writes; it must exist already).
#
# usage: scripts/bench_telemetry_overhead.sh [label]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LABEL="${1:-$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo local)}"
OUT="$ROOT/BENCH_${LABEL}.json"
if [ ! -f "$OUT" ]; then
  echo "bench_telemetry_overhead: $OUT not found —" \
       "run scripts/run_benches.sh $LABEL first" >&2
  exit 1
fi

# Single-lane microbenchmarks on the hottest instrumented paths: per-word
# decode dispatch (gate load in ArchSpec::match), the whole-cubin listing
# and the batched assemble entry point at one lane.
FILTER='BM_DecodeIndexed|BM_DisassembleCubin/[0-9]+/1$|BM_AssembleBatch/[0-9]+/1$'
REPS=3
# Sub-millisecond microbenchmarks are dominated by code/stack layout luck:
# ASLR re-rolls hot-loop alignment every process, swinging individual
# invocations by +-15-20% — an order of magnitude more than the effect
# being measured (pinning ASLR does not help: it just freezes one
# arbitrary layout per binary). So treat layout as noise and average it
# out: run many interleaved on/off passes, pair each pass's on/off ratio
# (adjacent in time, so slow machine-load drift cancels too), average the
# ratios per benchmark, and judge the suite by the geometric mean across
# benchmarks — per-benchmark numbers carry the layout noise floor, which
# is recorded alongside them.
PASSES=6

BUILD_ON="$ROOT/build-release"
BUILD_OFF="$ROOT/build-release-notel"
cmake -B "$BUILD_ON" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DDCB_TELEMETRY=ON >/dev/null
cmake --build "$BUILD_ON" -j --target bench_disasm_throughput \
      bench_asm_throughput >/dev/null
cmake -B "$BUILD_OFF" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release \
      -DDCB_TELEMETRY=OFF >/dev/null
cmake --build "$BUILD_OFF" -j --target bench_disasm_throughput \
      bench_asm_throughput >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for PASS in $(seq 1 "$PASSES"); do
  for MODE in on off; do
    [ "$MODE" = on ] && BUILD="$BUILD_ON" || BUILD="$BUILD_OFF"
    for NAME in bench_disasm_throughput bench_asm_throughput; do
      echo "pass $PASS/$PASSES: $NAME (telemetry $MODE) ..." >&2
      "$BUILD/bench/$NAME" --benchmark_filter="$FILTER" \
          --benchmark_repetitions="$REPS" \
          --benchmark_out="$TMP/${NAME}.${MODE}.${PASS}.json" \
          --benchmark_out_format=json >/dev/null
    done
  done
done

python3 - "$OUT" "$TMP" "$PASSES" <<'EOF'
import json, math, statistics, sys

out_path, tmp, passes = sys.argv[1], sys.argv[2], int(sys.argv[3])

def medians(path):
    """median real_time of the repetitions inside one invocation"""
    by_name = {}
    with open(path) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        if b.get("run_type") == "iteration":
            by_name.setdefault(b["name"], []).append(b["real_time"])
    return {n: statistics.median(ts) for n, ts in by_name.items()}

overhead = {}
ratios_all = []
for bench in ("bench_disasm_throughput", "bench_asm_throughput"):
    on_passes = [medians(f"{tmp}/{bench}.on.{p}.json")
                 for p in range(1, passes + 1)]
    off_passes = [medians(f"{tmp}/{bench}.off.{p}.json")
                  for p in range(1, passes + 1)]
    for name in sorted(on_passes[0].keys() & off_passes[0].keys()):
        # Pair each pass's on/off measurement (adjacent in time).
        ratios = [on_passes[p][name] / off_passes[p][name]
                  for p in range(passes)]
        mean_ratio = statistics.fmean(ratios)
        spread = statistics.stdev(ratios) * 100.0 if len(ratios) > 1 else 0.0
        on_ms = statistics.fmean(on_passes[p][name] for p in range(passes))
        off_ms = statistics.fmean(off_passes[p][name] for p in range(passes))
        overhead[name] = {
            "telemetry_on_ms": round(on_ms, 4),
            "telemetry_off_ms": round(off_ms, 4),
            "regression_pct": round((mean_ratio - 1.0) * 100.0, 2),
            "pass_spread_pct": round(spread, 2),
        }
        ratios_all.append(mean_ratio)

geomean_pct = (math.exp(statistics.fmean(math.log(r) for r in ratios_all))
               - 1.0) * 100.0
worst = max(overhead.items(), key=lambda kv: kv[1]["regression_pct"])

with open(out_path) as f:
    combined = json.load(f)
combined["telemetry_overhead"] = {
    "description": "single-lane Release real_time, DCB_TELEMETRY=1 "
                   "(runtime gates off) vs DCB_TELEMETRY=0 (compiled "
                   "out); mean of per-pass paired on/off ratios over "
                   f"{passes} interleaved passes. Per-benchmark numbers "
                   "sit on an ASLR layout-noise floor given by "
                   "pass_spread_pct; the suite-level geomean is the "
                   "meaningful overhead figure.",
    "overall_regression_pct": round(geomean_pct, 2),
    "worst_regression_pct": worst[1]["regression_pct"],
    "worst_benchmark": worst[0],
    "benchmarks": overhead,
}
with open(out_path, "w") as f:
    json.dump(combined, f, indent=2)
    f.write("\n")
print(f"suite geomean regression: {geomean_pct:+.2f}%")
print(f"worst single benchmark: {worst[1]['regression_pct']:+.2f}% "
      f"({worst[0]}, spread +-{worst[1]['pass_spread_pct']:.1f}%)")
print(f"updated {out_path}")
EOF
