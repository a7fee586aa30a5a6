#!/usr/bin/env bash
# Serve-path overhead guard: runs the serve loopback benchmark plain
# (BenchmarkServeLoopback) and with one feature switched on
# (BenchmarkServeLoopback<Variant>) and fails when the feature costs more
# than MAX_OVERHEAD percent of records/s throughput. Best-of-REPS on both
# sides keeps runner noise from failing healthy builds.
#
# Variants:
#   Traced    the flight recorder on
#   Streamed  a /sessions/stream consumer polling at the fastest interval
#   Tuned     the adaptation plane observing every frame, thresholds set so
#             no swap fires (the steady-state price of -tuner)
#
# Usage:
#   scripts/overhead_guard.sh <Traced|Streamed|Tuned>
# Environment:
#   MAX_OVERHEAD  allowed throughput cost in percent (default 5)
#   REPS          repetitions per benchmark; the best run counts (default 3)
#   BENCHTIME     go test -benchtime per rep (default 0.5s). A loopback op
#                 takes a few ms, so a fixed 3x rep ran 5-30 ms and the 5%
#                 gate sat inside scheduler noise; a time-based rep runs at
#                 least half a second however fast the path gets.
set -euo pipefail
cd "$(dirname "$0")/.."

variant="${1:-}"
case "$variant" in
  Traced|Streamed|Tuned) ;;
  *) echo "usage: $0 <Traced|Streamed|Tuned>" >&2; exit 2 ;;
esac
max="${MAX_OVERHEAD:-5}"
reps="${REPS:-3}"
benchtime="${BENCHTIME:-0.5s}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for _ in $(seq "$reps"); do
  go test -run '^$' -bench "^(BenchmarkServeLoopback|BenchmarkServeLoopback${variant})\$" \
    -benchtime "$benchtime" ./internal/serve | tee -a "$raw"
done

python3 - "$raw" "$max" "$variant" <<'EOF'
import re, sys
raw_path, max_overhead, variant = sys.argv[1], float(sys.argv[2]), sys.argv[3]
base, feat = "BenchmarkServeLoopback", "BenchmarkServeLoopback" + variant
best = {base: 0.0, feat: 0.0}
for line in open(raw_path):
    m = re.match(r"(BenchmarkServeLoopback(?:%s)?)-?\S*\s.*?([\d.e+]+) records/s" % variant, line)
    if m:
        name, v = m.group(1), float(m.group(2))
        best[name] = max(best[name], v)
off, on = best[base], best[feat]
tag = "overhead_guard " + variant
if off == 0.0 or on == 0.0:
    sys.exit(f"{tag}: missing records/s samples")
overhead = 100.0 * (1.0 - on / off)
print(f"{tag}: plain {off:,.0f} records/s, {variant.lower()} {on:,.0f} records/s "
      f"({overhead:+.1f}% cost)")
if overhead > max_overhead:
    sys.exit(f"{tag}: costs {overhead:.1f}% (> {max_overhead:.0f}% allowed)")
EOF
