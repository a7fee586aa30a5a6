#!/usr/bin/env bash
# Bench regression guard: re-runs the hot-path loopback benchmarks and fails
# when a records/s throughput lands more than THRESHOLD percent below the
# committed baseline, results/bench_guard_baseline.json (or the file named
# as the first argument). The reference comes from that one named file, never
# from whichever snapshot sorts last.
#
# Two benchmarks are guarded: BenchmarkServeLoopback (the serve-path
# throughput headline) and BenchmarkRouterLoopback (the same stream through
# the cluster router's journal-and-relay path). Both the baseline and the
# fresh figure are the best of REPS runs of BENCHTIME each, to keep
# shared-runner noise from failing healthy builds. A benchmark absent from
# the baseline is skipped rather than failed.
#
# Usage:
#   scripts/bench_guard.sh [baseline.json]
#   scripts/bench_guard.sh --record [baseline.json]   # measure and write the baseline
# Environment:
#   THRESHOLD  allowed regression in percent (default 10)
#   REPS       benchmark repetitions; the best run counts (default 3)
#   BENCHTIME  go test -benchtime per rep (default 0.5s; a fixed 3x rep of a
#              few-ms op measured mostly scheduler noise)
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${THRESHOLD:-10}"
reps="${REPS:-3}"
benchtime="${BENCHTIME:-0.5s}"
record=0
if [ "${1:-}" = "--record" ]; then
  record=1
  shift
fi
baseline="${1:-results/bench_guard_baseline.json}"

benches=(BenchmarkServeLoopback:./internal/serve BenchmarkRouterLoopback:./internal/cluster)

# measure NAME PKG: best-of-REPS records/s of NAME in PKG, printed on stdout.
measure() {
  local name="$1" pkg="$2" raw
  raw="$(mktemp)"
  for _ in $(seq "$reps"); do
    go test -run '^$' -bench "^${name}\$" -benchtime "$benchtime" "$pkg" | tee -a "$raw" >&2
  done
  python3 - "$raw" "$name" <<'PY'
import re, sys
raw_path, name = sys.argv[1], sys.argv[2]
best = 0.0
for line in open(raw_path):
    m = re.match(re.escape(name) + r"\S*\s.*?([\d.e+]+) records/s", line)
    if m:
        best = max(best, float(m.group(1)))
if best == 0.0:
    sys.exit(f"bench_guard: no {name} records/s sample in fresh run")
print(f"{best:.0f}")
PY
  rm -f "$raw"
}

if [ "$record" = 1 ]; then
  results=()
  for b in "${benches[@]}"; do
    results+=("${b%%:*}=$(measure "${b%%:*}" "${b#*:}")")
  done
  python3 - "$baseline" "$reps" "$benchtime" "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
    "$(go env GOVERSION)" "${results[@]}" <<'PY'
import datetime, json, os, sys
out, reps, benchtime, commit, gover = sys.argv[1:6]
model = "unknown"
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
rep = {
    "date": datetime.date.today().isoformat(),
    "commit": commit,
    "go_version": gover,
    "cpu_model": model,
    "nproc": os.cpu_count(),
    "reps": int(reps),
    "benchtime": benchtime,
    "statistic": "best of reps",
    "go_test": [{"name": kv.split("=")[0], "records_per_s": float(kv.split("=")[1])}
                for kv in sys.argv[6:]],
}
with open(out, "w") as f:
    json.dump(rep, f, indent=2)
    f.write("\n")
print(f"bench_guard: wrote {out}")
PY
  exit 0
fi

if [ ! -f "$baseline" ]; then
  echo "bench_guard: baseline $baseline not found (record one with --record)" >&2
  exit 1
fi

for b in "${benches[@]}"; do
  name="${b%%:*}"
  if ! want="$(python3 - "$baseline" "$name" <<'PY'
import json, sys
rep = json.load(open(sys.argv[1]))
want = next((b["records_per_s"] for b in rep.get("go_test", [])
             if b.get("name") == sys.argv[2] and b.get("records_per_s")), None)
if want is None:
    sys.exit(1)
print(want)
PY
  )"; then
    echo "bench_guard: $baseline has no $name records/s; skipping" >&2
    continue
  fi
  best="$(measure "$name" "${b#*:}")"
  python3 - "$baseline" "$name" "$want" "$best" "$threshold" <<'PY'
import sys
ref_path, name, want, best, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3]), float(sys.argv[4]), float(sys.argv[5])
drop = 100.0 * (1.0 - best / want)
print(f"bench_guard: {name} baseline {want:,.0f} records/s ({ref_path}), "
      f"best of fresh runs {best:,.0f} records/s ({drop:+.1f}% drop)")
if drop > threshold:
    sys.exit(f"bench_guard: {name} regressed {drop:.1f}% "
             f"(> {threshold:.0f}% allowed)")
PY
done
