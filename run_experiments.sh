#!/bin/sh
# Sequential experiment queue (single-core machine). Each harness prints the
# paper-style table to its log and writes a JSON artifact into results/;
# telemetry JSONL streams land next to the .txt captures (see --logs).
#
# Usage: ./run_experiments.sh [--logs DIR] [--bench-snapshot] [--verify-perf] [--resume] [--lint] [--profile] [--monitor-smoke] [--serve-smoke] [--stream-smoke]
#   --logs DIR        directory for harness stdout captures and telemetry
#                     JSONL (default results/logs; forwarded to every
#                     harness binary)
#   --lint            static-analysis gate only (skips the full queue):
#                     build the workspace, run clippy -D warnings on
#                     every target (tests and examples too), then
#                     rtgcn-lint --deny --json results/LINT.json; exits 3
#                     on any lint finding
#   --bench-snapshot  after the queue, fold the table4 run logs into
#                     results/BENCH_table4.json via rtgcn-report; if
#                     results/BENCH_table4.baseline.json exists, diff
#                     against it and fail (exit 3) on any >50% perf
#                     regression (past the single-core box's measured
#                     same-binary noise floor)
#   --verify-perf     fast perf gate (skips the full queue): build, run a
#                     quick table4_baselines pass into a scratch logs dir,
#                     snapshot it to results/BENCH_table4.verify.json, and
#                     diff against the committed results/BENCH_table4.json
#                     with a 1.25x ratio threshold; exits non-zero on any
#                     >25% regression
#   --profile         profiling pass (skips the full queue): build, run a
#                     1-seed csi table4 pass with RTGCN_TRACE and
#                     RTGCN_ALLOC_STATS=1, write the per-model Chrome-trace
#                     JSON and collapsed-stack files under
#                     results/logs/profile/, and fold the run into
#                     results/PROFILE_table4.md (top-20 spans by self time)
#   --monitor-smoke   live-observability gate (skips the full queue):
#                     build, then run rtgcn-monitor-smoke — a 1-seed
#                     harness with RTGCN_MONITOR=127.0.0.1:0 that scrapes
#                     /metrics, /healthz, /runs, and /spans over a raw
#                     std::net::TcpStream (no curl) and exits non-zero on
#                     any non-200 status or unparseable body; also runs
#                     inside the default queue's gate alongside lint
#   --serve-smoke     scoring-service gate (skips the full queue): build,
#                     then run rtgcn-serve-smoke — train a 1-seed RT-GCN,
#                     checkpoint it to disk, reload, boot /rank + /score on
#                     the monitor server, scrape every endpoint, and run a
#                     short concurrent load test with mid-load hot-swaps
#                     (zero failed requests tolerated); also runs inside
#                     the default queue's gate
#   --stream-smoke    streaming-pipeline gate (skips the full queue): build,
#                     then run rtgcn-stream-smoke — train a 1-seed RT-GCN
#                     just before the crash shock and walk it forward day
#                     by day through the streaming engine (incremental
#                     features, streamed scoring, one edge add and one
#                     drop, scheduled refits), proving bitwise
#                     parity against a from-scratch rebuild; also runs
#                     inside the default queue's gate
#   --resume          resume smoke check (skips the full queue): start a
#                     parallel table4 run, kill it after the first job lands
#                     in the jobs-*.jsonl journal, rerun to completion, and
#                     assert the rerun resumed the completed job instead of
#                     recomputing it; exits 4 on failure
#
# Parallelism: the harness binaries fan (model, seed) jobs over RTGCN_JOBS
# workers (default: all cores). The perf-sensitive table4 passes below pin
# RTGCN_JOBS=1 — the committed BENCH baselines are serial timings, and
# concurrent jobs sharing cores would inflate per-seed wall-clock.
set -e
set -x
cd "$(dirname "$0")"

R=results/logs
SNAPSHOT=0
VERIFY=0
RESUME=0
LINT=0
PROFILE=0
SMOKE=
while [ $# -gt 0 ]; do
  case "$1" in
    --logs)
      [ $# -ge 2 ] || { echo "error[run_experiments]: --logs requires a value" >&2; exit 2; }
      R="$2"; shift 2 ;;
    --bench-snapshot)
      SNAPSHOT=1; shift ;;
    --verify-perf)
      VERIFY=1; shift ;;
    --resume)
      RESUME=1; shift ;;
    --lint)
      LINT=1; shift ;;
    --profile)
      PROFILE=1; shift ;;
    --monitor-smoke)
      SMOKE=monitor; shift ;;
    --serve-smoke)
      SMOKE=serve; shift ;;
    --stream-smoke)
      SMOKE=stream; shift ;;
    *)
      echo "error[run_experiments]: unknown flag $1 (usage: [--logs DIR] [--bench-snapshot] [--verify-perf] [--resume] [--lint] [--profile] [--monitor-smoke] [--serve-smoke] [--stream-smoke])" >&2; exit 2 ;;
  esac
done
mkdir -p "$R"

B=./target/release

# One smoke stage: run rtgcn-NAME-smoke (1 seed, EPOCHS epochs, with the
# ENV assignments) with its logs and stdout capture under $R/NAME-smoke,
# and fail with exit 5 unless it exits 0 and prints every MARKER. Prints
# NAME_SMOKE_OK on success.
# Usage: smoke NAME EPOCHS ENV MARKER...
smoke() {
  name=$1 epochs=$2 envs=$3
  shift 3
  S="$R/$name-smoke"
  out="$S/${name}_smoke.txt"
  tag=$(echo "$name" | tr '[:lower:]' '[:upper:]')_SMOKE
  rm -rf "$S"
  mkdir -p "$S"
  env $envs "$B/rtgcn-$name-smoke" --logs "$S" --seeds 1 --epochs "$epochs" > "$out" 2>&1 \
    || { cat "$out" >&2; echo "${tag}_FAIL" >&2; exit 5; }
  for marker in "$@"; do
    grep -q "$marker" "$out" \
      || { echo "${tag}_FAIL: missing marker '$marker' in $out" >&2; exit 5; }
  done
  echo "${tag}_OK"
}

# The three smoke gates (what each proves: see --monitor-smoke,
# --serve-smoke and --stream-smoke above).
monitor_smoke() { smoke monitor 1 RTGCN_JOBS=2 'all four endpoints healthy'; }
serve_smoke() { smoke serve 1 '' 'serving endpoints healthy' 'hot-swap clean'; }
stream_smoke() { smoke stream 2 '' 'streaming parity verified' 'walk-forward:'; }

# Build once up front — every mode below runs from target/release, and a
# bare `cargo build` would only build the root package, leaving stale
# harness binaries behind.
cargo build --release --workspace

if [ "$LINT" = 1 ]; then
  # Static-analysis gate only: the same clippy + rtgcn-lint sequence the
  # full queue runs before its harnesses. `set -e` propagates rtgcn-lint's
  # exit 3 on findings.
  cargo clippy --workspace --all-targets -- -D warnings
  $B/rtgcn-lint --deny --json results/LINT.json
  echo LINT_OK
  exit 0
fi

if [ -n "$SMOKE" ]; then
  # One smoke gate only: the same pass the default queue runs after lint.
  "${SMOKE}_smoke"
  exit 0
fi

if [ "$PROFILE" = 1 ]; then
  # Profiling pass: one cheap serial table4 run with the exporters and the
  # tracking allocator on. Keeps the scale small (1 seed, 2 epochs) — the
  # trace buffer grows with span count, and the self-time ranking is about
  # shape, not absolute numbers.
  P="$R/profile"
  rm -rf "$P"
  mkdir -p "$P"
  RTGCN_JOBS=1 RTGCN_TRACE="$P" RTGCN_ALLOC_STATS=1 \
    $B/table4_baselines --out "$P" --logs "$P" --markets csi --seeds 1 --epochs 2 > "$P/table4_csi.txt" 2>&1
  # Every model must have produced a loadable trace and a folded stack.
  ls "$P"/trace-table4_baselines-*.json > /dev/null
  ls "$P"/folded-table4_baselines-*.txt > /dev/null
  $B/rtgcn-report --logs "$P" --harness table4_baselines \
    --out "$P/BENCH_table4.profile.json" --md "$P/BENCH_table4.profile.md" \
    --profile-md results/PROFILE_table4.md --top 20
  echo "PROFILE_OK (traces under $P, table in results/PROFILE_table4.md)"
  exit 0
fi

if [ "$RESUME" = 1 ]; then
  # Fault-tolerance smoke: a killed harness must resume from its job journal.
  S="$R/resume-smoke"
  rm -rf "$S"
  mkdir -p "$S"
  J="$S/jobs-table4_baselines.jsonl"
  RTGCN_JOBS=2 $B/table4_baselines --out "$S" --logs "$S" --markets csi --seeds 2 --epochs 1 > "$S/first.txt" 2>&1 &
  PID=$!
  # Wait (up to ~5 min) for the first completed job to hit the journal, then
  # kill the harness mid-run.
  i=0
  while [ $i -lt 600 ]; do
    { [ -f "$J" ] && grep -q '"status":"ok"' "$J"; } && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.5
    i=$((i + 1))
  done
  kill "$PID" 2>/dev/null || true
  wait "$PID" 2>/dev/null || true
  grep -q '"status":"ok"' "$J" || { echo "RESUME_SMOKE_FAIL: no completed job journalled before the kill" >&2; exit 4; }
  N_BEFORE=$(grep -c '"status":"ok"' "$J")
  RTGCN_JOBS=2 $B/table4_baselines --out "$S" --logs "$S" --markets csi --seeds 2 --epochs 1 > "$S/second.txt" 2>&1
  grep -q 'resumed [1-9][0-9]* completed job' "$S/second.txt" \
    || { echo "RESUME_SMOKE_FAIL: rerun did not resume from the journal" >&2; exit 4; }
  echo "RESUME_SMOKE_OK (resumed $N_BEFORE pre-kill job(s))"
  exit 0
fi

if [ "$VERIFY" = 1 ]; then
  # Quick perf gate for CI / pre-commit: one cheap harness pass, then diff
  # its snapshot against the committed baseline at a 1.25x ratio threshold.
  # A failed diff is re-measured once before failing — single-run noise on
  # the shared single-core box reaches ±40% on fast paths, a genuine kernel
  # regression reproduces.
  V="$R/verify-perf"
  attempt=1
  while :; do
    rm -rf "$V"
    mkdir -p "$V"
    RTGCN_JOBS=1 $B/table4_baselines --out "$V" --logs "$V" --markets csi --seeds 1 --epochs 2 > "$V/table4_csi.txt" 2>&1
    $B/rtgcn-report --logs "$V" --harness table4_baselines \
      --out results/BENCH_table4.verify.json --md "$V/BENCH_table4.verify.md"
    # On failure rtgcn-report names the top regressing span paths by self
    # time.
    if $B/rtgcn-report --baseline results/BENCH_table4.json \
      results/BENCH_table4.verify.json --threshold 1.25; then
      break
    fi
    [ "$attempt" -ge 2 ] && { echo "VERIFY_PERF_REGRESSION (reproduced on re-measure)" >&2; exit 3; }
    echo "verify-perf: regression on first measure; re-measuring once to rule out machine noise" >&2
    attempt=2
  done
  echo VERIFY_PERF_OK
  exit 0
fi

# Lint gates: the harnesses below silently produce wrong tables if warnings
# (unused results, lossy casts) or convention violations (NaN-mangling
# min/max, panicking hot paths) slip in. Offline-safe — all deps are
# path-vendored, so neither gate touches the network. rtgcn-lint exits 3
# on any finding; results/LINT.json is the committed findings/allows
# inventory.
cargo clippy --workspace --all-targets -- -D warnings
$B/rtgcn-lint --deny --json results/LINT.json
# Test gate: every crate's suite, not just the root package's — stream
# parity, checkpoint round trips, golden HTTP and hot-swap guard each
# kernel change before the harnesses spend hours on it.
cargo test --workspace -q
# Smoke gates: every queue run proves the monitor transport, the serving
# stack (durable checkpoints, hot-swap registry, /rank + /score under load)
# and the day-advance pipeline's bitwise parity before burning hours on the
# harnesses.
monitor_smoke
serve_smoke
stream_smoke
$B/table2_dataset_stats --logs "$R"                    > $R/table2.txt 2>&1
$B/table3_relation_stats --logs "$R"                   > $R/table3.txt 2>&1
RTGCN_JOBS=1 $B/table4_baselines --logs "$R" --markets csi    --seeds 3 --epochs 3 > $R/table4_csi.txt 2>&1
RTGCN_JOBS=1 $B/table4_baselines --logs "$R" --markets nasdaq --seeds 2 --epochs 3 > $R/table4_nasdaq.txt 2>&1
$B/fig5_speed       --logs "$R" --markets nasdaq       > $R/fig5.txt 2>&1
$B/fig8_case_study  --logs "$R" --epochs 3             > $R/fig8.txt 2>&1
$B/table7_module_ablation --logs "$R" --markets csi,nasdaq --seeds 1 --epochs 3 > $R/table7.txt 2>&1
$B/table6_relation_types  --logs "$R" --markets nasdaq --seeds 1 --epochs 3     > $R/table6.txt 2>&1
$B/fig6_return_curves --logs "$R" --markets nasdaq,csi --epochs 3  > $R/fig6.txt 2>&1
$B/fig7_hyperparams  --logs "$R" --markets csi --seeds 1 --epochs 3 > $R/fig7.txt 2>&1
$B/table5_published_setting --logs "$R" --markets nasdaq --seeds 3 --epochs 3 > $R/table5.txt 2>&1
$B/table4_baselines --logs "$R" --markets nyse --seeds 1 --epochs 2 > $R/table4_nyse.txt 2>&1
$B/table5_published_setting --logs "$R" --markets nyse --seeds 1 --epochs 2 > $R/table5_nyse.txt 2>&1

if [ "$SNAPSHOT" = 1 ]; then
  # Machine-readable perf baseline from the table4 telemetry streams
  # (kernel percentiles, epoch/phase timings, health verdicts). `set -e`
  # propagates rtgcn-report's exit 3 when the diff finds a regression.
  $B/rtgcn-report --logs "$R" --harness table4_baselines \
    --out results/BENCH_table4.json --md results/BENCH_table4.md
  if [ -f results/BENCH_table4.baseline.json ]; then
    # +50%: past the measured same-binary noise floor (~±40%) of the
    # shared single-core reference box.
    $B/rtgcn-report --baseline results/BENCH_table4.baseline.json \
      results/BENCH_table4.json --threshold 1.5
  fi
fi
echo ALL_EXPERIMENTS_DONE
