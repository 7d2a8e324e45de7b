#!/bin/sh
# Tier-1 perf-PR gate (about three minutes): the static certification
# lint (which ends with the sanitize table: every engine and BOHM shape
# under the sanitizer suite, failing on any diagnostic or lost commit),
# one determinism gate replaying every experiment's recorded --quick
# tables in BENCH_PR15.json bit-for-bit, the repository benchmark at
# 1/10 size on both runtimes, the trace-schema and observer-overhead
# gates, and the CLI exit-code checks. (The per-batch timeline's schema
# is a tier-1 test: test_obs "timeline", "schema of a BOHM run".)
# Wire into CI before merging anything that touches lib/core, lib/storage
# or lib/runtime.
set -e
cd "$(dirname "$0")/.."
dune build bench/main.exe bin/bohm_cli.exe
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Static certification gate: the footprint certifier over the built-in IR
# workloads (cross-validated against BOHM runs), then the sanitize table
# — one sanitized configuration per engine (footprint + chain + race
# checkers on the serialization workload), plus BOHM at cc=4/exec=8 with
# preprocessing off and on, on 2 shards with a cross-shard mix, and under
# a live-rebalancing flash crowd. Any diagnostic or lost commit fails the
# build. --force: the alias's action would otherwise be skipped when
# cached.
dune build --force @lint

# Determinism gate: the simulator is deterministic, so the --quick run of
# all 18 experiments (every figure, table, ablation, the latency profile,
# the critical path and MVTO) must reproduce the "quick_series" recorded
# in BENCH_PR15.json byte for byte. A charged instruction leaking into
# the single-shard pipeline, the shard layer, the rebalancer, a baseline
# engine or the unobserved schedule shows up here. A lost vote, a missed
# epoch alignment or a mis-routed footprint slice deadlocks the simulator
# or drops commits and exits non-zero first.
series() { # series FILE KEY -> the body of FILE's top-level KEY array
  awk -v key="\"$2\": [" '
    index($0, key) == 3 { on = 1; next }
    on && /^  \]/ { exit }
    on { print }' "$1"
}
dune exec bench/main.exe -- fig4 fig5 fig6 fig7 fig8 tab9 fig10 \
  ablation-batch ablation-annotation ablation-gc ablation-cc-split \
  ablation-preprocess ablation-cc-rebalance flash-crowd fig4-shards \
  latency-profile critical-path mvto --quick \
  --json="$tmp/quick.json" > /dev/null
series "$tmp/quick.json" series > "$tmp/got"
series BENCH_PR15.json quick_series > "$tmp/want"
if [ ! -s "$tmp/want" ] || ! cmp -s "$tmp/got" "$tmp/want"; then
  echo "FAIL: --quick experiments diverge from BENCH_PR15.json"
  diff "$tmp/want" "$tmp/got" || true
  exit 1
fi
echo "determinism gate PASS (all 18 --quick experiments match BENCH_PR15.json)"

# Benchmark gate: the repository benchmark at 1/10 size runs every
# workload on both runtimes and checks every run against the serial
# Reference, so a Real runtime change (the worker-domain pool, a lost
# join) is gated end to end, not only by the simulator replay above.
# --force: the alias's action would otherwise be skipped when cached.
if ! dune build --force @benchmark/benchmark-smoke > "$tmp/benchmark" 2>&1; then
  echo "FAIL: benchmark smoke"
  tail -n 20 "$tmp/benchmark"
  exit 1
fi
echo "benchmark smoke PASS (every workload, Sim and Real, equals Reference)"

# Trace-schema gate: a small observed run must export a Chrome trace
# that `bohm_cli report` reads back. Its parser (Chrome.of_string, the
# format's one parser) rejects an event line missing a required key, an
# E with no open span and a track that ends with a span still open, and
# report then exits 2. It covers BOHM at moderate skew and every engine
# at theta 0.9, where the optimistic engines abort and the shared
# conflict unwind of the single-layer driver runs.
trace_gate() { # trace_gate ENGINE THETA
  dune exec bin/bohm_cli.exe -- run -e "$1" -t 6 -n 1500 --theta "$2" \
    --trace "$tmp/trace.json" > /dev/null
  if ! dune exec bin/bohm_cli.exe -- report --trace "$tmp/trace.json" \
    > /dev/null; then
    echo "FAIL: trace of $1 at theta $2 does not read back"
    exit 1
  fi
  echo "trace schema gate PASS ($1 theta $2)"
}
trace_gate bohm 0.4
for engine in bohm hekaton si occ 2pl mvto; do
  trace_gate "$engine" 0.9
done

# Observer-overhead gate: the same deterministic fig4-configuration run
# with and without recording must print the identical stat block —
# virtual time, commits, every extras key — differing only in the trace
# artifact lines. Recording is host-side; any drift here is a charged
# instruction leaking from the obs layer.
obs_run() { # obs_run [extra flags...] -> the filtered stat block
  dune exec bin/bohm_cli.exe -- run -e bohm -w 10rmw --theta 0 -t 12 \
    --cc-fraction 0.34 -n 2000 "$@" \
    | grep -v -e '^trace: ' -e '^timeline: ' -e '^$'
}
obs_run > "$tmp/unobserved"
obs_run --trace /dev/null --timeline /dev/null > "$tmp/observed"
if ! cmp -s "$tmp/unobserved" "$tmp/observed"; then
  echo "FAIL: observed run's stat block diverges from the unobserved run"
  diff "$tmp/unobserved" "$tmp/observed" || true
  exit 1
fi
echo "observer-overhead gate PASS (obs on/off stat blocks identical)"

# CLI exit codes: MVTO runs sanitized through the same harness path as
# every other engine, an unknown experiment name is a usage error, and so
# is an out-of-range numeric flag.
dune exec bin/bohm_cli.exe -- run -e mvto -n 300 --sanitize > /dev/null
echo "sanitized MVTO run PASS"
status=0
dune exec bench/main.exe -- nosuch > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: unknown experiment exited $status, want 2"
  exit 1
fi
echo "unknown experiment exit code PASS"
usage_error() { # usage_error ARGS... -> bohm_cli ARGS must exit 124
  status=0
  dune exec bin/bohm_cli.exe -- "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: bohm_cli $* exited $status, want 124"
    exit 1
  fi
  echo "usage error exit code PASS (bohm_cli $*)"
}
usage_error run -e occ -t 0 -n 10
usage_error run --cc-fraction 1.5 -n 10
# Flags that each parse but conflict are usage errors too: 10RMW needs 10
# distinct rows (too few used to hang the generator), and an empty tune
# profile (used to exit 125 on an uncaught Invalid_argument). The binary
# runs under a KILL timeout, so a hang exits 137; GNU timeout's own 124
# would pass for Cmdliner's usage error. The message must name the flag.
conflict_error() { # conflict_error FLAG ARGS... -> exit 124, FLAG on stderr
  flag=$1
  shift
  status=0
  timeout -s KILL 20 _build/default/bin/bohm_cli.exe "$@" > /dev/null \
    2> "$tmp/conflict.err" || status=$?
  if [ "$status" -ne 124 ]; then
    echo "FAIL: bohm_cli $* exited $status, want 124"
    exit 1
  fi
  if ! grep -q -e "$flag" "$tmp/conflict.err"; then
    echo "FAIL: bohm_cli $* did not name $flag on stderr"
    exit 1
  fi
  echo "conflicting flags exit code PASS (bohm_cli $*)"
}
conflict_error --rows run --rows 9 -n 50
conflict_error --rmws tune --rmws 0 --reads 0 -t 2
