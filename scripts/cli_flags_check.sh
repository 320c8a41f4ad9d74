#!/usr/bin/env bash
# CLI contract checks through the real beepmis_cli binary.
#
#   scripts/cli_flags_check.sh <path-to-beepmis_cli> [workdir] [path-to-sensor_network]
#                              [path-to-bench_batch] [path-to-quickstart]
#
# 1. Every count and seed flag rejects a non-numeric, a negative and an
#    out-of-range value with exit 1 and a message naming the flag — no
#    abort, no wrap-around to a huge graph or seed.  Every real-valued
#    flag does the same for non-numeric, negative, partial and non-finite
#    values.  The sensor_network example (default: next to beepmis_cli)
#    does the same for its --seed, --sensors, --radius and --shards.  A
#    bench program (bench_batch, when given) parses its flags through the
#    same strict getters; it does not catch, so it must die non-zero with
#    the flag-naming message on stderr instead of running a wrapped count.
#    The quickstart example (when given) must do the same for an --n past
#    2^32 instead of wrapping it to a 10-node graph.
# 2. The largest seed, 2^64 - 1, survives --print-spec and a --spec
#    round trip byte for byte.
# 3. A plain `--trials=130` run and a `--spec=` run of its own
#    `--print-spec` line print identical stats_bits / counts_exact lines:
#    the flags and the serialized request are one sweep.
# 4. An explicit --shards on an algorithm without sharded support runs
#    unsharded and says so on a `fallback` line naming the shard count.
# 5. A checkpoint interval near 2^64 (flag or --spec) runs like the default
#    one: it saturates instead of wrapping to a zero chunk size.
set -u

CLI=${1:?usage: cli_flags_check.sh <beepmis_cli> [workdir] [sensor_network] [bench_batch] [quickstart]}
WORKDIR=${2:-$(mktemp -d)}
SENSOR=${3:-$(dirname "$CLI")/sensor_network}
BENCH=${4:-}
QUICKSTART=${5:-}
mkdir -p "$WORKDIR"

fail() { echo "cli_flags_check: FAIL: $*" >&2; exit 1; }

expect_rejected_by() {  # binary flag value [extra args...]
  # `timeout` guards the old failure mode: a wrapped count that builds a
  # 4-billion-node graph instead of exiting.
  bin=$1 flag=$2 value=$3
  shift 3
  timeout 20 "$bin" "$@" "--$flag=$value" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt"
  status=$?
  [ "$status" -eq 1 ] || fail "$(basename "$bin") --$flag=$value exited $status, expected 1"
  grep -qF -- "--$flag:" "$WORKDIR/err.txt" \
    || fail "$(basename "$bin") --$flag=$value: message does not name the flag:" \
            "$(cat "$WORKDIR/err.txt")"
}
expect_rejected() { expect_rejected_by "$CLI" "$1" "$2" --graph=ring; }

for flag in n rows cols k shards max-rounds run-until scenario-lo scenario-hi \
            scenario-budget trials threads seed graph-seed scenario-seed; do
  for value in abc -5 99999999999999999999; do
    expect_rejected "$flag" "$value"
  done
done
for flag in p loss factor initial-p scenario-rate budget trial-timeout; do
  for value in abc -1 0.5x nan inf; do
    expect_rejected "$flag" "$value"
  done
done

for flag in seed sensors shards; do
  for value in abc -5 99999999999999999999; do
    expect_rejected_by "$SENSOR" "$flag" "$value"
  done
done
for value in abc -1 0.5x nan; do
  expect_rejected_by "$SENSOR" radius "$value"
done

expect_uncaught_rejection() {  # binary flag=value [extra args...]
  bin=$1 case=$2
  flag=${case%%=*}
  shift 2
  timeout 20 "$bin" "$@" "--$case" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt"
  status=$?
  { [ "$status" -ne 0 ] && [ "$status" -ne 124 ]; } \
    || fail "$(basename "$bin") --$case exited $status, expected a non-zero exit"
  grep -qF -- "--$flag:" "$WORKDIR/err.txt" \
    || fail "$(basename "$bin") --$case: stderr does not name the flag:" \
            "$(cat "$WORKDIR/err.txt")"
}

if [ -n "$BENCH" ]; then
  for case in n=abc n=-5 trials=1e3 n=4294967297; do
    expect_uncaught_rejection "$BENCH" "$case" --n=64 --trials=1 --reps=1 --out=-
  done
fi
if [ -n "$QUICKSTART" ]; then
  expect_uncaught_rejection "$QUICKSTART" n=4294967306
fi

max_seed=18446744073709551615
"$CLI" --seed=$max_seed --graph-seed=$max_seed --print-spec > "$WORKDIR/max.spec" \
  || fail "--seed=$max_seed --print-spec exited nonzero"
grep -qE "^sweepspec .* graph.seed=$max_seed .* base_seed=$max_seed " "$WORKDIR/max.spec" \
  || fail "--seed=$max_seed did not reach the spec: $(cat "$WORKDIR/max.spec")"
"$CLI" --spec="$(sed -n 's/^\(sweepspec .*\)$/\1/p' "$WORKDIR/max.spec")" --print-spec \
  > "$WORKDIR/max.respec" || fail "--spec of the max-seed line exited nonzero"
diff -u "$WORKDIR/max.spec" "$WORKDIR/max.respec" || fail "max-seed spec does not round-trip"

ARGS=(--graph=gnp --n=60 --p=0.1 --trials=130 --seed=9 --threads=2)
"$CLI" "${ARGS[@]}" > "$WORKDIR/plain.txt" || fail "plain run exited nonzero"
spec=$("$CLI" "${ARGS[@]}" --print-spec | sed -n 's/^\(sweepspec .*\)$/\1/p')
[ -n "$spec" ] || fail "--print-spec printed no sweepspec line"
"$CLI" --spec="$spec" > "$WORKDIR/spec.txt" || fail "--spec run exited nonzero"
grep -E '^(stats_bits|counts_exact) ' "$WORKDIR/plain.txt" > "$WORKDIR/plain.bits"
grep -E '^(stats_bits|counts_exact) ' "$WORKDIR/spec.txt" > "$WORKDIR/spec.bits"
[ -s "$WORKDIR/plain.bits" ] || fail "plain run printed no stats_bits lines"
diff -u "$WORKDIR/plain.bits" "$WORKDIR/spec.bits" \
  || fail "plain --trials run and its --spec twin differ"

"$CLI" --graph=gnp --n=40 --algorithm=pure-beep --shards=2 > "$WORKDIR/pure.txt" \
  || fail "pure-beep --shards=2 exited nonzero"
grep -qE '^fallback .*shards=2' "$WORKDIR/pure.txt" \
  || fail "pure-beep --shards=2 printed no fallback line: $(cat "$WORKDIR/pure.txt")"

"$CLI" --graph=ring --n=20 --trials=3 > "$WORKDIR/interval_default.txt" \
  || fail "default checkpoint interval run exited nonzero"
grep -E '^stats_bits ' "$WORKDIR/interval_default.txt" > "$WORKDIR/interval_default.bits"
[ -s "$WORKDIR/interval_default.bits" ] || fail "default interval run printed no stats_bits"
for interval in 18446744073709551615 18446744073709551600; do
  "$CLI" --graph=ring --n=20 --trials=3 --checkpoint-interval=$interval \
    > "$WORKDIR/interval.txt" 2>&1 \
    || fail "--checkpoint-interval=$interval exited $?: $(tail -n 3 "$WORKDIR/interval.txt")"
  grep -E '^stats_bits ' "$WORKDIR/interval.txt" | diff -u "$WORKDIR/interval_default.bits" - \
    || fail "--checkpoint-interval=$interval changed the stats_bits"
  spec=$("$CLI" --graph=ring --n=20 --trials=3 --checkpoint-interval=$interval --print-spec \
         | sed -n 's/^\(sweepspec .*\)$/\1/p')
  "$CLI" --spec="$spec" > "$WORKDIR/interval_spec.txt" 2>&1 \
    || fail "--spec with checkpoint_interval=$interval exited $?"
  grep -E '^stats_bits ' "$WORKDIR/interval_spec.txt" \
    | diff -u "$WORKDIR/interval_default.bits" - \
    || fail "--spec with checkpoint_interval=$interval changed the stats_bits"
done

echo "cli_flags_check: PASS"
