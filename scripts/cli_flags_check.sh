#!/usr/bin/env bash
# CLI contract checks through the real beepmis_cli binary.
#
#   scripts/cli_flags_check.sh <path-to-beepmis_cli> [workdir]
#
# 1. Every count flag rejects a non-numeric, a negative and an
#    out-of-range value with exit 1 and a message naming the flag — no
#    abort, no wrap-around to a huge graph.
# 2. A plain `--trials=130` run and a `--spec=` run of its own
#    `--print-spec` line print identical stats_bits / counts_exact lines:
#    the flags and the serialized request are one sweep.
set -u

CLI=${1:?usage: cli_flags_check.sh <beepmis_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d)}
mkdir -p "$WORKDIR"

fail() { echo "cli_flags_check: FAIL: $*" >&2; exit 1; }

for flag in n rows cols k shards max-rounds run-until scenario-lo scenario-hi \
            scenario-budget trials threads; do
  for value in abc -5 99999999999999999999; do
    # `timeout` guards the old failure mode: a wrapped count that builds a
    # 4-billion-node graph instead of exiting.
    timeout 20 "$CLI" --graph=ring "--$flag=$value" > "$WORKDIR/out.txt" 2> "$WORKDIR/err.txt"
    status=$?
    [ "$status" -eq 1 ] || fail "--$flag=$value exited $status, expected 1"
    grep -qF -- "--$flag:" "$WORKDIR/err.txt" \
      || fail "--$flag=$value: message does not name the flag: $(cat "$WORKDIR/err.txt")"
  done
done

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

echo "cli_flags_check: PASS"
