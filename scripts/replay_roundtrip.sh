#!/bin/sh
# Replay and restart round trips through the real oodbsim binary:
#
#   1. Trace record/replay: a recorded run and a replay of its trace print
#      byte-identical results to a plain run.
#   2. Killed batch: a figure batch with -ckpt-dir is SIGKILLed part-way; a
#      restart executes only the configurations that had not finished, and a
#      second restart executes none. Both print byte-identical figures to a
#      plain run.
#
# Usage: ./scripts/replay_roundtrip.sh [scale [txns]]
set -eu

scale="${1:-0.01}"
txns="${2:-400}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/oodbsim" ./cmd/oodbsim

# --- Trace record/replay round trip --------------------------------------
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" > "$tmp/plain.txt"
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" -record "$tmp/run.trc" > "$tmp/recorded.txt"
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" -replay "$tmp/run.trc" > "$tmp/replayed.txt"
diff "$tmp/plain.txt" "$tmp/recorded.txt"
diff "$tmp/plain.txt" "$tmp/replayed.txt"
echo "replay_roundtrip: trace record/replay: identical"

# --- Killed-batch restart from the results cache -------------------------
# The batch runs serially at the default size (~80 ms a configuration), so
# the kill lands after a few configurations have finished.
fig="-fig 5.2 -parallel 1"
# executed prints the "executed N runs, M served ..." summary -v ends with.
executed() { grep '^executed ' "$1"; }

"$tmp/oodbsim" $fig -v > "$tmp/fig-plain.txt" 2> "$tmp/fig-plain.err"
total="$(executed "$tmp/fig-plain.err" | awk '{print $2}')"

"$tmp/oodbsim" $fig -ckpt-dir "$tmp/cache" > /dev/null 2>&1 &
pid=$!
while kill -0 "$pid" 2>/dev/null &&
    [ "$(find "$tmp/cache" -name '*.ckpt' 2>/dev/null | wc -l)" -lt 3 ]; do
    sleep 0.02
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
done_before="$(find "$tmp/cache" -name '*.ckpt' | wc -l)"
echo "replay_roundtrip: batch killed with $done_before of $total configurations finished"

"$tmp/oodbsim" $fig -ckpt-dir "$tmp/cache" -v > "$tmp/fig-restart.txt" 2> "$tmp/fig-restart.err"
diff "$tmp/fig-plain.txt" "$tmp/fig-restart.txt"
want="executed $((total - done_before)) runs, $done_before served from the results cache"
if [ "$(executed "$tmp/fig-restart.err")" != "$want" ]; then
    echo "replay_roundtrip: restart reported '$(executed "$tmp/fig-restart.err")', want '$want'" >&2
    exit 1
fi
echo "replay_roundtrip: restart ran only the $((total - done_before)) unfinished configurations: identical"

"$tmp/oodbsim" $fig -ckpt-dir "$tmp/cache" -v > "$tmp/fig-again.txt" 2> "$tmp/fig-again.err"
diff "$tmp/fig-plain.txt" "$tmp/fig-again.txt"
want="executed 0 runs, $total served from the results cache"
if [ "$(executed "$tmp/fig-again.err")" != "$want" ]; then
    echo "replay_roundtrip: finished batch reported '$(executed "$tmp/fig-again.err")', want '$want'" >&2
    exit 1
fi
echo "replay_roundtrip: finished batch served entirely from the cache: identical"

echo "replay_roundtrip: all round trips byte-identical"
