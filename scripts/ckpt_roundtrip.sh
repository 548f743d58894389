#!/bin/sh
# Checkpoint round-trip gate: a run interrupted at transaction k and resumed
# from its checkpoint must print byte-identical results to an uninterrupted
# run, and an experiment batch routed through checkpoint/restore must render
# byte-identical figures. Exercises the same path a killed batch takes on
# restart.
#
# Usage: ./scripts/ckpt_roundtrip.sh [scale [txns]]
set -eu

scale="${1:-0.01}"
txns="${2:-400}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/oodbsim" ./cmd/oodbsim

# --- Single-run round trip at several checkpoint positions ---------------
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" > "$tmp/plain.txt"
for k in 3 $((txns / 2)) $((txns - 10)); do
    "$tmp/oodbsim" -run -scale "$scale" -txns "$txns" \
        -checkpoint "$tmp/ck$k.bin" -checkpoint-at "$k" > "$tmp/full$k.txt" 2>/dev/null
    # The "kill": discard the completed run, keep only the checkpoint file.
    "$tmp/oodbsim" -run -scale "$scale" -txns "$txns" \
        -resume "$tmp/ck$k.bin" > "$tmp/resumed$k.txt"
    diff "$tmp/plain.txt" "$tmp/full$k.txt"
    diff "$tmp/plain.txt" "$tmp/resumed$k.txt"
    echo "ckpt_roundtrip: single run, checkpoint at $k: identical"
done

# --- Trace record/replay round trip --------------------------------------
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" -record "$tmp/run.trc" > "$tmp/recorded.txt"
"$tmp/oodbsim" -run -scale "$scale" -txns "$txns" -replay "$tmp/run.trc" > "$tmp/replayed.txt"
diff "$tmp/plain.txt" "$tmp/recorded.txt"
diff "$tmp/plain.txt" "$tmp/replayed.txt"
echo "ckpt_roundtrip: trace record/replay: identical"

# --- Figure batch through the checkpoint path ----------------------------
"$tmp/oodbsim" -fig 5.2 -scale "$scale" -txns "$txns" > "$tmp/fig-plain.txt"
"$tmp/oodbsim" -fig 5.2 -scale "$scale" -txns "$txns" \
    -ckpt-each-at $((txns / 4)) > "$tmp/fig-ckpt.txt"
diff "$tmp/fig-plain.txt" "$tmp/fig-ckpt.txt"
echo "ckpt_roundtrip: fig5.2 through checkpoint path: identical"

# --- Medium scale tier round trip ----------------------------------------
# The 100-user OCB tier: checkpoint/resume must stay byte-identical at a
# user population where quiescent points are rarer than at the paper's 10.
mtxns="$txns"
"$tmp/oodbsim" -run -tier medium -txns "$mtxns" > "$tmp/m-plain.txt"
"$tmp/oodbsim" -run -tier medium -txns "$mtxns" \
    -checkpoint "$tmp/m-ck.bin" -checkpoint-at $((mtxns / 2)) > /dev/null 2>&1
"$tmp/oodbsim" -run -tier medium -txns "$mtxns" \
    -resume "$tmp/m-ck.bin" > "$tmp/m-resumed.txt"
diff "$tmp/m-plain.txt" "$tmp/m-resumed.txt"
echo "ckpt_roundtrip: medium tier resume: identical"

# --- Killed-batch restart from a checkpoint directory --------------------
"$tmp/oodbsim" -fig 5.2 -scale "$scale" -txns "$txns" \
    -ckpt-dir "$tmp/ckpts" > "$tmp/fig-dir1.txt"
# Second invocation: fresh process, same checkpoint dir — resumes from the
# persisted per-configuration checkpoints.
"$tmp/oodbsim" -fig 5.2 -scale "$scale" -txns "$txns" \
    -ckpt-dir "$tmp/ckpts" > "$tmp/fig-dir2.txt"
diff "$tmp/fig-plain.txt" "$tmp/fig-dir1.txt"
diff "$tmp/fig-plain.txt" "$tmp/fig-dir2.txt"
echo "ckpt_roundtrip: batch restart from checkpoint dir: identical"

echo "ckpt_roundtrip: all round trips byte-identical"
