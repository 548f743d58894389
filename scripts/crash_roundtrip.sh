#!/bin/sh
# Crash-recovery gate: SIGKILL a file-backend run mid-flight, reopen the
# data directory, replay the write-ahead log, and require the recovered
# placement digest to equal the digest an uninterrupted reference run had
# at the same commit point, and the page-file scrub to find no corrupt
# frame. Also checks the file backend is logically invisible: the memory-
# and file-backend runs of the same configuration print the same logical
# digest. The serial simulator is killed on five workloads; the concurrent
# driver (-run -clients), which has no reproducible reference, is killed
# once and checked against its own log.
#
# Usage: ./scripts/crash_roundtrip.sh [scale [txns]]
set -eu

scale="${1:-0.02}"
txns="${2:-3000}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/oodbsim" ./cmd/oodbsim

# digest_line extracts the logical-digest line from a run's output.
digest_line() {
    grep '^  digest=' "$1"
}

# kill_midflight TAG FLOOR CMD... starts CMD (given -data-dir itself) in the
# background, SIGKILLs it once its WAL is 4 KiB past FLOOR bytes, and
# recovers the directory, leaving $crash, $committed and $recovered set; a
# recovery that scrubs any corrupt page frame fails the script. If the kill
# lands before any run commit was durable, retry a few times; fsync=always
# makes the window wide.
kill_midflight() {
    tag="$1"; floor="$2"; shift 2
    attempt=0
    while :; do
        attempt=$((attempt + 1))
        if [ "$attempt" -gt 5 ]; then
            echo "crash_roundtrip: $tag: could not land a mid-flight kill in 5 attempts" >&2
            exit 1
        fi
        crash="$tmp/crash-$tag-$attempt"
        "$@" -data-dir "$crash" > /dev/null 2>&1 &
        pid=$!
        # Poll until the WAL has grown past the bootstrap, then SIGKILL.
        i=0
        while [ "$i" -lt 1500 ]; do
            sz=0
            if [ -f "$crash/wal.log" ]; then
                sz=$(wc -c < "$crash/wal.log")
            fi
            if [ "$sz" -gt $((floor + 4096)) ]; then
                break
            fi
            if ! kill -0 "$pid" 2>/dev/null; then
                break
            fi
            sleep 0.02
            i=$((i + 1))
        done
        kill -9 "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true

        if [ ! -f "$crash/wal.log" ]; then
            echo "crash_roundtrip: $tag: kill landed before the WAL existed; retrying"
            continue
        fi
        out=$("$tmp/oodbsim" -recover "$crash")
        echo "$out"
        committed=$(echo "$out" | sed -n 's/.*committed=\([0-9]*\).*/\1/p')
        recovered=$(echo "$out" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')
        corrupt=$(echo "$out" | sed -n 's/.* ok\/\([0-9]*\) corrupt.*/\1/p')
        if [ -z "$committed" ] || [ -z "$recovered" ] || [ -z "$corrupt" ]; then
            echo "crash_roundtrip: $tag: could not parse recovery output" >&2
            exit 1
        fi
        # SIGKILL stops the process, not the kernel: every pwrite that
        # returned is in the page cache, so no frame can be torn.
        if [ "$corrupt" -ne 0 ]; then
            echo "crash_roundtrip: $tag: recovery scrubbed $corrupt corrupt page frames, want 0" >&2
            exit 1
        fi
        if [ "$committed" -gt 0 ]; then
            return
        fi
        echo "crash_roundtrip: $tag: kill landed before the first commit; retrying"
    done
}

# crash_check WORKLOAD EXTRA_FLAGS... runs the reference and the
# crash-recovery comparison for one workload family.
crash_check() {
    wl="$1"; shift

    ref="$tmp/ref-$wl"
    mem="$tmp/mem-$wl.txt"

    # Reference: an uninterrupted file-backend run, plus the same
    # configuration on the memory backend. The logical digests must match —
    # durability must not change what the simulation computes.
    "$tmp/oodbsim" -run -scale "$scale" -txns "$txns" "$@" \
        -backend file -data-dir "$ref" -fsync always > "$tmp/ref-$wl.txt"
    "$tmp/oodbsim" -run -scale "$scale" -txns "$txns" "$@" > "$mem"
    if [ "$(digest_line "$tmp/ref-$wl.txt")" != "$(digest_line "$mem")" ]; then
        echo "crash_roundtrip: $wl: file and memory logical digests differ" >&2
        exit 1
    fi
    echo "crash_roundtrip: $wl: file backend logically invisible"

    # A probe run sizes the WAL through bootstrap + one transaction, so the
    # kill below can be aimed past the bootstrap commit.
    probe="$tmp/probe-$wl"
    "$tmp/oodbsim" -run -scale "$scale" -txns 1 "$@" \
        -backend file -data-dir "$probe" -fsync never > /dev/null
    floor=$(wc -c < "$probe/wal.log")

    kill_midflight "$wl" "$floor" "$tmp/oodbsim" -run -scale "$scale" -txns "$txns" "$@" \
        -backend file -fsync always

    want=$("$tmp/oodbsim" -wal-digest-at "$committed" -data-dir "$ref" | sed 's/digest=//')
    if [ "$recovered" != "$want" ]; then
        echo "crash_roundtrip: $wl: recovered digest $recovered at commit $committed != reference $want" >&2
        exit 1
    fi
    echo "crash_roundtrip: $wl: SIGKILL at commit $committed recovered to the reference digest"
}

crash_check oct
crash_check ocb -workload ocb
# Write-heavy OCB: roughly one write per read, all four evolution kinds.
# This is the gate the write pipeline answers to — inserts, deletes,
# updates, and rewires journaled through the same WAL must replay to the
# reference digest after a SIGKILL.
crash_check ocbw -workload ocb -ocb-rw 1
# Dynamic clustering strategies: dstc and dro relocate live objects mid-run,
# and those moves journal through the same WAL as any placement — a SIGKILL
# mid-reorganization must still recover to the reference digest.
crash_check dstc -workload ocb -ocb-rw 1 -strategy dstc
crash_check dro -workload ocb -ocb-rw 1 -strategy dro

# The concurrent driver: four sessions commit through one WAL, appending
# under the structure guard and flushing outside it, so a kill can land
# with commit records appended but not yet synced. The schedule is not
# reproducible, so there is no reference run; the authority is the log
# itself. Recovery must succeed (its replayed digest is checked against the
# last commit record it found) and land on a commit prefix: the digest the
# K-th commit record carries, for the K it reports.
conc_flags="-run -clients 4 -workload ocb -ocb-rw 1 -scale $scale -backend file"
# shellcheck disable=SC2086 # word-splitting the flag list is the point
"$tmp/oodbsim" $conc_flags -txns 4 -fsync never -data-dir "$tmp/probe-conc" > /dev/null
floor=$(wc -c < "$tmp/probe-conc/wal.log")
# Far more transactions than the kill lets it finish.
# shellcheck disable=SC2086
kill_midflight concurrent "$floor" "$tmp/oodbsim" $conc_flags -txns 2000000 -fsync always
want=$("$tmp/oodbsim" -wal-digest-at "$committed" -data-dir "$crash" | sed 's/digest=//')
if [ "$recovered" != "$want" ]; then
    echo "crash_roundtrip: concurrent: recovered digest $recovered != digest $want in commit record $committed" >&2
    exit 1
fi
echo "crash_roundtrip: concurrent: SIGKILL at commit $committed recovered to that commit record's digest"

echo "crash_roundtrip: all checks passed"
