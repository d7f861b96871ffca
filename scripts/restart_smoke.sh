#!/usr/bin/env bash
# Restart smoke test for the durable store: an update replay killed
# mid-run — both via the CLI's simulated-crash flag and via a real
# kill -9 — must, after a warm restart, reproduce the exact final
# "state:" line (epoch, vertex count, edge count, CSR checksum) of an
# uninterrupted run over the same update file.
#
# Run from the repository root: ./scripts/restart_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/hcpath" ./cmd/hcpath

graph="$workdir/g.txt"
ops="$workdir/ops.txt"
printf '0 1\n1 2\n2 3\n3 4\n0 2\n' > "$graph"
# Many small mutation blocks separated by query waves, so an external
# kill lands mid-replay; a trailing marker block distinguishes a
# finished run from a lucky kill-after-completion.
blocks=4001
{
  for i in $(seq 0 $(((blocks - 1) / 2 - 1))); do
    echo "add $((i % 5)) $((5 + i % 7))"
    echo "query 0 4 4"
    echo "del $((i % 5)) $((5 + i % 7))"
    echo "query 0 4 4"
  done
  echo "add 4 11"
  echo "query 0 4 4"
} > "$ops"

# Compaction is on: every fold happens inside the update that crosses
# the threshold and writes the store's only snapshots, so epochs are a
# function of the update stream, restarts included. Each block is one
# edge change, so the replay folds every 200 blocks (about 20 times).
common=(-updates "$ops" -compactafter 200 -fsync always)

echo "=== uninterrupted run"
"$workdir/hcpath" -graph "$graph" -datadir "$workdir/d-full" "${common[@]}" | tee "$workdir/full.out"
want=$(grep '^state: ' "$workdir/full.out")
# The restarts below must recover from a fold's snapshot, not only from
# the bootstrap one.
checkpoints=$(sed -n 's/^wal: [0-9]* records, \([0-9]*\) checkpoints.*/\1/p' "$workdir/full.out")
if [ -z "$checkpoints" ] || [ "$checkpoints" -le 1 ]; then
  echo "uninterrupted run wrote no fold snapshot (${checkpoints:-no} checkpoints)"
  exit 1
fi

echo "=== simulated crash (-crashafter), then restart"
set +e
"$workdir/hcpath" -graph "$graph" -datadir "$workdir/d-crash" -crashafter 437 "${common[@]}" > /dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 137 ]; then
  echo "expected exit 137 from -crashafter, got $code"
  exit 1
fi
"$workdir/hcpath" -datadir "$workdir/d-crash" "${common[@]}" | tee "$workdir/resume.out"
got=$(grep '^state: ' "$workdir/resume.out")
if [ "$got" != "$want" ]; then
  echo "state mismatch after -crashafter restart:"
  echo "  want: $want"
  echo "  got:  $got"
  exit 1
fi

echo "=== kill -9 mid-run, then restart"
"$workdir/hcpath" -graph "$graph" -datadir "$workdir/d-kill" "${common[@]}" > /dev/null 2>&1 &
pid=$!
# Kill hard once the first fold has opened its segment (wal-201, ~200
# of the 4001 blocks in), so the restart recovers from that fold's
# snapshot. A fixed sleep is no use: the whole replay takes about a
# second.
newest_segment() {
  ls "$workdir/d-kill" 2>/dev/null | sed -n 's/^wal-0*\([0-9][0-9]*\)\.log$/\1/p' | sort -n | tail -1
}
for _ in $(seq 1 2000); do
  [ "$(newest_segment)" -gt 200 ] 2>/dev/null && break
  sleep 0.005
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$workdir/hcpath" -datadir "$workdir/d-kill" "${common[@]}" 2>&1 | tee "$workdir/kill.out"
applied=$(sed -n 's/^recovered: .*, \([0-9]*\) update blocks already applied$/\1/p' "$workdir/kill.out")
if [ -z "$applied" ] || [ "$applied" -ge "$blocks" ]; then
  echo "kill -9 did not land mid-replay (${applied:-no} blocks of $blocks recovered)"
  exit 1
fi
got=$(grep '^state: ' "$workdir/kill.out")
if [ "$got" != "$want" ]; then
  echo "state mismatch after kill -9 restart:"
  echo "  want: $want"
  echo "  got:  $got"
  exit 1
fi

echo "restart smoke: OK ($want)"
