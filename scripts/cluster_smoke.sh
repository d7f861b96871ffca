#!/usr/bin/env bash
# Cluster smoke test for the wire protocol: two durable hcpath -serve
# workers and a -connect coordinator must (1) replay an update file to
# the same final "state:" line as a single-process durable run over the
# same file, (2) surface a typed worker-unreachable error — not a hang
# — when one worker is killed -9 mid-replay, and (3) warm-restart the
# killed worker from its own -datadir and resume the replay past the
# recovered update blocks.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/hcpath" ./cmd/hcpath

graph="$workdir/g.txt"
ops="$workdir/ops.txt"
queries="$workdir/q.txt"
# A 16-cycle with chords: enough structure that high-K pairs enumerate
# real path sets and plenty of vertex pairs land on different shards.
{
  for i in $(seq 0 15); do
    echo "$i $(((i + 1) % 16))"
    echo "$i $(((i + 3) % 16))"
  done
} > "$graph"
# Update blocks interleaved with query waves, ending in a query tail
# the resumed replay still has to answer after every block is skipped.
{
  echo "query 0 8 6"
  echo "add 0 5"
  echo "add 5 10"
  echo "query 2 12 7"
  echo "del 0 1"
  echo "query 0 8 6"
  echo "query 15 7 8"
} > "$ops"
# A long all-pairs query load (14 400 queries, about a second of
# replay) so a kill -9 gated on the first replies lands with most of
# the traffic still to come.
{
  for rep in $(seq 1 60); do
    for s in $(seq 0 15); do
      for t in $(seq 0 15); do
        [ "$s" -ne "$t" ] && echo "$s $t 7" || true
      done
    done
  done
} > "$queries"

# start_worker <idx> <shards> <datadir> <logfile> [extra args...]
# Starts a worker on an ephemeral port; sets $addr and $worker_pid.
start_worker() {
  local idx=$1 shards=$2 datadir=$3 log=$4
  shift 4
  "$workdir/hcpath" -serve -shard "$idx/$shards" -listen 127.0.0.1:0 \
    -datadir "$datadir" "$@" 2> "$log" &
  worker_pid=$!
  pids+=("$worker_pid")
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving: shard .* on \([0-9.:]*\) .*/\1/p' "$log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "worker $idx did not come up; log:" >&2
    cat "$log" >&2
    exit 1
  fi
}

echo "=== start 2 durable workers, replay updates through the cluster"
start_worker 0 2 "$workdir/d0" "$workdir/w0.log" -graph "$graph"
a0=$addr
start_worker 1 2 "$workdir/d1" "$workdir/w1.log" -graph "$graph"
a1=$addr
w1_pid=$worker_pid

"$workdir/hcpath" -connect "$a0,$a1" -updates "$ops" 2>&1 | tee "$workdir/cluster.out"
cluster_state=$(grep '^state: ' "$workdir/cluster.out")
grep -q '^wire: ' "$workdir/cluster.out" || {
  echo "cluster replay printed no wire: transport line"; exit 1; }

echo "=== single-process durable run over the same updates must match"
"$workdir/hcpath" -graph "$graph" -datadir "$workdir/d-single" -updates "$ops" \
  2>&1 | tee "$workdir/single.out"
single_state=$(grep '^state: ' "$workdir/single.out")
if [ "$cluster_state" != "$single_state" ]; then
  echo "cluster and single-process state diverged:"
  echo "  cluster: $cluster_state"
  echo "  single:  $single_state"
  exit 1
fi

echo "=== kill -9 worker 1 mid-replay: typed error, no hang"
# -v prints a "reply:" line per answered query: the kill waits for the
# first 200 of them, so it lands mid-replay by construction, and the
# replay must still be running when it does.
"$workdir/hcpath" -connect "$a0,$a1" -queries "$queries" -replay -clients 8 -v \
  > "$workdir/kill.out" 2> "$workdir/kill.err" &
replay_pid=$!
pids+=("$replay_pid")
for _ in $(seq 1 3000); do
  [ "$(grep -c '^reply: ' "$workdir/kill.err" 2>/dev/null)" -ge 200 ] && break
  kill -0 "$replay_pid" 2>/dev/null || break
  sleep 0.01
done
if ! kill -0 "$replay_pid" 2>/dev/null; then
  echo "replay ended before the kill could land; stderr tail:"
  tail -5 "$workdir/kill.err"
  exit 1
fi
kill -9 "$w1_pid"
# A coordinator that hangs on the dead worker never exits: bound the wait.
for _ in $(seq 1 300); do
  kill -0 "$replay_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$replay_pid" 2>/dev/null; then
  echo "replay still running 30s after the kill: the coordinator hung"
  exit 1
fi
wait "$replay_pid" || true
cat "$workdir/kill.out"
if ! grep -q 'unreachable' "$workdir/kill.err"; then
  echo "killed worker did not surface a typed unreachable error; stderr:"
  cat "$workdir/kill.err"
  exit 1
fi
if ! grep -Eq ' [1-9][0-9]* failed' "$workdir/kill.out"; then
  echo "replay against the killed worker reported no failed queries"
  cat "$workdir/kill.out"
  exit 1
fi

echo "=== restart worker 1 from its datadir, resume the update replay"
start_worker 1 2 "$workdir/d1" "$workdir/w1b.log"
a1=$addr
"$workdir/hcpath" -connect "$a0,$a1" -updates "$ops" 2>&1 | tee "$workdir/resume.out"
grep -q '^recovered: ' "$workdir/resume.out" || {
  echo "resumed replay did not report recovered update blocks"; exit 1; }
resume_state=$(grep '^state: ' "$workdir/resume.out")
if [ "$resume_state" != "$cluster_state" ]; then
  echo "state diverged after worker restart:"
  echo "  before: $cluster_state"
  echo "  after:  $resume_state"
  exit 1
fi

echo "cluster smoke: OK ($cluster_state)"
