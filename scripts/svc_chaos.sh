#!/usr/bin/env bash
# Chaos harness for the connectivity service (docs/ROBUSTNESS.md).
#
# Each scenario follows the same acked => durable script:
#
#   1. starts ecl_ccd with a write-ahead log (and, per scenario, durable
#      checkpoints) plus ECL_FAULT-injected faults,
#   2. hammers it with svc_loadgen --chaos, which records every *acked*
#      ingest batch to a file (flushed per batch, so the file never claims
#      more than the daemon acknowledged),
#   3. SIGKILLs the daemon mid-run — no drain, no fsync-on-exit grace,
#   4. (corrupt scenario) flips bytes in the newest checkpoint file,
#   5. restarts on the same on-disk state and lets the load generator's
#      retry + reconnect policy ride through the outage,
#   6. verifies that every edge of every acked batch is connected in the
#      revived daemon, from one read of every vertex's label, and
#   7. shuts down gracefully and checks the daemon never went degraded.
#
# Scenario matrix:
#   wal-replay      WAL only, injected socket faults (the PR 3 baseline)
#   mid-checkpoint  checkpoints every 150 ms, each checkpoint write delayed
#                   200 ms so the SIGKILL lands mid-write (torn .tmp image)
#   mid-rotation    a checkpoint cut (and with it a rotation) every 1 ms,
#                   rotations delayed so the SIGKILL lands mid-rotation
#   corrupt-newest  checkpoints on; the newest checkpoint is corrupted after
#                   the kill — the loader must fall back to the previous one
#                   (retention keeps segments the *oldest* checkpoint needs)
#   sparse-tail     WAL only, a rate-limited load of ~3,000 edges that ends
#                   before the kill: nearly every acked edge is a bridge, so
#                   a replay that loses one acked record fails the check
#   sparse-torn     sparse-tail's load, but the 65th append writes only 20
#                   bytes of its record and fails: the kill leaves a torn
#                   tail right after the last acked record, which the
#                   replay must cut without losing that record
#   c10k-halfopen   SIGKILL while 1,500 pipelined connections are open; the
#                   restart replays the WAL and keeps every acked batch
#   degraded-exporter  a WAL append failure drops the daemon to read-only;
#                   /metrics keeps answering with ecl_svc_degraded 1
#   kill-replica    WAL-shipping replica (docs/REPLICATION.md) SIGKILLed
#                   mid-stream: the primary must not notice, and the revived
#                   replica resumes from its local WAL, catches up (lag
#                   observable via kStats + /metrics), and serves every
#                   acked edge
#   kill-primary-then-promote  the primary is SIGKILLed mid-ingest; the
#                   replica is promoted over the wire (kPromote) and every
#                   batch acked *and replicated* before the kill (frozen via
#                   a wal_bytes catch-up barrier) must be durable and
#                   queryable on the promoted node, which then accepts writes;
#                   after its graceful shutdown it restarts as a plain
#                   primary on its own r/ state and must still serve the
#                   frozen acked set and its post-promotion writes
#
#   observability rider: every daemon run also serves /metrics on an
#   ephemeral port; the harness scrapes and lint-checks the exposition both
#   before the SIGKILL and after the restart.
#
#   usage: svc_chaos.sh <ecl_ccd> <ecl_cc_client> <svc_loadgen>
set -euo pipefail

CCD=$1
CLIENT=$2
LOADGEN=$3
SCRIPT_DIR=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ecl_svc_chaos.XXXXXX")

cleanup() {
  for pid in "${CCD_PID:-}" "${RCCD_PID:-}" "${LOADGEN_PID:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_ready() {
  local ready=$1 pid=$2 log=$3
  for _ in $(seq 1 100); do
    [[ -f "$ready" ]] && return 0
    kill -0 "$pid" 2>/dev/null || { echo "daemon died:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  echo "daemon never became ready"; cat "$log"; exit 1
}

# Scrapes the exporter named in a ready file, lints the exposition, and
# leaves the body at $WORK/last_scrape.txt for value-level greps.
scrape_and_lint() {
  local ready=$1
  local mport
  mport=$(awk '/^metrics /{print $2}' "$ready")
  [[ -n "$mport" ]] || { echo "no metrics port in $ready:"; cat "$ready"; exit 1; }
  python3 - "http://127.0.0.1:$mport/metrics" "$WORK/last_scrape.txt" <<'PYEOF'
import sys, urllib.request
with urllib.request.urlopen(sys.argv[1], timeout=10) as resp:
    body = resp.read().decode('utf-8', 'replace')
open(sys.argv[2], 'w').write(body)
PYEOF
  python3 "$SCRIPT_DIR/check_metrics_export.py" "$WORK/last_scrape.txt" \
      --require=ecl_svc_up --require=ecl_svc_degraded \
      --require=ecl_wal_enabled --require=ecl_wal_healthy
}

# Wire-level verifier (scripts/svc_verify.py): drains the ingest pipeline,
# checks health, reads every vertex's label and checks every acked edge
# against the labels.
# argv: <sock> <acked-file> <recovery: replay|any|none|ckpt>
VERIFY="$SCRIPT_DIR/svc_verify.py"

# The load every scenario but sparse-tail runs: 1-4M uniform edges on 20,000
# vertices, one component long before the kill.
DENSE_LOAD='--threads=3 --duration-ms=5000 --batch=32 --ingest-frac=0.5 --seed=3'

# run_scenario <name> <run1-env> <recovery-mode> <corrupt-newest-ckpt> [daemon args...]
# The svc_loadgen load is $LOAD, else $DENSE_LOAD.
run_scenario() {
  local name=$1 env1=$2 recovery=$3 corrupt=$4
  shift 4
  local dir="$WORK/$name"
  mkdir -p "$dir"
  local sock="$dir/ccd.sock" acked="$dir/acked.txt"
  local log1="$dir/ccd1.log" log2="$dir/ccd2.log" loadlog="$dir/loadgen.log"

  echo "==== scenario: $name"
  echo "== starting ecl_ccd (run 1)"
  env $env1 "$CCD" --vertices=20000 --unix="$sock" --wal-fsync=batch \
      --ready-file="$dir/ready1" --metrics-port=0 "$@" >"$log1" 2>&1 &
  CCD_PID=$!
  wait_ready "$dir/ready1" "$CCD_PID" "$log1"

  echo "== scraping /metrics (run 1, pre-kill)"
  scrape_and_lint "$dir/ready1"
  grep -q "^ecl_svc_up 1$" "$WORK/last_scrape.txt"

  echo "== chaos load (background)"
  "$LOADGEN" --unix="$sock" ${LOAD:-$DENSE_LOAD} --chaos --acked-file="$acked" \
             >"$loadlog" 2>&1 &
  LOADGEN_PID=$!

  sleep 1.5
  echo "== SIGKILL mid-run"
  kill -9 "$CCD_PID"
  wait "$CCD_PID" 2>/dev/null || true
  CCD_PID=

  if [[ "$corrupt" == 1 ]]; then
    echo "== corrupting the newest checkpoint"
    python3 - "$dir" <<'PYEOF'
import glob, sys
files = sorted(glob.glob(sys.argv[1] + '/ckpt.[0-9]*'))
if not files:
    sys.exit('no checkpoint files to corrupt')
newest = files[-1]
with open(newest, 'r+b') as f:
    f.seek(16)  # inside the payload: breaks the CRC
    f.write(b'\xde\xad\xbe\xef')
print(f'corrupted {newest} ({len(files)} checkpoints on disk)')
PYEOF
  fi

  sleep 0.3
  echo "== restarting on the same on-disk state"
  "$CCD" --vertices=20000 --unix="$sock" --wal-fsync=batch \
         --ready-file="$dir/ready2" --metrics-port=0 "$@" >"$log2" 2>&1 &
  CCD_PID=$!
  wait_ready "$dir/ready2" "$CCD_PID" "$log2"
  grep -q "^wal .*replayed" "$log2" || {
    echo "restart did not report WAL replay:"; cat "$log2"; exit 1; }

  echo "== scraping /metrics (run 2, post-restart)"
  scrape_and_lint "$dir/ready2"
  grep -q "^ecl_svc_up 1$" "$WORK/last_scrape.txt"
  grep -q "^ecl_svc_degraded 0$" "$WORK/last_scrape.txt"

  echo "== waiting for the load generator to ride out the outage"
  local loadgen_exit=0
  wait "$LOADGEN_PID" || loadgen_exit=$?
  LOADGEN_PID=
  [[ "$loadgen_exit" -eq 0 ]] || {
    echo "loadgen exit code $loadgen_exit:"; cat "$loadlog"; exit 1; }
  grep -E "resilience:" "$loadlog" || true
  [[ -s "$acked" ]] || { echo "no acked batches recorded"; exit 1; }

  echo "== verifying every acked edge against the revived daemon"
  python3 "$VERIFY" "$sock" "$acked" "$recovery"

  echo "== graceful shutdown"
  "$CLIENT" --unix="$sock" health
  "$CLIENT" --unix="$sock" shutdown
  local ccd_exit=0
  wait "$CCD_PID" || ccd_exit=$?
  CCD_PID=
  [[ "$ccd_exit" -eq 0 ]] || { echo "daemon exit code $ccd_exit"; cat "$log2"; exit 1; }
  grep -q "^shutdown:" "$log2" || { echo "no shutdown line:"; cat "$log2"; exit 1; }
  echo "==== scenario $name: OK"
}

# Baseline (PR 3): WAL only, low-probability socket read/write failures plus
# occasional 2 ms read delays — every client sees torn connections and slow
# responses, and the restart must replay the WAL.
run_scenario wal-replay \
  'ECL_FAULT=svc.net.read=fail,prob=0.003,seed=9;svc.net.write=fail,prob=0.003,seed=11;svc.net.read=delay,arg=2000,prob=0.02,seed=7' \
  replay 0 \
  --wal="$WORK/wal-replay/edges.wal"

# SIGKILL mid-checkpoint: checkpoints every 150 ms, each write stalled 200 ms
# by the fault, so the kill at 1.5 s lands inside a checkpoint write with
# high probability. The torn .tmp must never be loaded.
run_scenario mid-checkpoint \
  'ECL_FAULT=svc.ckpt.write=delay,arg=200000' \
  any 0 \
  --wal="$WORK/mid-checkpoint/edges.wal" \
  --checkpoint="$WORK/mid-checkpoint/ckpt" --checkpoint-interval-ms=150

# SIGKILL mid-rotation: only a checkpoint cut ends a segment, so cuts every
# 1 ms force constant rotation (~130 before the kill, as many as 8 KiB
# segments gave); half the rotations are stalled 20 ms so the kill lands
# mid-rotation.
run_scenario mid-rotation \
  'ECL_FAULT=svc.wal.rotate=delay,arg=20000,prob=0.5,seed=5' \
  any 0 \
  --wal="$WORK/mid-rotation/edges.wal" \
  --checkpoint="$WORK/mid-rotation/ckpt" --checkpoint-interval-ms=1

# Corrupt newest checkpoint: frequent checkpoints build a chain, the newest
# is corrupted after the kill, and the loader must fall back to the previous
# one — whose WAL segments retention deliberately kept around.
run_scenario corrupt-newest \
  'ECL_FAULT=' \
  any 1 \
  --wal="$WORK/corrupt-newest/edges.wal" \
  --checkpoint="$WORK/corrupt-newest/ckpt" --checkpoint-interval-ms=150

# One lost record: a dense scenario's acked graph is one component, so no
# lost batch disconnects an acked edge. Here one open-loop worker acks ~96
# 32-edge batches in 0.8 s on 20,000 vertices (a forest: nearly every edge
# is a bridge) and is idle by the SIGKILL at 1.5 s, so the WAL's last record
# is acked and a replay that dropped it would lose its edges.
SPARSE_LOAD='--threads=1 --rate=120 --duration-ms=800 --batch=32 --ingest-frac=1 --seed=29'
LOAD=$SPARSE_LOAD \
run_scenario sparse-tail \
  'ECL_FAULT=' \
  replay 0 \
  --wal="$WORK/sparse-tail/edges.wal"

# One lost record behind a torn tail: after 64 acked batches the next append
# writes 20 bytes of its record and fails, so that batch is shed (never
# acked) and the daemon turns read-only. The SIGKILL then finds the torn
# record right after the last acked one: the replay must cut exactly the
# 20 bytes and keep every whole record.
LOAD=$SPARSE_LOAD \
run_scenario sparse-torn \
  'ECL_FAULT=svc.wal.append=short,arg=20,after=64' \
  replay 0 \
  --wal="$WORK/sparse-torn/edges.wal"
grep -q "^ecl_svc_wal_truncated_bytes 20$" "$WORK/last_scrape.txt" || {
  echo "the restart did not cut a 20-byte torn tail:"
  grep "truncated" "$WORK/last_scrape.txt" || true
  exit 1
}

# SIGKILL under a C10K flood: the daemon dies holding thousands of open
# pipelined connections (every one of them left half-open, mid-request),
# restarts on the same WAL, and must still satisfy acked => durable for
# every batch acknowledged before the kill.
echo "==== scenario: c10k-halfopen"
SOFT=$(ulimit -Sn)
HARD=$(ulimit -Hn)
WANT=4096
if [[ "$HARD" != "unlimited" && "$HARD" -lt "$WANT" ]]; then WANT=$HARD; fi
if (( SOFT < WANT )); then ulimit -n "$WANT" || true; fi
LIMIT=$(ulimit -Sn)
HCONNS=1500
if (( LIMIT < 1800 )); then HCONNS=$(( LIMIT - 300 )); fi
HDIR="$WORK/c10k-halfopen"
mkdir -p "$HDIR"
echo "== starting ecl_ccd (fd limit $LIMIT, $HCONNS connections)"
"$CCD" --vertices=20000 --unix="$HDIR/ccd.sock" --wal="$HDIR/edges.wal" \
       --wal-fsync=batch --backlog=1024 --io-threads=4 \
       --ready-file="$HDIR/ready1" --metrics-port=0 >"$HDIR/ccd1.log" 2>&1 &
CCD_PID=$!
wait_ready "$HDIR/ready1" "$CCD_PID" "$HDIR/ccd1.log"

echo "== c10k load (background, long phase so the kill lands mid-flood)"
"$LOADGEN" --unix="$HDIR/ccd.sock" --connections="$HCONNS" --pipeline=4 \
           --io-threads=4 --duration-ms=8000 --ingest-frac=0.4 --batch=8 \
           --seed=13 --acked-file="$HDIR/acked.txt" >"$HDIR/loadgen.log" 2>&1 &
LOADGEN_PID=$!

sleep 3
echo "== SIGKILL with $HCONNS connections open"
kill -9 "$CCD_PID"
wait "$CCD_PID" 2>/dev/null || true
CCD_PID=

echo "== restarting on the same WAL"
"$CCD" --vertices=20000 --unix="$HDIR/ccd.sock" --wal="$HDIR/edges.wal" \
       --wal-fsync=batch --backlog=1024 --io-threads=4 \
       --ready-file="$HDIR/ready2" --metrics-port=0 >"$HDIR/ccd2.log" 2>&1 &
CCD_PID=$!
wait_ready "$HDIR/ready2" "$CCD_PID" "$HDIR/ccd2.log"
grep -q "^wal .*replayed" "$HDIR/ccd2.log" || {
  echo "restart did not report WAL replay:"; cat "$HDIR/ccd2.log"; exit 1; }

echo "== waiting for the load generator (its dead sockets self-close)"
loadgen_exit=0
wait "$LOADGEN_PID" || loadgen_exit=$?
LOADGEN_PID=
[[ "$loadgen_exit" -eq 0 ]] || {
  echo "loadgen exit code $loadgen_exit:"; cat "$HDIR/loadgen.log"; exit 1; }
grep -E "c10k\[" "$HDIR/loadgen.log" || true
[[ -s "$HDIR/acked.txt" ]] || { echo "no acked batches recorded"; exit 1; }

echo "== verifying every acked edge against the revived daemon"
python3 "$VERIFY" "$HDIR/ccd.sock" "$HDIR/acked.txt" replay

"$CLIENT" --unix="$HDIR/ccd.sock" shutdown
ccd_exit=0
wait "$CCD_PID" || ccd_exit=$?
CCD_PID=
[[ "$ccd_exit" -eq 0 ]] || { echo "daemon exit code $ccd_exit"; cat "$HDIR/ccd2.log"; exit 1; }
echo "==== scenario c10k-halfopen: OK"

# Degraded-mode observability: a WAL append failure drops the service to
# read-only; the metrics endpoint is the alerting path and must keep serving
# a valid exposition with ecl_svc_degraded 1.
echo "==== scenario: degraded-exporter"
DDIR="$WORK/degraded"
mkdir -p "$DDIR"
env 'ECL_FAULT=svc.wal.append=fail,times=1,after=1' \
    "$CCD" --vertices=20000 --unix="$DDIR/ccd.sock" --wal="$DDIR/edges.wal" \
    --ready-file="$DDIR/ready" --metrics-port=0 >"$DDIR/ccd.log" 2>&1 &
CCD_PID=$!
wait_ready "$DDIR/ready" "$CCD_PID" "$DDIR/ccd.log"

echo "== healthy baseline scrape"
scrape_and_lint "$DDIR/ready"
grep -q "^ecl_svc_degraded 0$" "$WORK/last_scrape.txt"

echo "== tripping the WAL fault"
"$CLIENT" --unix="$DDIR/ccd.sock" ingest 1 2 2 3   # append pass 0: survives after=1
# This append hits the armed failure: the batch is shed, never falsely acked,
# and the daemon degrades to read-only. ingest exits 2 (kShed) by contract.
ingest_exit=0
"$CLIENT" --unix="$DDIR/ccd.sock" --retries=0 ingest 5 6 || ingest_exit=$?
[[ "$ingest_exit" -eq 2 ]] || { echo "expected shed (2), got $ingest_exit"; exit 1; }
health_exit=0
"$CLIENT" --unix="$DDIR/ccd.sock" health || health_exit=$?
[[ "$health_exit" -eq 2 ]] || { echo "daemon not degraded (health=$health_exit)"; exit 1; }

echo "== degraded scrape: endpoint must keep serving with degraded=1"
scrape_and_lint "$DDIR/ready"
grep -q "^ecl_svc_degraded 1$" "$WORK/last_scrape.txt"
grep -q "^ecl_wal_healthy 0$" "$WORK/last_scrape.txt"
grep -q "^ecl_svc_up 1$" "$WORK/last_scrape.txt"
# Reads still serve while degraded.
"$CLIENT" --unix="$DDIR/ccd.sock" connected 1 3 | grep -qx "connected"

"$CLIENT" --unix="$DDIR/ccd.sock" shutdown
ccd_exit=0
wait "$CCD_PID" || ccd_exit=$?
CCD_PID=
[[ "$ccd_exit" -eq 0 ]] || { echo "daemon exit code $ccd_exit"; cat "$DDIR/ccd.log"; exit 1; }
grep -q "read-only degraded" "$DDIR/ccd.log" || {
  echo "daemon never reported degraded mode:"; cat "$DDIR/ccd.log"; exit 1; }
echo "==== scenario degraded-exporter: OK"

# Waits until a replica daemon reports itself fully caught up (lag_seq and
# lag_ms both 0 — published only after a fetch round that reached the
# primary's active tail). Call only once the primary has stopped ingesting.
wait_caught_up() {
  local rsock=$1
  for _ in $(seq 1 150); do
    local out lag_seq lag_ms
    out=$("$CLIENT" --unix="$rsock" health 2>/dev/null || true)
    lag_seq=$(awk '/^replica_lag_seq/{print $2}' <<<"$out")
    lag_ms=$(awk '/^replica_lag_ms/{print $2}' <<<"$out")
    [[ "$lag_seq" == 0 && "$lag_ms" == 0 ]] && return 0
    sleep 0.2
  done
  echo "replica never caught up; last health:"; "$CLIENT" --unix="$rsock" health || true
  return 1
}

# SIGKILL the replica mid-stream: the primary must be unaffected, and the
# revived replica (same dirs) must resume, catch up, and serve every
# edge the *primary* acked. --replica-hold-ms is generous so the dead
# replica's segments survive the outage and the revival streams the gap
# instead of re-bootstrapping; the 300 ms cuts seal two segments in it.
echo "==== scenario: kill-replica"
KDIR="$WORK/kill-replica"
mkdir -p "$KDIR/p" "$KDIR/r"
echo "== starting primary"
"$CCD" --vertices=20000 --unix="$KDIR/p.sock" --wal="$KDIR/p/wal" \
       --wal-fsync=batch \
       --checkpoint="$KDIR/p/ckpt" --checkpoint-interval-ms=300 \
       --replica-hold-ms=30000 \
       --ready-file="$KDIR/ready_p" --metrics-port=0 >"$KDIR/p.log" 2>&1 &
CCD_PID=$!
wait_ready "$KDIR/ready_p" "$CCD_PID" "$KDIR/p.log"

echo "== starting replica"
"$CCD" --vertices=20000 --unix="$KDIR/r.sock" --replica-of="$KDIR/p.sock" \
       --wal="$KDIR/r/wal" --checkpoint="$KDIR/r/ckpt" \
       --replica-fetch-interval-ms=25 \
       --ready-file="$KDIR/ready_r1" --metrics-port=0 >"$KDIR/r1.log" 2>&1 &
RCCD_PID=$!
wait_ready "$KDIR/ready_r1" "$RCCD_PID" "$KDIR/r1.log"

echo "== scraping replica /metrics (must export role=replica)"
scrape_and_lint "$KDIR/ready_r1"
grep -q "^ecl_svc_role 1$" "$WORK/last_scrape.txt"

echo "== chaos load against the primary (background)"
"$LOADGEN" --unix="$KDIR/p.sock" --threads=3 --duration-ms=5000 --batch=32 \
           --ingest-frac=0.5 --seed=17 --chaos --acked-file="$KDIR/acked.txt" \
           >"$KDIR/loadgen.log" 2>&1 &
LOADGEN_PID=$!

sleep 1.5
echo "== SIGKILL the replica mid-stream"
kill -9 "$RCCD_PID"
wait "$RCCD_PID" 2>/dev/null || true
RCCD_PID=

echo "== primary must be unaffected"
"$CLIENT" --unix="$KDIR/p.sock" ping | grep -qx "pong"
health_exit=0
"$CLIENT" --unix="$KDIR/p.sock" health >/dev/null || health_exit=$?
[[ "$health_exit" -eq 0 ]] || { echo "primary degraded after replica death"; exit 1; }

sleep 0.5
echo "== reviving the replica on the same dirs"
"$CCD" --vertices=20000 --unix="$KDIR/r.sock" --replica-of="$KDIR/p.sock" \
       --wal="$KDIR/r/wal" --checkpoint="$KDIR/r/ckpt" \
       --replica-fetch-interval-ms=25 \
       --ready-file="$KDIR/ready_r2" --metrics-port=0 >"$KDIR/r2.log" 2>&1 &
RCCD_PID=$!
wait_ready "$KDIR/ready_r2" "$RCCD_PID" "$KDIR/r2.log"

echo "== waiting for the load generator"
loadgen_exit=0
wait "$LOADGEN_PID" || loadgen_exit=$?
LOADGEN_PID=
[[ "$loadgen_exit" -eq 0 ]] || {
  echo "loadgen exit code $loadgen_exit:"; cat "$KDIR/loadgen.log"; exit 1; }
[[ -s "$KDIR/acked.txt" ]] || { echo "no acked batches recorded"; exit 1; }

echo "== waiting for the revived replica to catch up"
wait_caught_up "$KDIR/r.sock"
scrape_and_lint "$KDIR/ready_r2"
grep -q "^ecl_svc_role 1$" "$WORK/last_scrape.txt"
grep -q "^ecl_svc_replica_lag_seq 0$" "$WORK/last_scrape.txt"

echo "== verifying every acked edge on the replica"
python3 "$VERIFY" "$KDIR/r.sock" "$KDIR/acked.txt" any

echo "== primary exports the connected replica"
scrape_and_lint "$KDIR/ready_p"
grep -Eq "^ecl_svc_replicas_connected [1-9]" "$WORK/last_scrape.txt"

echo "== graceful shutdown (replica, then primary)"
"$CLIENT" --unix="$KDIR/r.sock" shutdown
rccd_exit=0
wait "$RCCD_PID" || rccd_exit=$?
RCCD_PID=
[[ "$rccd_exit" -eq 0 ]] || { echo "replica exit code $rccd_exit"; cat "$KDIR/r2.log"; exit 1; }
# The revival resumed from its own log end: it never fetched a checkpoint.
grep -q "^replication: .*, 0 re-bootstraps$" "$KDIR/r2.log" || {
  echo "revived replica re-bootstrapped:"; cat "$KDIR/r2.log"; exit 1; }
"$CLIENT" --unix="$KDIR/p.sock" shutdown
ccd_exit=0
wait "$CCD_PID" || ccd_exit=$?
CCD_PID=
[[ "$ccd_exit" -eq 0 ]] || { echo "primary exit code $ccd_exit"; cat "$KDIR/p.log"; exit 1; }
echo "==== scenario kill-replica: OK"

# Failover: SIGKILL the primary mid-ingest, promote the replica over the
# wire, and require every batch acked *and shipped* before the kill to be
# queryable on the promoted node. The frozen acked set is fenced by a
# wal_bytes barrier: freeze the file, sample the primary's wal_bytes W,
# wait until the replica's logged wal_bytes >= W (no checkpoints in this
# run, so the primary never retires segments and the two byte counts are
# directly comparable) — then everything frozen is provably on the replica.
echo "==== scenario: kill-primary-then-promote"
FDIR="$WORK/kill-primary"
mkdir -p "$FDIR/p" "$FDIR/r"
echo "== starting primary (WAL only: the replica streams from segment 1)"
"$CCD" --vertices=20000 --unix="$FDIR/p.sock" --wal="$FDIR/p/wal" \
       --wal-fsync=batch \
       --ready-file="$FDIR/ready_p" --metrics-port=0 >"$FDIR/p.log" 2>&1 &
CCD_PID=$!
wait_ready "$FDIR/ready_p" "$CCD_PID" "$FDIR/p.log"

echo "== starting replica"
"$CCD" --vertices=20000 --unix="$FDIR/r.sock" --replica-of="$FDIR/p.sock" \
       --wal="$FDIR/r/wal" --checkpoint="$FDIR/r/ckpt" \
       --replica-fetch-interval-ms=25 \
       --ready-file="$FDIR/ready_r" --metrics-port=0 >"$FDIR/r.log" 2>&1 &
RCCD_PID=$!
wait_ready "$FDIR/ready_r" "$RCCD_PID" "$FDIR/r.log"

echo "== chaos load against the primary (background)"
# --retries=3 (not the chaos default 20): the primary is never coming back,
# so a 20-deep retry ladder per op would stall the deadline check for ~10 s.
"$LOADGEN" --unix="$FDIR/p.sock" --threads=3 --duration-ms=8000 --batch=32 \
           --ingest-frac=0.5 --seed=23 --chaos --retries=3 \
           --acked-file="$FDIR/acked.txt" >"$FDIR/loadgen.log" 2>&1 &
LOADGEN_PID=$!

sleep 2
echo "== freezing the acked set and fencing it on the replica"
cp "$FDIR/acked.txt" "$FDIR/acked_frozen.txt"
[[ -s "$FDIR/acked_frozen.txt" ]] || { echo "no acked batches to freeze"; exit 1; }
PRIMARY_WAL_BYTES=$("$CLIENT" --unix="$FDIR/p.sock" health | awk '/^wal_bytes/{print $2}')
[[ -n "$PRIMARY_WAL_BYTES" ]] || { echo "no wal_bytes in primary health"; exit 1; }
caught=0
for _ in $(seq 1 100); do
  RB=$("$CLIENT" --unix="$FDIR/r.sock" health 2>/dev/null | awk '/^wal_bytes/{print $2}')
  if [[ -n "$RB" && "$RB" -ge "$PRIMARY_WAL_BYTES" ]]; then caught=1; break; fi
  sleep 0.1
done
[[ "$caught" -eq 1 ]] || { echo "replica never reached wal_bytes $PRIMARY_WAL_BYTES"; exit 1; }
echo "frozen $(wc -l <"$FDIR/acked_frozen.txt") acked edges behind wal_bytes $PRIMARY_WAL_BYTES"

echo "== SIGKILL the primary mid-ingest"
kill -9 "$CCD_PID"
wait "$CCD_PID" 2>/dev/null || true
CCD_PID=

echo "== writes on the un-promoted replica must bounce with not_primary"
ingest_exit=0
"$CLIENT" --unix="$FDIR/r.sock" --retries=0 ingest 1 2 || ingest_exit=$?
[[ "$ingest_exit" -eq 2 ]] || { echo "expected not_primary (2), got $ingest_exit"; exit 1; }

echo "== promoting the replica over the wire"
"$CLIENT" --unix="$FDIR/r.sock" promote | grep -qx "promoted"
scrape_and_lint "$FDIR/ready_r"
grep -q "^ecl_svc_role 0$" "$WORK/last_scrape.txt"

echo "== the promoted node accepts writes"
"$CLIENT" --unix="$FDIR/r.sock" ingest 1 2 2 3
"$CLIENT" --unix="$FDIR/r.sock" connected 1 3 | grep -qx "connected"

echo "== waiting for the load generator (its primary is gone for good)"
loadgen_exit=0
wait "$LOADGEN_PID" || loadgen_exit=$?
LOADGEN_PID=
[[ "$loadgen_exit" -eq 0 ]] || {
  echo "loadgen exit code $loadgen_exit:"; cat "$FDIR/loadgen.log"; exit 1; }

echo "== verifying every frozen acked edge on the promoted node"
python3 "$VERIFY" "$FDIR/r.sock" "$FDIR/acked_frozen.txt" none

echo "== graceful shutdown"
"$CLIENT" --unix="$FDIR/r.sock" shutdown
rccd_exit=0
wait "$RCCD_PID" || rccd_exit=$?
RCCD_PID=
[[ "$rccd_exit" -eq 0 ]] || { echo "promoted node exit code $rccd_exit"; cat "$FDIR/r.log"; exit 1; }

echo "== restarting the promoted node as a plain primary on its own r/ state"
"$CCD" --vertices=20000 --unix="$FDIR/r.sock" --wal="$FDIR/r/wal" \
       --checkpoint="$FDIR/r/ckpt" --wal-fsync=batch \
       --ready-file="$FDIR/ready_r2" --metrics-port=0 >"$FDIR/r2.log" 2>&1 &
RCCD_PID=$!
wait_ready "$FDIR/ready_r2" "$RCCD_PID" "$FDIR/r2.log"
python3 "$VERIFY" "$FDIR/r.sock" "$FDIR/acked_frozen.txt" ckpt
"$CLIENT" --unix="$FDIR/r.sock" connected 1 3 | grep -qx "connected"
"$CLIENT" --unix="$FDIR/r.sock" shutdown
rccd_exit=0
wait "$RCCD_PID" || rccd_exit=$?
RCCD_PID=
[[ "$rccd_exit" -eq 0 ]] || { echo "restarted node exit code $rccd_exit"; cat "$FDIR/r2.log"; exit 1; }
echo "==== scenario kill-primary-then-promote: OK"

echo "svc_chaos: OK"
