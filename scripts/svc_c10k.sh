#!/usr/bin/env bash
# C10K smoke for the event-loop server front end (docs/EXECUTOR.md): one
# daemon, thousands of concurrent pipelined connections, bounded fd budget.
#
#   1. caps the fd soft limit (the point is to prove thousands of sockets
#      fit a bounded process, not to borrow an unlimited one),
#   2. starts ecl_ccd with a WAL on a Unix socket,
#   3. runs svc_loadgen in C10K mode through two phases (64 connections,
#      then >= 2000), recording every acked ingest batch,
#   4. snapshots the ecl_cc_top connections panel mid-run and checks the
#      daemon reports the open-connection flood,
#   5. requires every phase to connect every socket and finish with zero
#      unanswered ops, and 2000-connection throughput within 2x of the
#      64-connection figure,
#   6. verifies over the wire that every acked edge is connected (zero
#      acked-unacked divergence), and
#   7. shuts down gracefully.
#
#   usage: svc_c10k.sh <ecl_ccd> <ecl_cc_client> <svc_loadgen> <ecl_cc_top>
set -euo pipefail

CCD=$1
CLIENT=$2
LOADGEN=$3
TOP=$4

# Bounded fd budget: 4096 fds comfortably hold 2000 sockets plus the
# daemon's own files. Scale the phase down (never silently skip it) when
# the hard limit is tighter than that.
TARGET_FDS=4096
HARD=$(ulimit -Hn)
if [[ "$HARD" != "unlimited" && "$HARD" -lt "$TARGET_FDS" ]]; then
  TARGET_FDS=$HARD
fi
ulimit -n "$TARGET_FDS"
CONNS=2000
if (( TARGET_FDS < 2200 )); then
  CONNS=$(( TARGET_FDS - 200 ))
fi
echo "== fd soft limit $TARGET_FDS, big phase $CONNS connections"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ecl_svc_c10k.XXXXXX")
SOCK="$WORK/ccd.sock"
READY="$WORK/ready.txt"
CCD_LOG="$WORK/ccd.log"
LOAD_LOG="$WORK/loadgen.log"
ACKED="$WORK/acked.txt"
REPORT="$WORK/report.json"

cleanup() {
  for pid in "${CCD_PID:-}" "${LG_PID:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== starting ecl_ccd (WAL on, large backlog for the connect burst)"
"$CCD" --vertices=20000 --unix="$SOCK" --wal="$WORK/edges.wal" \
       --wal-fsync=batch --backlog=1024 --io-threads=4 \
       --ready-file="$READY" --metrics-port=0 >"$CCD_LOG" 2>&1 &
CCD_PID=$!
for _ in $(seq 1 100); do
  [[ -f "$READY" ]] && break
  kill -0 "$CCD_PID" 2>/dev/null || { echo "daemon died:"; cat "$CCD_LOG"; exit 1; }
  sleep 0.1
done
[[ -f "$READY" ]] || { echo "daemon never became ready"; cat "$CCD_LOG"; exit 1; }

echo "== c10k load: phases 64 and $CONNS connections (background)"
"$LOADGEN" --unix="$SOCK" --connections=64,"$CONNS" --pipeline=8 \
           --io-threads=4 --duration-ms=2000 --ingest-frac=0.3 --batch=16 \
           --seed=5 --acked-file="$ACKED" --report="$REPORT" \
           >"$LOAD_LOG" 2>&1 &
LG_PID=$!

echo "== watching the connections panel for the flood"
SEEN_OPEN=0
for _ in $(seq 1 60); do
  if ! kill -0 "$LG_PID" 2>/dev/null; then break; fi
  "$TOP" --unix="$SOCK" --plain --iterations=1 >"$WORK/top.txt" 2>/dev/null || true
  OPEN=$(awk '/^conns/{print $2}' "$WORK/top.txt")
  if [[ -n "${OPEN:-}" ]] && (( OPEN > 1 )); then
    SEEN_OPEN=$OPEN
    break
  fi
  sleep 0.2
done
(( SEEN_OPEN > 1 )) || { echo "dashboard never showed open connections"; cat "$WORK/top.txt" 2>/dev/null || true; exit 1; }
grep -q "^evictions" "$WORK/top.txt" || { echo "no evictions panel:"; cat "$WORK/top.txt"; exit 1; }
echo "   conns panel live: $SEEN_OPEN open while loading"

LG_EXIT=0
wait "$LG_PID" || LG_EXIT=$?
LG_PID=
sed 's/^/   loadgen| /' "$LOAD_LOG"
[[ "$LG_EXIT" -eq 0 ]] || { echo "loadgen exit code $LG_EXIT"; exit 1; }

echo "== validating phase results"
python3 - "$LOAD_LOG" "$REPORT" "$CONNS" <<'PYEOF'
import json, re, sys

log, report_path, big = open(sys.argv[1]).read(), sys.argv[2], int(sys.argv[3])

phases = {}
for m in re.finditer(
        r'c10k\[(\d+) conns, (\d+) connected\]: (\d+) ops in \d+ ms '
        r'\((\d+) ops/s\), p99=([\d.]+) us, (\d+) shed, (\d+) errors', log):
    req, conn, ops, thr, p99, shed, errors = m.groups()
    phases[int(req)] = dict(connected=int(conn), ops=int(ops),
                            throughput=int(thr), p99=float(p99),
                            errors=int(errors))
assert sorted(phases) == [64, big], f'phases seen: {sorted(phases)}'
for req, ph in phases.items():
    assert ph['connected'] == req, f'{req}: only {ph["connected"]} connected'
    assert ph['ops'] > 0, f'{req}: no ops completed'
    assert ph['errors'] == 0, f'{req}: {ph["errors"]} unanswered/failed ops'

# Scalability bar: the big phase holds at least half the 64-conn throughput.
small, large = phases[64]['throughput'], phases[big]['throughput']
assert large * 2 >= small, \
    f'throughput collapsed: {large} ops/s at {big} conns vs {small} at 64'
print(f'phases ok: 64 conns {small} ops/s, {big} conns {large} ops/s '
      f'(p99 {phases[big]["p99"]:.0f} us)')

r = json.load(open(report_path))
assert r['bench'] == 'svc_loadgen', r['bench']
cells = {c['code'] for c in r['cells'] if c['graph'] == 'c10k'}
assert cells == {'conns_64', f'conns_{big}'}, cells
metrics = {m['name']: m for m in r['metrics']}
for n in (64, big):
    hist = metrics[f'ecl.loadgen.c10k.op_us.c{n}']
    assert hist['count'] > 0 and 0 < hist['p50'] <= hist['p99'], hist
    assert metrics[f'ecl.loadgen.c10k.c{n}.throughput_ops']['value'] > 0
print('report ok: per-phase histograms and throughput gauges present')
PYEOF

echo "== verifying every acked edge against the live daemon"
[[ -s "$ACKED" ]] || { echo "no acked batches recorded"; exit 1; }
python3 - "$SOCK" "$ACKED" <<'PYEOF'
import socket, struct, sys, time

sock_path, acked_path = sys.argv[1], sys.argv[2]

def recv_exact(s, n):
    buf = b''
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise RuntimeError('daemon closed the connection mid-response')
        buf += chunk
    return buf

next_id = 0
def request(s, rtype, body=b''):
    global next_id
    next_id += 1
    payload = struct.pack('<BQ', rtype, next_id) + body
    s.sendall(struct.pack('<I', len(payload)) + payload)
    (n,) = struct.unpack('<I', recv_exact(s, 4))
    resp = recv_exact(s, n)
    rt, rid, status = struct.unpack_from('<BQB', resp, 0)
    assert rid == next_id, f'response id {rid} != request id {next_id}'
    return status, resp[10:]

edges = []
with open(acked_path) as f:
    for line in f:
        u, v = line.split()
        edges.append((int(u), int(v)))
print(f'{len(edges)} acked edges to verify')

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)

def parse_stats(body):
    fmt, count = struct.unpack_from('<BH', body, 0)
    assert fmt == 1, f'unknown stats format byte {fmt}'
    fields = {}
    off = 3
    for _ in range(count):
        tag, value = struct.unpack_from('<HQ', body, off)
        fields[tag] = value
        off += 10
    return fields

QUEUE_DEPTH = 7  # ECL_SVC_STATS_FIELDS tag (src/svc/service.h)
for _ in range(200):  # drain: late acks may still sit in the admission queue
    status, body = request(s, 5)
    assert status == 0, f'stats status {status}'
    if parse_stats(body).get(QUEUE_DEPTH, 0) == 0:
        break
    time.sleep(0.05)
else:
    sys.exit('ingest queue never drained')

lost = 0
for (u, v) in edges:
    status, body = request(s, 2, struct.pack('<IIB', u, v, 1))  # kFresh
    (value,) = struct.unpack('<Q', body)
    if status != 0 or value != 1:
        lost += 1
        if lost <= 5:
            print(f'LOST acked edge ({u}, {v}): status={status} value={value}')
if lost:
    sys.exit(f'{lost} of {len(edges)} acked edges missing')
print(f'all {len(edges)} acked edges connected: zero acked-unacked divergence')
PYEOF

echo "== graceful shutdown"
"$CLIENT" --unix="$SOCK" shutdown
CCD_EXIT=0
wait "$CCD_PID" || CCD_EXIT=$?
CCD_PID=
[[ "$CCD_EXIT" -eq 0 ]] || { echo "daemon exit code $CCD_EXIT"; cat "$CCD_LOG"; exit 1; }
grep -q "^shutdown:" "$CCD_LOG" || { echo "no shutdown line:"; cat "$CCD_LOG"; exit 1; }

echo "svc c10k: PASS"
