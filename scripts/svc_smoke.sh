#!/usr/bin/env bash
# End-to-end smoke test for the connectivity service: starts ecl_ccd on a
# Unix socket with the metrics exporter and slow-request log enabled,
# exercises it with ecl_cc_client and svc_loadgen, renders a scripted
# ecl_cc_top snapshot, validates the Prometheus scrape and the run-report
# JSON, and checks that every op the loadgen observed as slow appears in the
# daemon's slow-request log under the same request id.
#
#   usage: svc_smoke.sh <ecl_ccd> <ecl_cc_client> <svc_loadgen> <ecl_cc_top>
set -euo pipefail

CCD=$1
CLIENT=$2
LOADGEN=$3
TOP=$4
SCRIPT_DIR=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ecl_svc_smoke.XXXXXX")
SOCK="$WORK/ccd.sock"
READY="$WORK/ready.txt"
CCD_LOG="$WORK/ccd.log"
CCD_REPORT="$WORK/ccd_report.json"
LOADGEN_REPORT="$WORK/loadgen_report.json"
SLOW_LOG="$WORK/slow.jsonl"
SLOW_FILE="$WORK/client_slow.txt"
SCRAPE="$WORK/scrape.txt"

cleanup() {
  if [[ -n "${CCD_PID:-}" ]] && kill -0 "$CCD_PID" 2>/dev/null; then
    kill "$CCD_PID" 2>/dev/null || true
    wait "$CCD_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== starting ecl_ccd on $SOCK (exporter + slow log enabled)"
# --slow-threshold-us=0 logs every served request, so the client-side slow
# file below must join against it on request id.
"$CCD" --vertices=20000 --unix="$SOCK" --ready-file="$READY" \
       --report="$CCD_REPORT" --metrics-port=0 \
       --slow-log="$SLOW_LOG" --slow-threshold-us=0 >"$CCD_LOG" 2>&1 &
CCD_PID=$!

for _ in $(seq 1 100); do
  [[ -f "$READY" ]] && break
  kill -0 "$CCD_PID" 2>/dev/null || { echo "daemon died:"; cat "$CCD_LOG"; exit 1; }
  sleep 0.1
done
[[ -f "$READY" ]] || { echo "daemon never became ready"; cat "$CCD_LOG"; exit 1; }
MPORT=$(awk '/^metrics /{print $2}' "$READY")
[[ -n "$MPORT" ]] || { echo "no metrics port in ready file:"; cat "$READY"; exit 1; }
echo "   metrics exporter on port $MPORT"

echo "== client round trips"
"$CLIENT" --unix="$SOCK" ping
"$CLIENT" --unix="$SOCK" ingest 1 2 2 3
# Neither the ingest ack nor a snapshot read promises visibility (snapshots
# are stale by up to one compaction interval, docs/SERVICE.md), so poll the
# snapshot read for up to ~5 s before asserting it.
for _ in $(seq 1 50); do
  [[ "$("$CLIENT" --unix="$SOCK" connected 1 3)" == "connected" ]] && break
  sleep 0.1
done
"$CLIENT" --unix="$SOCK" connected 1 3 | grep -qx "connected"
"$CLIENT" --unix="$SOCK" connected 1 4 | grep -qx "not-connected"
"$CLIENT" --unix="$SOCK" stats

echo "== load generation (recording client-observed slow ops)"
"$LOADGEN" --unix="$SOCK" --threads=4 --duration-ms=1000 \
           --slow-us=1 --slow-file="$SLOW_FILE" \
           --report="$LOADGEN_REPORT"

echo "== live dashboard snapshot"
"$TOP" --unix="$SOCK" --plain --iterations=2 --interval-ms=200 >"$WORK/top.txt"
grep -q "requests" "$WORK/top.txt" || { echo "ecl_cc_top output:"; cat "$WORK/top.txt"; exit 1; }
grep -q "snapshot" "$WORK/top.txt"
grep -q "wal" "$WORK/top.txt"
sed 's/^/   top| /' "$WORK/top.txt" | head -8

echo "== scraping and validating /metrics"
python3 "$SCRIPT_DIR/check_metrics_export.py" \
    --url="http://127.0.0.1:$MPORT/metrics" \
    --require=ecl_svc_up --require=ecl_svc_epoch \
    --require=ecl_svc_requests_served_total --require=ecl_svc_queue_depth \
    --require=ecl_wal_enabled --require=ecl_ckpt_enabled \
    --require=ecl_svc_op_us_connected --require=ecl_exporter_scrapes_total \
    --require=ecl_svc_num_vertices --require=ecl_svc_applied_batches_total \
    --require=ecl_svc_degraded_entries_total

echo "== graceful shutdown"
"$CLIENT" --unix="$SOCK" shutdown
wait "$CCD_PID"
CCD_EXIT=$?
[[ "$CCD_EXIT" -eq 0 ]] || { echo "daemon exit code $CCD_EXIT"; cat "$CCD_LOG"; exit 1; }
grep -q "^shutdown:" "$CCD_LOG" || { echo "no shutdown line:"; cat "$CCD_LOG"; exit 1; }

echo "== validating slow-request log against client-observed slow ops"
python3 - "$SLOW_LOG" "$SLOW_FILE" <<'EOF'
import json, sys

server = {}
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)  # every line must be valid JSON
        for key in ('ts_ms', 'request_id', 'op', 'status', 'queue_depth',
                    'total_us', 'decode_us', 'queue_us', 'execute_us',
                    'encode_us', 'write_us'):
            assert key in rec, (key, rec)
        server[rec['request_id']] = rec
assert server, 'daemon slow log is empty'

client_ids = []
with open(sys.argv[2]) as f:
    for line in f:
        rid, op, us = line.split()
        client_ids.append((int(rid), op))
assert client_ids, 'loadgen recorded no slow ops'

missing = [(rid, op) for rid, op in client_ids if rid not in server]
assert not missing, f'{len(missing)} client-observed slow ops missing from the daemon log: {missing[:5]}'
for rid, op in client_ids:
    assert server[rid]['op'] == op, (rid, op, server[rid])
print('slow-log join ok: %d server lines, %d client slow ops all matched by id'
      % (len(server), len(client_ids)))
EOF

echo "== validating report JSON"
python3 - "$LOADGEN_REPORT" "$CCD_REPORT" <<'EOF'
import json, sys

r = json.load(open(sys.argv[1]))
assert r['schema_version'] == 1, r['schema_version']
assert r['bench'] == 'svc_loadgen', r['bench']
assert r['cells'] and all(
    c['rep_ms'] and c['min_ms'] <= c['median_ms'] <= c['max_ms'] for c in r['cells'])
hists = {m['name']: m for m in r['metrics'] if 'p99' in m}
for name in ('ecl.loadgen.query_us', 'ecl.loadgen.ingest_us'):
    m = hists[name]
    assert m['count'] > 0, (name, m)
    assert 0 < m['p50'] <= m['p95'] <= m['p99'], (name, m)
throughput = [m for m in r['metrics'] if m['name'] == 'ecl.loadgen.throughput_ops']
assert throughput and throughput[0]['value'] > 0
print('loadgen report ok: %d ops/s, query p99=%.0fus' %
      (throughput[0]['value'], hists['ecl.loadgen.query_us']['p99']))

d = json.load(open(sys.argv[2]))
assert d['bench'] == 'ecl_ccd', d['bench']
served = {m['name']: m for m in d['metrics']}
assert served['ecl.svc.server.connections']['count'] > 0
op_hists = [m for m in d['metrics'] if m['name'].startswith('ecl.svc.op_us.')]
assert op_hists and all(m['p50'] <= m['p99'] for m in op_hists)
print('daemon report ok: %d metrics, %d per-op histograms' %
      (len(d['metrics']), len(op_hists)))
EOF

echo "svc smoke: PASS"
