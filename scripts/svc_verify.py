#!/usr/bin/env python3
"""Acked-edge verifier for a live ecl_ccd: acked => durable, over the wire.

Drains the ingest pipeline, checks the daemon's health, reads every vertex's
label and checks every acked edge against the labels; each mismatch, plus a
fixed 1,000-edge sample, is confirmed with kConnected before it counts as
lost. Exits non-zero (with the first few lost edges) on any lost edge.

Usage:
  svc_verify.py <sock> <acked-file> <recovery: replay|any|none|ckpt>

<acked-file> holds one acked edge "u v" per line (svc_loadgen --acked-file).
The recovery mode names the evidence a restarted daemon must show: 'replay'
a non-empty WAL replay, 'ckpt' a checkpoint load, 'any' either; 'none' skips
those assertions, for a daemon that never restarted (a live node, or a
just-promoted replica that got its state by streaming).
"""
import socket, struct, sys, time

sock_path, acked_path, recovery = sys.argv[1], sys.argv[2], sys.argv[3]

def recv_exact(s, n):
    buf = b''
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise RuntimeError('daemon closed the connection mid-response')
        buf += chunk
    return buf

# Requests are pipelined in windows (responses come back in request order),
# so a window costs one round trip instead of one per request.
WINDOW = 512
next_id = 0
def pipelined(rtype, bodies):
    """Sends one request per body; returns the (status, response body) list."""
    global next_id
    answers = []
    for start in range(0, len(bodies), WINDOW):
        window = bodies[start:start + WINDOW]
        first_id = next_id + 1
        frames = []
        for body in window:
            next_id += 1
            payload = struct.pack('<BQ', rtype, next_id) + body
            frames.append(struct.pack('<I', len(payload)) + payload)
        s.sendall(b''.join(frames))
        for i in range(len(window)):
            (size,) = struct.unpack('<I', recv_exact(s, 4))
            resp = recv_exact(s, size)
            rt, rid, status = struct.unpack_from('<BQB', resp, 0)
            assert rid == first_id + i, f'response id {rid} != request id {first_id + i}'
            answers.append((status, resp[10:]))
    return answers

def u64(body):
    return struct.unpack('<Q', body)[0]

with open(acked_path) as f:
    ends = list(map(int, f.read().split()))
edges = list(zip(ends[0::2], ends[1::2]))
print(f'{len(edges)} acked edges to verify')

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)

# The kStats body is tag-indexed: u16 count | count x (u16 tag, u64 value).
# Tags are the ECL_SVC_STATS_FIELDS rows in src/svc/service.h.
def parse_stats(body):
    fields = {}
    (count,) = struct.unpack_from('<H', body, 0)
    assert len(body) == 2 + 10 * count, (len(body), count)
    off = 2
    for _ in range(count):
        tag, value = struct.unpack_from('<HQ', body, off)
        fields[tag] = value
        off += 10
    return fields

QUEUE_DEPTH, NUM_VERTICES, LAST_CKPT_EPOCH, WAL_SEGMENTS = 7, 9, 11, 12
DEGRADED, REPLAYED_EDGES, WORKER_ALIVE, WAL_ENABLED, WAL_HEALTHY = 14, 16, 25, 26, 27
STALENESS_EDGES, INGEST_LAG_BATCHES, CKPT_ENABLED = 28, 29, 32

# Drain: an ack precedes the apply, so batches acked in the loadgen's final
# moments may still sit in the admission queue, and the ingest thread pops
# a batch (queue_depth drops) before it applies it. Every acked edge is in
# the snapshot once the queue is empty, every accepted batch is applied
# (ingest_lag_batches == 0) and compacted (staleness_edges == 0); only then
# read (kStats = 5).
for _ in range(200):
    [(status, body)] = pipelined(5, [b''])
    assert status == 0, f'stats status {status}'
    stats = parse_stats(body)
    if all(stats.get(tag, 0) == 0
           for tag in (QUEUE_DEPTH, INGEST_LAG_BATCHES, STALENESS_EDGES)):
        break
    time.sleep(0.05)
else:
    sys.exit('ingest pipeline never drained after restart')

# The same drained sample: the revived daemon must be fully healthy, with a
# WAL.
degraded = stats.get(DEGRADED, 0)
worker_alive = stats.get(WORKER_ALIVE, 0)
wal_enabled = stats.get(WAL_ENABLED, 0)
wal_healthy = stats.get(WAL_HEALTHY, 0)
replayed = stats.get(REPLAYED_EDGES, 0)
ckpt_enabled = stats.get(CKPT_ENABLED, 0)
last_ckpt_epoch = stats.get(LAST_CKPT_EPOCH, 0)
wal_segments = stats.get(WAL_SEGMENTS, 0)
assert not degraded, 'daemon is degraded after restart'
assert worker_alive and wal_enabled and wal_healthy, \
    f'bad health: worker={worker_alive} wal={wal_enabled}/{wal_healthy}'
assert wal_segments >= 1, f'wal enabled but {wal_segments} segments'
print(f'health ok; replayed={replayed} ckpt_epoch={last_ckpt_epoch} '
      f'segments={wal_segments}')
if recovery == 'replay':
    assert replayed > 0, 'expected a non-empty WAL replay'
elif recovery == 'none':
    pass  # live node (never restarted): no recovery evidence to demand
else:
    # Checkpoint scenarios: recovery may come from the checkpoint (epoch>0),
    # the WAL tail, or both — but it must come from somewhere.
    assert replayed > 0 or last_ckpt_epoch > 0, \
        'restart recovered neither a checkpoint nor any WAL records'
if ckpt_enabled and recovery == 'ckpt':
    assert last_ckpt_epoch > 0, 'expected recovery from a checkpoint'

# acked => durable: every acked edge must be connected. No sampling: every
# line in the file is checked, against one kComponentOf (3) read of every
# vertex's label (a snapshot read, the only kind). A snapshot
# label is the minimum of the vertex's component. A match is exact: if
# label[u] == label[v] == m, u and v were each in m's component at their
# reads, and snapshots only coarsen, so they are connected. A mismatch may
# only mean a newer epoch landed between the two reads, so each one is
# confirmed with a kConnected (2) for that edge before it counts as lost.
n = stats.get(NUM_VERTICES, 0)
labels = []
for v, (status, body) in enumerate(pipelined(3, [struct.pack('<I', v) for v in range(n)])):
    assert status == 0, f'component_of({v}) status {status}'
    labels.append(u64(body))
suspects = [i for i, (u, v) in enumerate(edges)
            if u >= n or v >= n or labels[u] != labels[v]]
# A fixed 1,000-edge sample also goes through kConnected, so the wire op
# stays covered even when every label matches.
sample = range(0, len(edges), max(1, len(edges) // 1000))[:1000]
print(f'{n} labels read; {len(suspects)} label mismatches and a '
      f'{len(sample)}-edge sample to confirm with kConnected')
checked = [edges[i] for i in sorted(set(suspects).union(sample))]
answers = pipelined(2, [struct.pack('<II', u, v) for (u, v) in checked])
lost = 0
for (u, v), (status, body) in zip(checked, answers):
    value = u64(body) if status == 0 else None
    if status != 0 or value != 1:
        lost += 1
        if lost <= 5:
            print(f'LOST acked edge ({u}, {v}): status={status} value={value}')
if lost:
    sys.exit(f'{lost} of {len(edges)} acked edges missing after crash recovery')
print(f'all {len(edges)} acked edges survived the crash')
