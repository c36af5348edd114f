// svc_loadgen — closed- and open-loop load generator for a running ecl_ccd.
//
// Each worker thread opens its own connection and issues a randomized mix of
// connectivity queries and edge-batch ingests against the daemon. Per-op
// latency is recorded into obs histograms, so the standard --report= JSON
// carries p50/p95/p99 tail latency alongside throughput.
//
//   $ ecl_ccd --vertices=100000 --unix=/tmp/ecl.sock &
//   $ svc_loadgen --unix=/tmp/ecl.sock --threads=4 --duration-ms=2000 [...]
//                 --report=loadgen.json
//
// Flags:
//   --unix=PATH | --host=A --port=P   daemon endpoint
//   --target=T[,T,...]   read-replica fan-out: each T is host:port or a unix
//                        socket path (anything containing '/'). Snapshot
//                        queries round-robin across all targets; ingests go
//                        to the first one (the primary). Per-target
//                        throughput and p99 land in the --report JSON under
//                        ecl.loadgen.target.<label>.* names. Overrides
//                        --unix/--host/--port (the first target doubles as
//                        the probe/shutdown endpoint).
//   --threads=N          worker threads / connections (default 4)
//   --duration-ms=N      run length per worker (default 2000)
//   --rate=R             open loop: target ops/sec per worker (0 = closed
//                        loop, i.e. back-to-back requests; default 0)
//   --ingest-frac=F      fraction of ops that are ingests (default 0.25)
//   --batch=N            edges per ingest batch (default 64)
//   --mode=snapshot|fresh  read mode for queries (default snapshot)
//   --seed=N             RNG seed (default 1)
//   --report=FILE.json   obs run report (throughput + latency percentiles)
//   --shutdown           send a graceful-shutdown request when done
//   --chaos              survive daemon crashes: never stop on transport
//                        errors (the client reconnects + retries), use a
//                        deep retry budget, and keep hammering until the
//                        duration elapses — pair with --acked-file
//   --acked-file=FILE    append "u v" lines for every *acked* (kOk) ingest
//                        batch, flushed per batch; the chaos harness checks
//                        each of these edges is connected after a crash +
//                        WAL-replay restart
//   --retries=N          client retry budget per op (default 4; 20 in chaos)
//   --op-timeout-ms=N    per-attempt socket deadline (default 10000)
//   --slow-us=N          with --slow-file: an op whose client-observed
//                        latency is >= N microseconds is recorded
//   --slow-file=FILE     append "request_id op latency_us" per slow op; the
//                        ids are the ones the daemon's --slow-log captured
//                        server-side, so the two files join on id
//
// C10K mode (replaces the thread-per-connection workers):
//   --connections=N[,M,...]  hold N sockets open simultaneously, multiplexed
//                        by a few event-loop threads instead of N threads; a
//                        comma-separated list runs one phase per count, so a
//                        single invocation produces the 64-vs-2000-connection
//                        comparison in one report
//   --pipeline=K         keep K requests in flight per connection (default 8)
//   --io-threads=N       client-side event-loop threads (default 2)
//   Per phase, throughput and the latency distribution land in the report
//   JSON under connection-count-keyed names (ecl.loadgen.c10k.op_us.c<N>
//   histogram with p50/p95/p99, ecl.loadgen.c10k.c<N>.throughput_ops gauge).
//
// Exit codes: 0 success, 1 connect/usage failure, 2 every op failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/timer.h"
#include "exec/event_loop.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "svc/client.h"
#include "svc/net.h"
#include "svc/protocol.h"

namespace {

using namespace ecl;

struct WorkerResult {
  std::uint64_t queries = 0;
  std::uint64_t ingests = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t edges_sent = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  double wall_ms = 0.0;
};

/// One --target endpoint. label is the raw flag text (for printing); the
/// metric-name-safe form is derived where needed.
struct TargetSpec {
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string label;
};

struct LoadConfig {
  std::string unix_path;
  std::string host;
  int port = 0;
  /// Always holds >= 1 entry once main() finishes parsing; entry 0 is the
  /// ingest/probe endpoint. per_target gates the per-target report section.
  std::vector<TargetSpec> targets;
  bool per_target = false;
  int threads = 4;
  int duration_ms = 2000;
  double rate = 0.0;  // ops/sec per worker; 0 = closed loop
  double ingest_frac = 0.25;
  std::size_t batch = 64;
  svc::ReadMode mode = svc::ReadMode::kSnapshot;
  std::uint64_t seed = 1;
  vertex_t num_vertices = 0;
  bool chaos = false;
  std::uint64_t slow_us = 0;  // with a slow file: ops at least this slow
  svc::ClientOptions copts;
  std::vector<int> connections;  // C10K phases; empty = thread workers
  int pipeline = 8;              // in-flight requests per connection
  int io_threads = 2;            // client-side event-loop threads
};

/// Shared sink for --acked-file: every kOk ingest batch is appended and
/// flushed under the lock, so after a daemon crash the file holds exactly
/// the edges whose durability the server acknowledged.
std::FILE* g_acked_file = nullptr;
std::mutex g_acked_mu;

void record_acked(const std::vector<Edge>& batch) {
  if (g_acked_file == nullptr) return;
  std::lock_guard<std::mutex> lock(g_acked_mu);
  for (const auto& [u, v] : batch) std::fprintf(g_acked_file, "%u %u\n", u, v);
  std::fflush(g_acked_file);
}

/// Shared sink for --slow-file: one "request_id op latency_us" line per op
/// the *client* observed as slow. The id is the one stamped on the wire, so
/// these lines join with the daemon's --slow-log JSON on request_id.
std::FILE* g_slow_file = nullptr;
std::mutex g_slow_mu;
std::atomic<std::uint64_t> g_slow_ops{0};

void record_slow(const svc::Client& client, const char* op, std::uint64_t us,
                 std::uint64_t threshold_us) {
  if (g_slow_file == nullptr || us < threshold_us) return;
  g_slow_ops.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_slow_mu);
  std::fprintf(g_slow_file, "%llu %s %llu\n",
               static_cast<unsigned long long>(client.last_request_id()), op,
               static_cast<unsigned long long>(us));
  std::fflush(g_slow_file);
}

std::unique_ptr<svc::Client> connect_target(const LoadConfig& cfg,
                                            const TargetSpec& t,
                                            std::string* err, int tid = 0) {
  svc::ClientOptions copts = cfg.copts;
  copts.backoff_seed = cfg.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(tid);
  return t.unix_path.empty()
             ? svc::Client::connect_tcp(t.host, t.port, err, copts)
             : svc::Client::connect_unix(t.unix_path, err, copts);
}

std::unique_ptr<svc::Client> connect(const LoadConfig& cfg, std::string* err,
                                     int tid = 0) {
  TargetSpec t;
  t.unix_path = cfg.unix_path;
  t.host = cfg.host;
  t.port = cfg.port;
  return connect_target(cfg, t, err, tid);
}

/// Per-target aggregation for --target fan-out: each target gets its own
/// query histogram plus shared atomic tallies the workers bump directly.
struct TargetAgg {
  obs::Histogram* query_us = nullptr;
  std::string key;  // metric-name-safe label (':' and '/' mapped to '_')
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> errors{0};
};
std::vector<TargetAgg>* g_targets = nullptr;

void worker(const LoadConfig& cfg, int tid, obs::Histogram& query_us,
            obs::Histogram& ingest_us, WorkerResult& out) {
  std::string err;
  // One connection per target; clients[0] is the primary (ingests), queries
  // round-robin across the whole set.
  std::vector<std::unique_ptr<svc::Client>> clients;
  clients.reserve(cfg.targets.size());
  for (std::size_t i = 0; i < cfg.targets.size(); ++i) {
    auto c = connect_target(cfg, cfg.targets[i], &err,
                            tid + static_cast<int>(i) * cfg.threads);
    if (!c) {
      std::fprintf(stderr, "worker %d: connect to %s failed: %s\n", tid,
                   cfg.targets[i].label.c_str(), err.c_str());
      out.errors = 1;
      return;
    }
    clients.push_back(std::move(c));
  }
  // Stagger each worker's starting target so short runs still spread reads
  // evenly instead of all hammering target 0 first.
  std::size_t rr = static_cast<std::size_t>(tid) % clients.size();

  std::mt19937_64 rng(cfg.seed * 1315423911u + static_cast<std::uint64_t>(tid));
  std::uniform_int_distribution<vertex_t> pick_vertex(0, cfg.num_vertices - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<Edge> batch;
  batch.reserve(cfg.batch);

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  const auto deadline = start + std::chrono::milliseconds(cfg.duration_ms);
  // Open loop: fire at fixed wall-clock slots so service time does not gate
  // the offered load (queueing shows up as latency, not lost throughput).
  const auto period =
      cfg.rate > 0.0 ? std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(1.0 / cfg.rate))
                     : clock::duration::zero();
  auto next_slot = start;

  Timer wall;
  while (clock::now() < deadline) {
    if (cfg.rate > 0.0) {
      std::this_thread::sleep_until(next_slot);
      next_slot += period;
    }
    if (coin(rng) < cfg.ingest_frac) {
      svc::Client& client = *clients[0];  // ingests always hit the primary
      batch.clear();
      for (std::size_t i = 0; i < cfg.batch; ++i) {
        batch.emplace_back(pick_vertex(rng), pick_vertex(rng));
      }
      Timer t;
      const svc::Status st = client.ingest(batch);
      const auto us = static_cast<std::uint64_t>(t.micros());
      ingest_us.record(us);
      record_slow(client, "ingest", us, cfg.slow_us);
      if (st == svc::Status::kOk) {
        ++out.ingests;
        out.edges_sent += batch.size();
        record_acked(batch);
      } else if (st == svc::Status::kShed) {
        ++out.shed;
      } else {
        ++out.errors;
        // Chaos mode rides through daemon crashes: the client's reconnect +
        // retry policy re-establishes the connection once the daemon is
        // back, so a transport error is just another sample, not the end.
        if (st == svc::Status::kError && !cfg.chaos) break;
      }
    } else {
      const std::size_t ti = rr;
      rr = (rr + 1) % clients.size();
      svc::Client& client = *clients[ti];
      svc::Status st = svc::Status::kOk;
      Timer t;
      (void)client.connected(pick_vertex(rng), pick_vertex(rng), cfg.mode, &st);
      const auto us = static_cast<std::uint64_t>(t.micros());
      query_us.record(us);
      if (g_targets != nullptr) (*g_targets)[ti].query_us->record(us);
      record_slow(client, "connected", us, cfg.slow_us);
      if (st == svc::Status::kOk) {
        ++out.queries;
        if (g_targets != nullptr) {
          (*g_targets)[ti].queries.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        ++out.errors;
        if (g_targets != nullptr) {
          (*g_targets)[ti].errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (st == svc::Status::kError && !cfg.chaos) break;
      }
    }
  }
  out.wall_ms = wall.millis();
  for (const auto& c : clients) {
    out.retries += c->retries();
    out.reconnects += c->reconnects();
  }
}

// ---- C10K mode -------------------------------------------------------------
//
// Thousands of connections, a handful of threads: every socket is adopted by
// an ecl::exec event loop, each keeps --pipeline requests in flight, and the
// daemon's in-order response guarantee lets a plain FIFO match responses to
// requests. All per-connection state is touched only on its loop's thread.

struct PendingOp {
  std::uint64_t id = 0;
  svc::MsgType type = svc::MsgType::kPing;
  std::chrono::steady_clock::time_point sent;
  std::vector<Edge> batch;  // retained for --acked-file until the ack lands
};

struct C10kShared {
  const LoadConfig* cfg = nullptr;
  obs::Histogram* op_us = nullptr;      // this phase, all ops
  obs::Histogram* query_us = nullptr;   // cross-phase loadgen histograms
  obs::Histogram* ingest_us = nullptr;
  std::atomic<bool> stop_sending{false};
  std::atomic<int> open{0};
  std::atomic<std::uint64_t> next_id{1};
};

struct C10kConn {
  C10kShared* sh = nullptr;
  std::mt19937_64 rng;
  std::deque<PendingOp> inflight;
  WorkerResult out;
  bool keep_batches = false;
};

void c10k_send_one(ecl::exec::Conn& conn, C10kConn& st) {
  C10kShared& sh = *st.sh;
  const LoadConfig& cfg = *sh.cfg;
  std::uniform_int_distribution<vertex_t> pick(0, cfg.num_vertices - 1);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  PendingOp op;
  op.id = sh.next_id.fetch_add(1, std::memory_order_relaxed);
  op.sent = std::chrono::steady_clock::now();
  svc::Request req;
  req.id = op.id;
  if (coin(st.rng) < cfg.ingest_frac) {
    req.type = svc::MsgType::kIngest;
    req.edges.reserve(cfg.batch);
    for (std::size_t i = 0; i < cfg.batch; ++i) {
      req.edges.emplace_back(pick(st.rng), pick(st.rng));
    }
    if (st.keep_batches) op.batch = req.edges;
  } else {
    req.type = svc::MsgType::kConnected;
    req.u = pick(st.rng);
    req.v = pick(st.rng);
    req.mode = cfg.mode;
  }
  op.type = req.type;
  thread_local std::vector<std::uint8_t> buf;
  buf.clear();
  svc::encode_request(req, buf);  // complete frame, length prefix included
  st.inflight.push_back(std::move(op));
  conn.send(buf.data(), buf.size());
}

void c10k_top_up(ecl::exec::Conn& conn, C10kConn& st) {
  while (!conn.closing() &&
         !st.sh->stop_sending.load(std::memory_order_acquire) &&
         st.inflight.size() < static_cast<std::size_t>(st.sh->cfg->pipeline)) {
    c10k_send_one(conn, st);
  }
}

void c10k_on_frame(ecl::exec::Conn& conn, std::span<const std::uint8_t> payload,
                   C10kConn& st) {
  C10kShared& sh = *st.sh;
  svc::Response resp;
  if (!svc::decode_response(payload, resp) || st.inflight.empty() ||
      resp.id != st.inflight.front().id) {
    // Undecodable or out-of-order: the pipeline bookkeeping is broken on
    // this connection, so stop trusting it.
    ++st.out.errors;
    conn.close(ecl::exec::CloseReason::kProtocolError);
    return;
  }
  PendingOp op = std::move(st.inflight.front());
  st.inflight.pop_front();
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - op.sent)
          .count());
  sh.op_us->record(us);
  if (op.type == svc::MsgType::kIngest) {
    sh.ingest_us->record(us);
    if (resp.status == svc::Status::kOk) {
      ++st.out.ingests;
      st.out.edges_sent += sh.cfg->batch;
      if (st.keep_batches) record_acked(op.batch);
    } else if (resp.status == svc::Status::kShed) {
      ++st.out.shed;
    } else {
      ++st.out.errors;
    }
  } else {
    sh.query_us->record(us);
    if (resp.status == svc::Status::kOk) {
      ++st.out.queries;
    } else {
      ++st.out.errors;
    }
  }
  if (sh.stop_sending.load(std::memory_order_acquire)) {
    if (st.inflight.empty()) conn.close();  // tail drained: this one is done
    return;
  }
  c10k_top_up(conn, st);
}

void c10k_on_close(C10kConn& st) {
  // Anything still in flight at close (eviction, shutdown) went unanswered.
  st.out.errors += st.inflight.size();
  st.inflight.clear();
  st.sh->open.fetch_sub(1, std::memory_order_acq_rel);
}

struct C10kPhase {
  int requested = 0;
  int connected = 0;
  WorkerResult total;
  double wall_ms = 0.0;
  std::uint64_t ops = 0;
  double throughput = 0.0;
  double p99_us = 0.0;
};

bool run_c10k_phase(const LoadConfig& cfg, int conns, obs::Histogram& query_us,
                    obs::Histogram& ingest_us, C10kPhase& out) {
  out.requested = conns;
  C10kShared sh;
  sh.cfg = &cfg;
  sh.query_us = &query_us;
  sh.ingest_us = &ingest_us;
  sh.op_us = &obs::registry().histogram(
      "ecl.loadgen.c10k.op_us.c" + std::to_string(conns),
      obs::Histogram::pow2_bounds(22));

  ecl::exec::EventLoopPool pool(cfg.io_threads);
  std::vector<std::unique_ptr<C10kConn>> states;
  states.reserve(static_cast<std::size_t>(conns));
  std::string err;
  for (int i = 0; i < conns; ++i) {
    // A burst of thousands of connects races the daemon's accept loop; a
    // full listen backlog is transient, so retry with a short pause before
    // giving up on the remaining connections.
    int fd = -1;
    for (int attempt = 0; fd < 0 && attempt < 50; ++attempt) {
      if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      fd = cfg.unix_path.empty()
               ? svc::net::connect_tcp(cfg.host, cfg.port, &err,
                                       cfg.copts.op_timeout_ms)
               : svc::net::connect_unix(cfg.unix_path, &err,
                                        cfg.copts.op_timeout_ms);
    }
    if (fd < 0) {
      std::fprintf(stderr, "c10k: connect %d/%d failed: %s\n", i + 1, conns,
                   err.c_str());
      break;
    }
    auto st = std::make_unique<C10kConn>();
    st->sh = &sh;
    st->rng.seed(cfg.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(i));
    st->keep_batches = g_acked_file != nullptr;
    C10kConn* raw = st.get();
    ecl::exec::ConnCallbacks cbs;
    cbs.on_frame = [raw](ecl::exec::Conn& c, std::span<const std::uint8_t> p) {
      c10k_on_frame(c, p, *raw);
    };
    cbs.on_close = [raw](ecl::exec::Conn&, ecl::exec::CloseReason) {
      c10k_on_close(*raw);
    };
    ecl::exec::ConnOptions copts;
    // A connection whose responses stop arriving is abandoned after the op
    // timeout (its unanswered in-flight ops are counted as errors).
    copts.idle_timeout_ms = cfg.copts.op_timeout_ms;
    // Loops are not started yet, so adopting and priming from this thread
    // is legal; the pipelines are full the instant the clock starts.
    ecl::exec::Conn* conn = pool.next().adopt(fd, std::move(cbs), copts);
    if (conn == nullptr) {
      std::fprintf(stderr, "c10k: adopt failed for connection %d\n", i + 1);
      break;
    }
    sh.open.fetch_add(1, std::memory_order_relaxed);
    c10k_top_up(*conn, *raw);
    states.push_back(std::move(st));
  }
  out.connected = static_cast<int>(states.size());
  if (out.connected == 0) return false;

  Timer wall;
  if (!pool.start(&err)) {
    std::fprintf(stderr, "c10k: event loop start failed: %s\n", err.c_str());
    return false;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  sh.stop_sending.store(true, std::memory_order_release);
  // Every connection always has in-flight requests until it observes the
  // stop flag, so each one drains its tail and closes itself; stuck peers
  // fall to the idle eviction. Bounded wait, then hard stop regardless.
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(cfg.copts.op_timeout_ms + 2000);
  while (sh.open.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  out.wall_ms = wall.millis();
  pool.stop();

  for (const auto& st : states) {
    out.total.queries += st->out.queries;
    out.total.ingests += st->out.ingests;
    out.total.shed += st->out.shed;
    out.total.errors += st->out.errors;
    out.total.edges_sent += st->out.edges_sent;
  }
  out.ops = out.total.queries + out.total.ingests;
  out.throughput = out.wall_ms > 0.0
                       ? static_cast<double>(out.ops) / (out.wall_ms / 1000.0)
                       : 0.0;
  out.p99_us = sh.op_us->count() > 0 ? sh.op_us->percentile(0.99) : 0.0;
  obs::registry()
      .gauge("ecl.loadgen.c10k.c" + std::to_string(conns) + ".throughput_ops")
      .set(out.throughput);
  obs::registry()
      .gauge("ecl.loadgen.c10k.c" + std::to_string(conns) + ".p99_us")
      .set(out.p99_us);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  LoadConfig cfg;
  cfg.unix_path = args.get("unix", "");
  cfg.host = args.get("host", "127.0.0.1");
  cfg.port = static_cast<int>(args.get_int("port", 0));
  cfg.threads = static_cast<int>(args.get_int("threads", 4));
  cfg.duration_ms = static_cast<int>(args.get_int("duration-ms", 2000));
  cfg.rate = args.get_double("rate", 0.0);
  cfg.ingest_frac = args.get_double("ingest-frac", 0.25);
  cfg.batch = static_cast<std::size_t>(args.get_int("batch", 64));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string mode_name = args.get("mode", "snapshot");
  cfg.mode = mode_name == "fresh" ? svc::ReadMode::kFresh : svc::ReadMode::kSnapshot;
  const std::string report_file = args.get("report", "");
  const bool send_shutdown = args.has("shutdown");
  cfg.chaos = args.has("chaos");
  cfg.copts.max_retries =
      static_cast<int>(args.get_int("retries", cfg.chaos ? 20 : 4));
  cfg.copts.op_timeout_ms = static_cast<int>(args.get_int("op-timeout-ms", 10000));
  if (cfg.chaos) cfg.copts.backoff_max_ms = 500;  // recover fast after restart
  const std::string acked_path = args.get("acked-file", "");
  cfg.slow_us = static_cast<std::uint64_t>(args.get_int("slow-us", 0));
  const std::string slow_path = args.get("slow-file", "");
  const std::string conns_arg = args.get("connections", "");
  for (std::size_t pos = 0; pos < conns_arg.size();) {
    const std::size_t comma = std::min(conns_arg.find(',', pos), conns_arg.size());
    const int n = std::atoi(conns_arg.substr(pos, comma - pos).c_str());
    if (n > 0) cfg.connections.push_back(n);
    pos = comma + 1;
  }
  cfg.pipeline = static_cast<int>(args.get_int("pipeline", 8));
  cfg.io_threads = static_cast<int>(args.get_int("io-threads", 2));
  const std::string target_arg = args.get("target", "");
  for (std::size_t pos = 0; pos < target_arg.size();) {
    const std::size_t comma = std::min(target_arg.find(',', pos), target_arg.size());
    const std::string tok = target_arg.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    TargetSpec t;
    t.label = tok;
    if (tok.find('/') != std::string::npos) {
      t.unix_path = tok;
    } else {
      const std::size_t colon = tok.rfind(':');
      t.host = colon == std::string::npos ? "" : tok.substr(0, colon);
      t.port = colon == std::string::npos ? 0 : std::atoi(tok.c_str() + colon + 1);
      if (t.host.empty() || t.port <= 0) {
        std::fprintf(stderr,
                     "error: --target entry '%s' is neither host:port nor a "
                     "unix socket path\n",
                     tok.c_str());
        return 1;
      }
    }
    cfg.targets.push_back(std::move(t));
  }
  cfg.per_target = !cfg.targets.empty();
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }
  if (cfg.per_target) {
    if (!cfg.connections.empty()) {
      std::fprintf(stderr, "error: --target does not combine with --connections\n");
      return 1;
    }
    // The first target is the primary: probe, ingests, and --shutdown all
    // land there via the legacy endpoint fields.
    cfg.unix_path = cfg.targets[0].unix_path;
    cfg.host = cfg.targets[0].host.empty() ? "127.0.0.1" : cfg.targets[0].host;
    cfg.port = cfg.targets[0].port;
  } else if (cfg.unix_path.empty() && cfg.port == 0) {
    std::fprintf(stderr,
                 "error: no endpoint; pass --unix=PATH, --port=P, or --target=T\n");
    return 1;
  }
  if (cfg.targets.empty()) {
    TargetSpec t;
    t.unix_path = cfg.unix_path;
    t.host = cfg.host;
    t.port = cfg.port;
    t.label = cfg.unix_path.empty() ? cfg.host + ":" + std::to_string(cfg.port)
                                    : cfg.unix_path;
    cfg.targets.push_back(std::move(t));
  }
  if (cfg.threads < 1 || cfg.batch < 1) {
    std::fprintf(stderr, "error: --threads and --batch must be >= 1\n");
    return 1;
  }
  if (cfg.pipeline < 1 || cfg.io_threads < 1) {
    std::fprintf(stderr, "error: --pipeline and --io-threads must be >= 1\n");
    return 1;
  }
  if (!acked_path.empty()) {
    g_acked_file = std::fopen(acked_path.c_str(), "w");
    if (g_acked_file == nullptr) {
      std::fprintf(stderr, "error: cannot open --acked-file=%s\n", acked_path.c_str());
      return 1;
    }
  }
  if (!slow_path.empty()) {
    g_slow_file = std::fopen(slow_path.c_str(), "w");
    if (g_slow_file == nullptr) {
      std::fprintf(stderr, "error: cannot open --slow-file=%s\n", slow_path.c_str());
      return 1;
    }
  }

  // Probe the daemon and learn the vertex universe for random edge/query IDs.
  // The probe sits outside the worker tid range so its request-id stream
  // never collides with worker 0's (the slow-file join relies on unique ids).
  std::string err;
  auto probe = connect(cfg, &err, cfg.threads);
  if (!probe) {
    std::fprintf(stderr, "error: connect failed: %s\n", err.c_str());
    return 1;
  }
  svc::ServiceStats st{};
  if (!probe->stats(st) || st.num_vertices == 0) {
    std::fprintf(stderr, "error: cannot read service stats (or empty universe)\n");
    return 1;
  }
  cfg.num_vertices = static_cast<vertex_t>(st.num_vertices);
  if (cfg.connections.empty()) {
    std::printf("target: %u vertices, epoch %llu; %d workers, %s, %.0f%% ingest\n",
                cfg.num_vertices, static_cast<unsigned long long>(st.epoch),
                cfg.threads, cfg.rate > 0.0 ? "open loop" : "closed loop",
                cfg.ingest_frac * 100.0);
  } else {
    std::printf("target: %u vertices, epoch %llu; c10k mode, pipeline=%d, "
                "%d io threads, %.0f%% ingest\n",
                cfg.num_vertices, static_cast<unsigned long long>(st.epoch),
                cfg.pipeline, cfg.io_threads, cfg.ingest_frac * 100.0);
  }

  obs::Histogram& query_us = obs::registry().histogram(
      "ecl.loadgen.query_us", obs::Histogram::pow2_bounds(22));
  obs::Histogram& ingest_us = obs::registry().histogram(
      "ecl.loadgen.ingest_us", obs::Histogram::pow2_bounds(22));

  std::vector<TargetAgg> target_aggs(cfg.targets.size());
  if (cfg.per_target) {
    for (std::size_t i = 0; i < cfg.targets.size(); ++i) {
      std::string key = cfg.targets[i].label;
      for (auto& ch : key) {
        if (ch == ':' || ch == '/') ch = '_';
      }
      target_aggs[i].query_us = &obs::registry().histogram(
          "ecl.loadgen.target." + key + ".query_us",
          obs::Histogram::pow2_bounds(22));
      target_aggs[i].key = std::move(key);
    }
    g_targets = &target_aggs;
  }

  WorkerResult total;
  double wall_ms = 0.0;
  std::vector<double> per_thread_ms;
  if (!cfg.connections.empty()) {
    for (const int conns : cfg.connections) {
      C10kPhase phase;
      if (!run_c10k_phase(cfg, conns, query_us, ingest_us, phase)) return 1;
      std::printf("c10k[%d conns, %d connected]: %llu ops in %.0f ms "
                  "(%.0f ops/s), p99=%.1f us, %llu shed, %llu errors\n",
                  phase.requested, phase.connected,
                  static_cast<unsigned long long>(phase.ops), phase.wall_ms,
                  phase.throughput, phase.p99_us,
                  static_cast<unsigned long long>(phase.total.shed),
                  static_cast<unsigned long long>(phase.total.errors));
      total.queries += phase.total.queries;
      total.ingests += phase.total.ingests;
      total.shed += phase.total.shed;
      total.errors += phase.total.errors;
      total.edges_sent += phase.total.edges_sent;
      wall_ms += phase.wall_ms;
      per_thread_ms.push_back(phase.wall_ms);
      obs::run_report().add_cell("c10k", "conns_" + std::to_string(conns),
                                 {phase.wall_ms});
    }
  } else {
    std::vector<WorkerResult> results(static_cast<std::size_t>(cfg.threads));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(cfg.threads));
    Timer wall;
    for (int t = 0; t < cfg.threads; ++t) {
      threads.emplace_back(worker, std::cref(cfg), t, std::ref(query_us),
                           std::ref(ingest_us), std::ref(results[static_cast<std::size_t>(t)]));
    }
    for (auto& th : threads) th.join();
    wall_ms = wall.millis();
    for (const auto& r : results) {
      total.queries += r.queries;
      total.ingests += r.ingests;
      total.shed += r.shed;
      total.errors += r.errors;
      total.edges_sent += r.edges_sent;
      total.retries += r.retries;
      total.reconnects += r.reconnects;
      if (r.wall_ms > 0.0) per_thread_ms.push_back(r.wall_ms);
    }
  }
  const std::uint64_t ops = total.queries + total.ingests;
  const double throughput = wall_ms > 0.0 ? static_cast<double>(ops) / (wall_ms / 1000.0) : 0.0;
  ECL_OBS_GAUGE_SET("ecl.loadgen.throughput_ops", throughput);
  ECL_OBS_GAUGE_SET("ecl.loadgen.shed_batches", static_cast<double>(total.shed));

  std::printf("done in %.0f ms: %llu ops (%llu queries, %llu ingests, %llu edges), "
              "%.0f ops/s, %llu shed, %llu errors\n",
              wall_ms, static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(total.queries),
              static_cast<unsigned long long>(total.ingests),
              static_cast<unsigned long long>(total.edges_sent), throughput,
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(total.errors));
  // An empty histogram's quantiles are the defined 0.0 sentinel (see
  // obs::percentile_from_buckets) — print "no samples" instead of implying a
  // measured zero-microsecond tail.
  const auto print_latency = [](const char* label, const obs::Histogram& h) {
    if (h.count() == 0) {
      std::printf("%s latency us: no samples\n", label);
      return;
    }
    std::printf("%s latency us: p50=%.1f p95=%.1f p99=%.1f (n=%llu, max=%llu)\n",
                label, h.percentile(0.50), h.percentile(0.95), h.percentile(0.99),
                static_cast<unsigned long long>(h.count()),
                static_cast<unsigned long long>(h.max()));
  };
  print_latency("query ", query_us);
  print_latency("ingest", ingest_us);
  if (cfg.per_target) {
    const double wall_s = wall_ms > 0.0 ? wall_ms / 1000.0 : 0.0;
    for (std::size_t i = 0; i < cfg.targets.size(); ++i) {
      TargetAgg& agg = target_aggs[i];
      const std::uint64_t q = agg.queries.load(std::memory_order_relaxed);
      const std::uint64_t e = agg.errors.load(std::memory_order_relaxed);
      const double thr = wall_s > 0.0 ? static_cast<double>(q) / wall_s : 0.0;
      const double p99 =
          agg.query_us->count() > 0 ? agg.query_us->percentile(0.99) : 0.0;
      std::printf("target[%zu] %s: %llu queries (%.0f/s), p99=%.1f us, "
                  "%llu errors\n",
                  i, cfg.targets[i].label.c_str(),
                  static_cast<unsigned long long>(q), thr, p99,
                  static_cast<unsigned long long>(e));
      obs::registry()
          .gauge("ecl.loadgen.target." + agg.key + ".throughput_ops")
          .set(thr);
      obs::registry().gauge("ecl.loadgen.target." + agg.key + ".p99_us").set(p99);
      obs::run_report().add_cell("targets", agg.key, {wall_ms});
    }
  }
  if (total.retries > 0 || total.reconnects > 0) {
    std::printf("resilience: %llu retries, %llu reconnects\n",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.reconnects));
  }
  if (g_acked_file != nullptr) {
    std::fclose(g_acked_file);
    g_acked_file = nullptr;
  }
  if (g_slow_file != nullptr) {
    std::fclose(g_slow_file);
    g_slow_file = nullptr;
    std::printf("slow ops: %llu at >= %llu us\n",
                static_cast<unsigned long long>(g_slow_ops.load()),
                static_cast<unsigned long long>(cfg.slow_us));
  }

  if (!report_file.empty()) {
    obs::run_report().set_bench_name("svc_loadgen");
    obs::run_report().set_config(/*scale=*/static_cast<double>(cfg.threads),
                                 /*reps=*/cfg.threads);
    if (cfg.connections.empty()) {  // c10k phases already added their cells
      obs::run_report().add_cell("service", cfg.rate > 0.0 ? "open_loop" : "closed_loop",
                                 per_thread_ms.empty() ? std::vector<double>{wall_ms}
                                                       : per_thread_ms);
    }
    if (!obs::run_report().write_file(report_file)) {
      std::fprintf(stderr, "error: cannot write report to %s\n", report_file.c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_file.c_str());
  }

  if (send_shutdown) {
    if (auto c = connect(cfg, &err, cfg.threads + 1); c && c->shutdown_server()) {
      std::printf("shutdown request acknowledged\n");
    } else {
      std::fprintf(stderr, "warning: shutdown request failed\n");
    }
  }
  return ops == 0 ? 2 : 0;
}
