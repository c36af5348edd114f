// ecl_ccd — the connectivity service daemon.
//
// Serves connected(u,v) / component_of(v) / component_count() queries and
// streaming edge ingest over the ecl::svc binary protocol, on a TCP or
// Unix-domain socket, against a ConnectivityService (snapshot reads, lock-
// free ingest, background compaction by the paper's finalization phase;
// see docs/SERVICE.md).
//
//   $ ecl_ccd --vertices=100000 --unix=/tmp/ecl.sock
//   $ ecl_ccd --graph=web.eclg --port=4280
//   $ ecl_ccd --gen=internet --scale=0.2 --port=0       # ephemeral port
//
// Flags:
//   --vertices=N            empty universe of N vertices (default 1e6)
//   --graph=FILE            seed from a graph file (any supported format)
//   --gen=NAME --scale=F    seed from a generated suite graph
//   --unix=PATH             serve on a Unix-domain socket
//   --host=A --port=P       serve on TCP (default 127.0.0.1:4280; port 0 =
//                           ephemeral, printed and written to --ready-file)
//   --wal=PATH              write-ahead edge log (segments PATH.000001, ...):
//                           replay the tail on startup (truncating any torn
//                           final record) and append every accepted batch
//                           before acking it
//   --wal-fsync=POLICY      none | batch | always (default batch)
//   --wal-segment-bytes=N   rotate WAL segments at this size (def. 64 MiB)
//   --checkpoint=PATH       durable label-array checkpoints (PATH.000001,
//                           ...): restart loads the newest valid checkpoint
//                           and replays only WAL segments past it; covered
//                           segments are retired (bounded recovery + disk)
//   --checkpoint-interval-ms=N  min period between checkpoints (def. 5000;
//                           0 = only the final checkpoint on clean stop)
//   --replica-of=ENDPOINT   run as a read-only replica of the primary at
//                           ENDPOINT (a unix socket path if it contains '/',
//                           else HOST:PORT). Requires --wal and --checkpoint
//                           (the replica's local WAL and the checkpoint a
//                           rebootstrap installs). The replica starts from
//                           its local state (empty on first start) and
//                           streams from where its log ends; a primary that
//                           retired that segment sends its newest checkpoint.
//                           It serves and retries while the primary is
//                           unreachable, and refuses a primary of another
//                           vertex count.
//                           Writes answer kNotPrimary until a kPromote
//                           (ecl_cc_client promote) flips this daemon into a
//                           writable primary. See docs/REPLICATION.md.
//   --replica-fetch-interval-ms=N  WAL fetch cadence on a replica (def. 150)
//   --replica-hold-ms=N     primary side: a replica unseen for this long
//                           stops pinning WAL retention (def. 10000)
//   --frame-timeout-ms=N    evict clients that stall mid-frame (def. 10000)
//   --idle-timeout-ms=N     evict connections idle this long (0 = never)
//   --send-timeout-ms=N     evict clients that stop draining their buffered
//                           responses for this long (def. 10000; 0 = never)
//   --io-threads=N          event-loop threads multiplexing the connections
//                           (def. 2); connection capacity is bounded by fds,
//                           not by this
//   --backlog=N             listen(2) backlog (def. 256)
//   --ready-file=PATH       write "unix <path>" or "tcp <host> <port>" once
//                           listening (lets scripts wait for startup); with
//                           --metrics-port a "metrics <port>" line follows;
//                           the file appears complete (written, then renamed)
//   --report=FILE.json      write an obs run report on shutdown
//   --trace=FILE.json       record trace spans (batches, compactions, and
//                           one "svc.request" span per served request with
//                           its decode/execute/encode/write breakdown)
//   --metrics-port=P        serve Prometheus text exposition on
//                           http://<metrics-host>:P/metrics (port 0 =
//                           ephemeral, printed and written to --ready-file);
//                           includes the registry's counters, gauges and
//                           histograms plus service/WAL/checkpoint
//                           families — see docs/OBSERVABILITY.md "Live
//                           exporter". Omit the flag to disable the
//                           exporter entirely.
//   --metrics-host=A        exporter bind address (default 127.0.0.1)
//   --slow-log=FILE         append a JSON line per slow request (request id,
//                           op, queue depth, latency breakdown)
//   --slow-threshold-us=N   requests at least this slow are logged (default
//                           10000; 0 logs every request)
//
// Every default but --port and --vertices is the default of the option
// struct the flag sets (ServiceOptions, ServerOptions, ReplicatorOptions,
// ExporterOptions).
//
// Shutdown: SIGINT/SIGTERM or a protocol kShutdown message; either way the
// daemon stops accepting, drains in-flight batches, runs a final compaction
// and exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/cli.h"
#include "graph/io.h"
#include "graph/suite.h"
#include "obs/exporter.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "svc/replica.h"
#include "svc/server.h"
#include "svc/service.h"

namespace {

ecl::svc::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ecl;
  CliArgs args(argc, argv);

  svc::ServiceOptions sopts;
  sopts.wal_path = args.get("wal", sopts.wal_path);
  const std::string fsync_policy =
      args.get("wal-fsync", svc::to_string(sopts.wal.fsync_policy));
  if (!svc::parse_fsync_policy(fsync_policy, &sopts.wal.fsync_policy)) {
    std::fprintf(stderr, "error: bad --wal-fsync=%s (none|batch|always)\n",
                 fsync_policy.c_str());
    return 1;
  }
  sopts.wal_segment_bytes = static_cast<std::uint64_t>(args.get_int(
      "wal-segment-bytes", static_cast<std::int64_t>(sopts.wal_segment_bytes)));
  sopts.checkpoint_path = args.get("checkpoint", sopts.checkpoint_path);
  sopts.checkpoint_interval_ms =
      static_cast<int>(args.get_int("checkpoint-interval-ms", sopts.checkpoint_interval_ms));
  sopts.replica_hold_ms =
      static_cast<int>(args.get_int("replica-hold-ms", sopts.replica_hold_ms));

  const std::string replica_of = args.get("replica-of", "");
  const bool replica_mode = !replica_of.empty();
  svc::ReplicatorOptions ropts;
  ropts.fetch_interval_ms =
      static_cast<int>(args.get_int("replica-fetch-interval-ms", ropts.fetch_interval_ms));
  if (replica_mode) {
    if (replica_of.find('/') != std::string::npos) {
      ropts.unix_path = replica_of;
    } else {
      const auto colon = replica_of.rfind(':');
      if (colon == std::string::npos || colon + 1 == replica_of.size()) {
        std::fprintf(stderr,
                     "error: --replica-of wants HOST:PORT or a unix socket path\n");
        return 1;
      }
      ropts.host = replica_of.substr(0, colon);
      ropts.port = std::atoi(replica_of.c_str() + colon + 1);
    }
    if (sopts.wal_path.empty() || sopts.checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "error: --replica-of requires --wal and --checkpoint (the "
                   "replica's local WAL and rebootstrap state)\n");
      return 1;
    }
    sopts.replica = true;
  }

  svc::ServerOptions nopts;
  nopts.unix_path = args.get("unix", nopts.unix_path);
  nopts.host = args.get("host", nopts.host);
  nopts.port = static_cast<int>(args.get_int("port", 4280));
  nopts.frame_timeout_ms =
      static_cast<int>(args.get_int("frame-timeout-ms", nopts.frame_timeout_ms));
  nopts.idle_timeout_ms =
      static_cast<int>(args.get_int("idle-timeout-ms", nopts.idle_timeout_ms));
  nopts.send_timeout_ms =
      static_cast<int>(args.get_int("send-timeout-ms", nopts.send_timeout_ms));
  nopts.io_threads = static_cast<int>(args.get_int("io-threads", nopts.io_threads));
  nopts.backlog = static_cast<int>(args.get_int("backlog", nopts.backlog));

  const std::string graph_file = args.get("graph", "");
  const std::string gen = args.get("gen", "");
  const double scale = args.get_double("scale", 1.0);
  const auto vertices = static_cast<vertex_t>(args.get_int("vertices", 1000000));
  const std::string ready_file = args.get("ready-file", "");
  const std::string report_file = args.get("report", "");
  const std::string trace_file = args.get("trace", "");
  const bool exporter_enabled = args.has("metrics-port");
  obs::ExporterOptions eopts;
  eopts.host = args.get("metrics-host", eopts.host);
  eopts.port = static_cast<int>(args.get_int("metrics-port", eopts.port));
  const std::string slow_log_file = args.get("slow-log", "");
  const auto slow_threshold_us =
      static_cast<std::uint64_t>(args.get_int("slow-threshold-us", 10000));
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }

  if (!trace_file.empty()) obs::Tracer::instance().start(trace_file);

  obs::RequestLog slow_log;
  if (!slow_log_file.empty()) {
    if (!slow_log.open(slow_log_file, slow_threshold_us)) {
      std::fprintf(stderr, "error: cannot open --slow-log=%s\n", slow_log_file.c_str());
      return 1;
    }
    nopts.slow_log = &slow_log;
    std::printf("slow-request log %s (threshold %llu us)\n", slow_log_file.c_str(),
                static_cast<unsigned long long>(slow_threshold_us));
  }

  std::unique_ptr<svc::ConnectivityService> service;
  try {
    if (!graph_file.empty()) {
      const Graph seed = load_auto(graph_file);
      std::printf("seeded from %s: %u vertices, %llu directed edges\n",
                  graph_file.c_str(), seed.num_vertices(),
                  static_cast<unsigned long long>(seed.num_edges()));
      service = std::make_unique<svc::ConnectivityService>(seed, sopts);
    } else if (!gen.empty()) {
      const Graph seed = make_suite_graph(gen, scale);
      std::printf("seeded from generated '%s' (scale %.2f): %u vertices\n",
                  gen.c_str(), scale, seed.num_vertices());
      service = std::make_unique<svc::ConnectivityService>(seed, sopts);
    } else {
      service = std::make_unique<svc::ConnectivityService>(vertices, sopts);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!sopts.wal_path.empty()) {
    std::printf("wal %s (fsync=%s): replayed %llu edges\n", sopts.wal_path.c_str(),
                svc::to_string(sopts.wal.fsync_policy),
                static_cast<unsigned long long>(service->replayed_edges()));
  }
  if (!sopts.checkpoint_path.empty()) {
    const auto st = service->stats();
    // Every checkpoint load so far (fallbacks included): mapping plus checks.
    const auto& load_us =
        obs::registry().histogram("ecl.svc.ckpt.load_us", obs::Histogram::pow2_bounds(22));
    std::printf(
        "checkpoint %s (interval %d ms): recovered epoch %llu, watermark %llu, "
        "loaded in %.1f ms\n",
        sopts.checkpoint_path.c_str(), sopts.checkpoint_interval_ms,
        static_cast<unsigned long long>(st.last_checkpoint_epoch),
        static_cast<unsigned long long>(st.watermark),
        static_cast<double>(load_us.sum()) / 1000);
  }

  std::unique_ptr<svc::Replicator> replicator;
  if (replica_mode) {
    replicator = std::make_unique<svc::Replicator>(*service, ropts);
    // kPromote must stop the stream before flipping the service: promote()
    // assumes no replicated record is logged after it.
    nopts.promote = [&service, &replicator] {
      if (replicator) replicator->stop();
      return service->promote(nullptr);
    };
  }

  svc::Server server(*service, nopts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "error: cannot start server: %s\n", err.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (replicator != nullptr) {
    std::string rerr;
    if (!replicator->start(&rerr)) {
      std::fprintf(stderr, "error: cannot start replication: %s\n", rerr.c_str());
      server.stop();
      service->stop();
      return 1;
    }
    std::printf("replica of %s (fetch every %d ms)\n", replica_of.c_str(),
                ropts.fetch_interval_ms);
  }

  obs::MetricsExporter exporter(eopts);
  if (exporter_enabled) {
    // Service families come from the same Server::stats() sample kStats
    // answers with. The degraded flag in particular must come from here: it
    // is service state, not a registry metric, so the endpoint keeps
    // answering `ecl_svc_degraded 1` after a WAL failure.
    exporter.add_collector(
        [&server](std::string& out) { svc::render_prometheus(server.stats(), out); });
    std::string eerr;
    if (!exporter.start(&eerr)) {
      std::fprintf(stderr, "error: cannot start metrics exporter: %s\n", eerr.c_str());
      server.stop();
      service->stop();
      return 1;
    }
  }

  if (!nopts.unix_path.empty()) {
    std::printf("listening on unix socket %s\n", nopts.unix_path.c_str());
  } else {
    std::printf("listening on %s:%d\n", nopts.host.c_str(), server.port());
  }
  if (exporter_enabled) {
    std::printf("metrics on http://%s:%d/metrics\n", eopts.host.c_str(),
                exporter.port());
  }
  std::fflush(stdout);
  if (!ready_file.empty()) {
    // A waiter polls for the file to exist, so it must never see it partial.
    const std::string tmp = ready_file + ".tmp";
    {
      std::ofstream ready(tmp);
      if (!nopts.unix_path.empty()) {
        ready << "unix " << nopts.unix_path << "\n";
      } else {
        ready << "tcp " << nopts.host << " " << server.port() << "\n";
      }
      if (exporter_enabled) ready << "metrics " << exporter.port() << "\n";
    }
    if (std::rename(tmp.c_str(), ready_file.c_str()) != 0) {
      std::fprintf(stderr, "warning: cannot write --ready-file=%s\n", ready_file.c_str());
    }
  }

  server.wait();          // until signal or kShutdown request
  server.stop();
  exporter.stop();
  // Stop the stream before the service: apply_replicated() into a stopping
  // service is harmless, but the ordering keeps shutdown deterministic.
  if (replicator != nullptr) {
    replicator->stop();
    std::printf("replication: %llu fetch rounds, %llu records applied, "
                "%llu errors, %llu re-bootstraps\n",
                static_cast<unsigned long long>(replicator->fetch_rounds()),
                static_cast<unsigned long long>(replicator->applied_records()),
                static_cast<unsigned long long>(replicator->fetch_errors()),
                static_cast<unsigned long long>(replicator->rebootstraps()));
  }
  service->stop();        // drain in-flight batches + final compaction
  slow_log.close();

  const auto stats = service->stats();
  if (service->degraded()) {
    std::printf("note: service ended in read-only degraded mode\n");
  }
  std::printf(
      "shutdown: served %llu requests; epoch %llu, %llu edges applied, "
      "%llu batches shed, %llu components\n",
      static_cast<unsigned long long>(server.requests_served()),
      static_cast<unsigned long long>(stats.epoch),
      static_cast<unsigned long long>(stats.applied_edges),
      static_cast<unsigned long long>(stats.shed_batches),
      static_cast<unsigned long long>(stats.num_components));
  if (!slow_log_file.empty()) {
    std::printf("slow-request log: %llu lines in %s\n",
                static_cast<unsigned long long>(slow_log.lines()),
                slow_log_file.c_str());
  }
  if (exporter_enabled) {
    std::printf("metrics exporter: %llu scrapes\n",
                static_cast<unsigned long long>(exporter.scrapes()));
  }

  if (!report_file.empty()) {
    obs::run_report().set_bench_name("ecl_ccd");
    obs::run_report().add_cell("service", "lifetime",
                               {static_cast<double>(server.requests_served())});
    if (!obs::run_report().write_file(report_file)) {
      std::fprintf(stderr, "error: cannot write report to %s\n", report_file.c_str());
      return 1;
    }
  }
  if (!trace_file.empty()) obs::Tracer::instance().stop();
  return 0;
}
