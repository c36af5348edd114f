// ecl_cc_top — live terminal dashboard for a running ecl_ccd daemon.
//
//   $ ecl_cc_top --unix=/tmp/ecl.sock
//   $ ecl_cc_top --host=127.0.0.1 --port=4280 --interval-ms=500
//   $ ecl_cc_top --port=4280 --iterations=3 --plain      # scripted snapshot
//
// Polls the kStats RPC (one request per tick) and renders one screen
// per sample: request and ingest throughput (rates come from differencing
// consecutive samples, as a scraper's rate() does with /metrics counters),
// snapshot epoch/watermark lag, queue depth, WAL and checkpoint activity,
// and a DEGRADED banner the moment the service drops to read-only mode.
//
// Flags:
//   --unix=PATH / --host=A --port=P   daemon endpoint (like ecl_cc_client)
//   --interval-ms=N                   poll period (default 1000)
//   --iterations=N                    exit after N samples (0 = until ^C
//                                     or the daemon goes away)
//   --plain                           no ANSI clear/colors; append screens
//                                     (for logs, CI, and non-TTY output)
//
// Exit codes: 0 clean, 1 endpoint/usage or lost connection.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/timer.h"
#include "svc/client.h"

namespace {

using namespace ecl;

struct Sample {
  svc::ServiceStats stats;
  double t_s = 0.0;  // steady-clock seconds at sample time
};

double rate(std::uint64_t now, std::uint64_t then, double dt_s) {
  if (dt_s <= 0.0 || now < then) return 0.0;
  return static_cast<double>(now - then) / dt_s;
}

void print_bytes(double v) {
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::printf("%.1f GiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::printf("%.1f MiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::printf("%.1f KiB", v / 1024.0);
  } else {
    std::printf("%.0f B", v);
  }
}

void render(const std::string& endpoint, const Sample& cur, const Sample* prev,
            bool plain) {
  if (!plain) std::printf("\x1b[H\x1b[2J");  // home + clear
  const double dt = prev != nullptr ? cur.t_s - prev->t_s : 0.0;
  const auto& st = cur.stats;

  std::printf("ecl_cc_top — %s   uptime %.1fs", endpoint.c_str(),
              static_cast<double>(st.uptime_ms) / 1000.0);
  if (st.replica != 0) {
    std::printf(plain ? "   [REPLICA]" : "   \x1b[1;44m REPLICA \x1b[0m");
  }
  if (st.degraded != 0) {
    std::printf(plain ? "   [DEGRADED: read-only]" : "   \x1b[1;41m DEGRADED: read-only \x1b[0m");
  }
  std::printf("\n\n");

  std::printf("requests    %llu served",
              static_cast<unsigned long long>(st.requests_served));
  if (prev != nullptr) {
    std::printf("   %.1f/s", rate(st.requests_served, prev->stats.requests_served, dt));
  }
  std::printf("\n");

  std::printf("ingest      %llu edges applied",
              static_cast<unsigned long long>(st.applied_edges));
  if (prev != nullptr) {
    std::printf("   %.0f edges/s", rate(st.applied_edges, prev->stats.applied_edges, dt));
  }
  std::printf("   queue %llu   lag %llu batches   shed %llu\n",
              static_cast<unsigned long long>(st.queue_depth),
              static_cast<unsigned long long>(st.ingest_lag_batches),
              static_cast<unsigned long long>(st.shed_batches));

  std::printf("snapshot    epoch %llu", static_cast<unsigned long long>(st.epoch));
  if (prev != nullptr) {
    std::printf(" (+%.2f/s)", rate(st.epoch, prev->stats.epoch, dt));
  }
  std::printf("   watermark %llu   staleness %llu edges   %llu components\n",
              static_cast<unsigned long long>(st.watermark),
              static_cast<unsigned long long>(st.staleness_edges),
              static_cast<unsigned long long>(st.num_components));

  std::printf("wal         ");
  if (st.wal_enabled == 0) {
    std::printf("disabled\n");
  } else {
    std::printf("%s   %llu records   %llu segments   ",
                st.wal_healthy != 0 ? "healthy" : (plain ? "FAILED" : "\x1b[1;31mFAILED\x1b[0m"),
                static_cast<unsigned long long>(st.wal_records),
                static_cast<unsigned long long>(st.wal_segments));
    print_bytes(static_cast<double>(st.wal_bytes));
    if (prev != nullptr && st.wal_bytes >= prev->stats.wal_bytes) {
      std::printf("  (+");
      print_bytes(rate(st.wal_bytes, prev->stats.wal_bytes, dt));
      std::printf("/s)");
    }
    std::printf("\n");
  }

  std::printf("checkpoint  ");
  if (st.checkpoint_enabled == 0) {
    std::printf("disabled\n");
  } else {
    std::printf("%llu written   epoch %llu   age %.1fs\n",
                static_cast<unsigned long long>(st.checkpoints),
                static_cast<unsigned long long>(st.last_checkpoint_epoch),
                static_cast<double>(st.last_checkpoint_age_ms) / 1000.0);
  }

  // Replication panel. A replica shows how far behind the primary it is; a
  // primary shows how many replicas are currently fetching from it.
  if (st.replica != 0) {
    std::printf("replication replica   lag %llu segments / %llu ms behind primary\n",
                static_cast<unsigned long long>(st.replica_lag_seq),
                static_cast<unsigned long long>(st.replica_lag_ms));
  } else if (st.replicas_connected > 0) {
    std::printf("replication primary   %llu replicas streaming\n",
                static_cast<unsigned long long>(st.replicas_connected));
  }

  // Connection panel.
  std::printf("conns       %llu open",
              static_cast<unsigned long long>(st.open_connections));
  if (prev != nullptr) {
    std::printf("   %.0f wakeups/s",
                rate(st.epoll_wakeups, prev->stats.epoll_wakeups, dt));
  }
  std::printf("   wbuf hwm ");
  print_bytes(static_cast<double>(st.write_buf_hwm_bytes));
  std::printf("\n");
  const std::uint64_t evicted =
      st.evicted_idle + st.evicted_slow + st.evicted_backpressure;
  std::printf("evictions   %llu total (%llu idle, %llu slow, %llu backpressure)"
              "   %llu accepts shed\n",
              static_cast<unsigned long long>(evicted),
              static_cast<unsigned long long>(st.evicted_idle),
              static_cast<unsigned long long>(st.evicted_slow),
              static_cast<unsigned long long>(st.evicted_backpressure),
              static_cast<unsigned long long>(st.accept_shed_fds));
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string unix_path = args.get("unix", "");
  const std::string host = args.get("host", "127.0.0.1");
  const int port = static_cast<int>(args.get_int("port", 0));
  const int interval_ms = static_cast<int>(args.get_int("interval-ms", 1000));
  const auto iterations = args.get_int("iterations", 0);
  const bool plain = args.has("plain");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }
  if (unix_path.empty() && port == 0) {
    std::fprintf(stderr,
                 "usage: ecl_cc_top (--unix=PATH | [--host=A] --port=P) "
                 "[--interval-ms=N] [--iterations=N] [--plain]\n");
    return 1;
  }

  svc::ClientOptions copts;
  copts.max_retries = 1;  // a dashboard should show staleness, not hide it
  std::string err;
  auto client = unix_path.empty() ? svc::Client::connect_tcp(host, port, &err, copts)
                                  : svc::Client::connect_unix(unix_path, &err, copts);
  if (!client) {
    std::fprintf(stderr, "error: connect failed: %s\n", err.c_str());
    return 1;
  }
  const std::string endpoint =
      unix_path.empty() ? host + ":" + std::to_string(port) : unix_path;

  Timer clock;
  Sample prev;
  bool have_prev = false;
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    Sample cur;
    if (!client->stats(cur.stats)) {
      std::fprintf(stderr, "error: daemon stopped answering\n");
      return 1;
    }
    cur.t_s = clock.seconds();
    render(endpoint, cur, have_prev ? &prev : nullptr, plain);
    prev = cur;
    have_prev = true;
  }
  return 0;
}
