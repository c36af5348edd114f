// ecl_cc_client — command-line client for a running ecl_ccd daemon.
//
//   $ ecl_cc_client --unix=/tmp/ecl.sock ping
//   $ ecl_cc_client --port=4280 connected 17 42
//   $ ecl_cc_client --port=4280 component 17
//   $ ecl_cc_client --port=4280 count
//   $ ecl_cc_client --port=4280 ingest 1 2 2 3 3 4
//   $ ecl_cc_client --port=4280 ingest-file edges.txt
//   $ ecl_cc_client --port=4280 stats
//   $ ecl_cc_client --port=4280 health      # stats; exit 2 when degraded
//   $ ecl_cc_client --port=4280 shutdown
//
// Endpoint flags: --unix=PATH, or --host=A (default 127.0.0.1) --port=P.
// Queries answer from the last compacted snapshot: an acked edge shows once
// `stats` reports ingest_lag_batches and staleness_edges at 0.
// Ingest flags: --batch=N splits file ingest into batches of N edges
// (default 4096).
// Robustness flags (all ops): --retries=N caps retry attempts for shed or
// transport-failed requests (default 3, exponential backoff with jitter —
// see docs/ROBUSTNESS.md), --op-timeout-ms=N bounds each attempt's socket
// I/O (default 10000), --connect-timeout-ms=N bounds connection setup
// (default 5000).
//
// Exit codes: 0 success, 1 usage/transport error, 2 request rejected
// (invalid vertex, queue shed after retries, or service closed) or, for
// health, a degraded daemon.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "svc/client.h"

namespace {

using namespace ecl;

using svc::status_name;

int usage() {
  std::fprintf(stderr,
               "usage: ecl_cc_client (--unix=PATH | [--host=A] --port=P) COMMAND\n"
               "commands:\n"
               "  ping                      round-trip check\n"
               "  connected U V             are U and V in the same component?\n"
               "  component V               component label of V\n"
               "  count                     snapshot component count\n"
               "  ingest U V [U V ...]      insert edges from the command line\n"
               "  ingest-file FILE          insert 'u v' edge lines from FILE\n"
               "  stats                     every service quantity, one per line\n"
               "  health                    stats, but exit 2 when degraded\n"
               "  promote                   flip a replica into a writable primary\n"
               "  shutdown                  ask the daemon to shut down\n");
  return 1;
}

bool parse_vertex(const std::string& s, vertex_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v > 0xffffffffull) return false;
  out = static_cast<vertex_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);

  const std::string unix_path = args.get("unix", "");
  const std::string host = args.get("host", "127.0.0.1");
  const int port = static_cast<int>(args.get_int("port", 0));
  const auto batch_size = static_cast<std::size_t>(args.get_int("batch", 4096));
  svc::ClientOptions copts;
  copts.max_retries = static_cast<int>(args.get_int("retries", 3));
  copts.op_timeout_ms = static_cast<int>(args.get_int("op-timeout-ms", 10000));
  copts.connect_timeout_ms = static_cast<int>(args.get_int("connect-timeout-ms", 5000));
  const auto& pos = args.positional();
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", flag.c_str());
  }
  if (pos.empty()) return usage();
  if (unix_path.empty() && port == 0) {
    std::fprintf(stderr, "error: no endpoint; pass --unix=PATH or --port=P\n");
    return 1;
  }

  std::string err;
  auto client = unix_path.empty() ? svc::Client::connect_tcp(host, port, &err, copts)
                                  : svc::Client::connect_unix(unix_path, &err, copts);
  if (!client) {
    std::fprintf(stderr, "error: connect failed: %s\n", err.c_str());
    return 1;
  }

  const std::string& cmd = pos[0];
  if (cmd == "ping") {
    if (!client->ping()) {
      std::fprintf(stderr, "error: ping failed\n");
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }

  if (cmd == "connected") {
    vertex_t u = 0, v = 0;
    if (pos.size() != 3 || !parse_vertex(pos[1], u) || !parse_vertex(pos[2], v))
      return usage();
    svc::Status st = svc::Status::kOk;
    const bool same = client->connected(u, v, svc::ReadMode::kSnapshot, &st);
    if (st != svc::Status::kOk) {
      std::fprintf(stderr, "error: %s\n", status_name(st));
      return st == svc::Status::kError ? 1 : 2;
    }
    std::printf("%s\n", same ? "connected" : "not-connected");
    return 0;
  }

  if (cmd == "component") {
    vertex_t v = 0;
    if (pos.size() != 2 || !parse_vertex(pos[1], v)) return usage();
    svc::Status st = svc::Status::kOk;
    const vertex_t label = client->component_of(v, &st);
    if (st != svc::Status::kOk) {
      std::fprintf(stderr, "error: %s\n", status_name(st));
      return st == svc::Status::kError ? 1 : 2;
    }
    std::printf("%u\n", label);
    return 0;
  }

  if (cmd == "count") {
    std::uint64_t count = 0;
    if (!client->component_count(count)) {
      std::fprintf(stderr, "error: request failed\n");
      return 1;
    }
    std::printf("%llu\n", static_cast<unsigned long long>(count));
    return 0;
  }

  if (cmd == "ingest") {
    if (pos.size() < 3 || (pos.size() - 1) % 2 != 0) return usage();
    std::vector<Edge> edges;
    for (std::size_t i = 1; i + 1 < pos.size(); i += 2) {
      vertex_t u = 0, v = 0;
      if (!parse_vertex(pos[i], u) || !parse_vertex(pos[i + 1], v)) return usage();
      edges.emplace_back(u, v);
    }
    const svc::Status st = client->ingest(edges);  // retries per --retries
    if (st != svc::Status::kOk) {
      std::fprintf(stderr, "error: %s\n", status_name(st));
      return st == svc::Status::kError ? 1 : 2;
    }
    std::printf("ingested %zu edges\n", edges.size());
    return 0;
  }

  if (cmd == "ingest-file") {
    if (pos.size() != 2) return usage();
    std::ifstream in(pos[1]);
    if (!in) {
      std::fprintf(stderr, "error: cannot open %s\n", pos[1].c_str());
      return 1;
    }
    std::vector<Edge> batch;
    std::uint64_t total = 0, shed = 0;
    std::string line;
    auto flush_batch = [&]() -> int {
      if (batch.empty()) return 0;
      const svc::Status st = client->ingest(batch);
      if (st == svc::Status::kShed) {
        ++shed;
      } else if (st != svc::Status::kOk) {
        std::fprintf(stderr, "error: %s\n", status_name(st));
        return st == svc::Status::kError ? 1 : 2;
      } else {
        total += batch.size();
      }
      batch.clear();
      return 0;
    };
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#' || line[0] == '%') continue;
      std::istringstream ls(line);
      unsigned long long u = 0, v = 0;
      if (!(ls >> u >> v)) continue;
      batch.emplace_back(static_cast<vertex_t>(u), static_cast<vertex_t>(v));
      if (batch.size() >= batch_size) {
        if (const int rc = flush_batch(); rc != 0) return rc;
      }
    }
    if (const int rc = flush_batch(); rc != 0) return rc;
    std::printf("ingested %llu edges", static_cast<unsigned long long>(total));
    if (shed > 0)
      std::printf(" (%llu batches shed after retries)",
                  static_cast<unsigned long long>(shed));
    std::printf("\n");
    return shed > 0 ? 2 : 0;
  }

  if (cmd == "stats" || cmd == "health") {
    svc::ServiceStats st{};
    if (!client->stats(st)) {
      std::fprintf(stderr, "error: request failed\n");
      return 1;
    }
#define ECL_PRINT_ROW(tag, member, family, type) \
  std::printf("%s %llu\n", #member, static_cast<unsigned long long>(st.member));
    ECL_SVC_STATS_FIELDS(ECL_PRINT_ROW)
#undef ECL_PRINT_ROW
    // health exits 2 when degraded, so scripts can use it as a probe.
    return cmd == "health" && st.degraded != 0 ? 2 : 0;
  }

  if (cmd == "promote") {
    svc::Status st = svc::Status::kOk;
    if (!client->promote(&st)) {
      std::fprintf(stderr, "error: %s\n", status_name(st));
      return st == svc::Status::kError ? 1 : 2;
    }
    std::printf("promoted\n");
    return 0;
  }

  if (cmd == "shutdown") {
    if (!client->shutdown_server()) {
      std::fprintf(stderr, "error: shutdown request failed\n");
      return 1;
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }

  std::fprintf(stderr, "error: unknown command '%s'\n", cmd.c_str());
  return usage();
}
