// ecl::obs metrics exporter — a tiny HTTP endpoint serving Prometheus text
// exposition (format 0.0.4) of everything in the registry.
//
// One background thread does everything: it blocks in poll() on the
// listening socket and a wake pipe, and answers `GET /metrics` scrapes
// (HTTP/1.0, Connection: close — every scraper and `curl` speak that).
// There is no request pipeline to keep alive, no timer and no concurrency
// to manage: a scrape renders a registry snapshot, writes it, and closes.
// Every family is cumulative; a scraper derives windowed rates and
// quantiles itself (`rate()`, `histogram_quantile()`).
//
// Rendering (docs/OBSERVABILITY.md "Live exporter"):
//   * dotted registry names are sanitized to the Prometheus charset
//     ("ecl.svc.op_us.ingest" -> "ecl_svc_op_us_ingest")
//   * counters/gauges map directly; histograms emit cumulative
//     `_bucket{le="..."}` lines plus `_sum` and `_count`
//   * registered collector callbacks append extra families (the daemon
//     injects its stats table, svc::ECL_SVC_STATS_FIELDS, this way, so the
//     exporter layer itself never depends on ecl::svc). A quantity that is
//     a table row is never also a registry metric, so no collector family
//     shares a name with a registry one (the metric_names_check ctest,
//     scripts/check_metric_names.py, enforces that)
//
// This header lives in obs (not svc) deliberately: the service library
// links obs, so the exporter cannot use svc::net without a cycle. Its
// listener comes from common/sock.h, the one the svc server uses too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ecl::obs {

struct ExporterOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see port() after start()).
  int port = 0;
};

class MetricsExporter {
 public:
  /// Appends extra exposition text ("# TYPE ...\nname value\n" lines) to the
  /// scrape body. Called on the exporter thread; must be self-synchronized.
  using Collector = std::function<void(std::string&)>;

  explicit MetricsExporter(ExporterOptions opts = {});
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Registers a collector. Must be called before start().
  void add_collector(Collector c);

  /// Binds, listens and spawns the serve thread. False (with the reason in
  /// *err) if the endpoint failed.
  [[nodiscard]] bool start(std::string* err = nullptr);

  /// Stops the thread and closes the socket. Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound TCP port (meaningful after start()).
  [[nodiscard]] int port() const { return port_; }

  /// Scrapes served so far.
  [[nodiscard]] std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

  /// Renders the full exposition body (registry + collectors).
  /// What a scrape returns; exposed so tests need no socket.
  [[nodiscard]] std::string render();

  /// Maps a dotted metric name onto the Prometheus charset [a-zA-Z0-9_:],
  /// replacing every other byte with '_' (leading digits get a '_' prefix).
  [[nodiscard]] static std::string sanitize_name(std::string_view name);

 private:
  void serve_loop();
  void handle_client(int fd);

  const ExporterOptions opts_;
  std::vector<Collector> collectors_;
  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> scrapes_{0};
};

}  // namespace ecl::obs
