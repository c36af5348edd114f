// ecl::obs metrics exporter — a tiny HTTP endpoint serving Prometheus text
// exposition (format 0.0.4) of everything in the registry, plus windowed
// rates/quantiles from an embedded TimeSeries.
//
// One background thread does everything: it polls the listening socket,
// answers `GET /metrics` scrapes (HTTP/1.0, Connection: close — every
// scraper and `curl` speak that), and samples the registry into the time
// series on a fixed cadence between requests. There is no request pipeline
// to keep alive and no concurrency to manage: a scrape renders a snapshot,
// writes it, and closes.
//
// Rendering (docs/OBSERVABILITY.md "Live exporter"):
//   * dotted registry names are sanitized to the Prometheus charset
//     ("ecl.svc.op_us.ingest" -> "ecl_svc_op_us_ingest")
//   * counters/gauges map directly; histograms emit cumulative
//     `_bucket{le="..."}` lines plus `_sum` and `_count`
//   * once the time series holds two samples, each counter adds a
//     `<name>_window_rate` gauge and each histogram adds `_window_rate`,
//     `_window_p50/_p95/_p99` gauges covering the sliding window
//   * registered collector callbacks append extra families (the daemon
//     injects service/WAL/checkpoint stats this way, so the exporter layer
//     itself never depends on ecl::svc); a collector family shadows any
//     registry metric with the same sanitized name — the collector samples
//     live state at scrape time, and a duplicate family would be invalid
//     exposition
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

#include "obs/timeseries.h"

namespace ecl::obs {

struct ExporterOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (see port() after start()).
  int port = 0;
  /// Registry sampling cadence for the windowed stats.
  int sample_interval_ms = 1000;
  /// Ring capacity per metric; 64 x 1 s ~= a one-minute window.
  std::size_t window_samples = 64;
  /// Per-scrape socket deadline: a stuck scraper is dropped, never waited on.
  int io_timeout_ms = 2000;
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

  /// Binds, listens, takes an immediate first sample, and spawns the serve
  /// thread. False (with the reason in *err) if the endpoint failed.
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

  /// The sliding windows the serve loop maintains (for ecl_cc_top-style
  /// consumers living in the same process, and tests).
  [[nodiscard]] const TimeSeries& series() const { return series_; }

  /// Renders the full exposition body (registry + windows + collectors).
  /// What a scrape returns; exposed so tests need no socket.
  [[nodiscard]] std::string render();

  /// Maps a dotted metric name onto the Prometheus charset [a-zA-Z0-9_:],
  /// replacing every other byte with '_' (leading digits get a '_' prefix).
  [[nodiscard]] static std::string sanitize_name(std::string_view name);

 private:
  void serve_loop();
  void handle_client(int fd);

  const ExporterOptions opts_;
  TimeSeries series_;
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
