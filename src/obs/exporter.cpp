#include "obs/exporter.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/sock.h"

namespace ecl::obs {

namespace {

void append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_number(std::string& out, double v) {
  char buf[64];
  // %.10g round-trips every value these metrics produce (integer counts,
  // microsecond quantiles) without scientific-notation surprises for small
  // magnitudes; Prometheus parses either form.
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_type(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void append_gauge(std::string& out, const std::string& name, double v) {
  append_type(out, name, "gauge");
  out += name;
  out += ' ';
  append_number(out, v);
  out += '\n';
}

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

MetricsExporter::MetricsExporter(ExporterOptions opts) : opts_(std::move(opts)),
                                                         series_(opts_.window_samples) {}

MetricsExporter::~MetricsExporter() { stop(); }

void MetricsExporter::add_collector(Collector c) {
  collectors_.push_back(std::move(c));
}

std::string MetricsExporter::sanitize_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

bool MetricsExporter::start(std::string* err) {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = listen_tcp(opts_.host, opts_.port, 16, &port_, err);
  if (listen_fd_ < 0) return false;
  if (::pipe(wake_pipe_) != 0) {
    if (err != nullptr) *err = std::string("pipe: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  // First sample before the thread starts: a scrape that races startup still
  // sees every already-registered metric (windows just aren't valid yet).
  series_.sample_now();
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void MetricsExporter::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& p : wake_pipe_) {
    if (p >= 0) ::close(p);
    p = -1;
  }
  running_.store(false, std::memory_order_release);
}

void MetricsExporter::serve_loop() {
  const int interval =
      opts_.sample_interval_ms > 0 ? opts_.sample_interval_ms : 1000;
  std::uint64_t next_sample_ms = mono_ms() + static_cast<std::uint64_t>(interval);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const std::uint64_t now = mono_ms();
    if (now >= next_sample_ms) {
      series_.sample_now();
      // Skip forward rather than bursting if a slow scrape blocked us past
      // several periods.
      while (next_sample_ms <= now) next_sample_ms += static_cast<std::uint64_t>(interval);
    }
    const int wait_ms =
        static_cast<int>(std::min<std::uint64_t>(next_sample_ms - now, 200));
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    if ((fds[1].revents & POLLIN) != 0) break;  // stop() wake-up
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) continue;
    set_io_timeouts(client_fd, opts_.io_timeout_ms, opts_.io_timeout_ms);
    handle_client(client_fd);
    ::close(client_fd);
  }
}

void MetricsExporter::handle_client(int fd) {
  // Read until the end of the request headers (or a hostile 8 KiB). Only the
  // request line matters; everything after it is discarded.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;  // timeout, error, or close before a full request
    request.append(buf, static_cast<std::size_t>(n));
    // Bare-LF clients (netcat tests) terminate after one line.
    if (request.find('\n') != std::string::npos &&
        request.compare(0, 4, "GET ") == 0 &&
        request.find("\n\n") != std::string::npos) {
      break;
    }
    if (request.find("\r\n\r\n") != std::string::npos) break;
  }
  const std::size_t line_end = request.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  std::string path;
  if (line.compare(0, 4, "GET ") == 0) {
    const std::size_t sp = line.find(' ', 4);
    path = line.substr(4, sp == std::string::npos ? std::string::npos : sp - 4);
  }
  std::string body;
  const char* status = "200 OK";
  if (path == "/metrics" || path == "/") {
    body = render();
    scrapes_.fetch_add(1, std::memory_order_relaxed);
  } else if (path.empty()) {
    status = "400 Bad Request";
    body = "bad request\n";
  } else {
    status = "404 Not Found";
    body = "not found; scrape /metrics\n";
  }
  std::string resp = "HTTP/1.0 ";
  resp += status;
  resp +=
      "\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: ";
  append_number(resp, static_cast<std::uint64_t>(body.size()));
  resp += "\r\nConnection: close\r\n\r\n";
  resp += body;
  std::size_t off = 0;
  while (off < resp.size()) {
    const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string MetricsExporter::render() {
  std::string out;
  out.reserve(4096);
  // Collectors run first so their families can shadow registry metrics of
  // the same sanitized name: a collector samples live state at scrape time
  // (e.g. ecl_ccd's ecl_svc_epoch from Service::stats()), while a registry
  // gauge of the same name lags behind its last record site — emitting both
  // would be a duplicate family, which Prometheus rejects.
  std::string extra;
  for (const auto& collect : collectors_) collect(extra);
  std::vector<std::string> shadowed;
  for (std::size_t pos = extra.find("# TYPE "); pos != std::string::npos;
       pos = extra.find("# TYPE ", pos + 1)) {
    const std::size_t begin = pos + 7;
    const std::size_t end = extra.find(' ', begin);
    if (end != std::string::npos) shadowed.push_back(extra.substr(begin, end - begin));
  }
  const auto is_shadowed = [&](const std::string& name) {
    return std::find(shadowed.begin(), shadowed.end(), name) != shadowed.end();
  };
  const auto metrics = registry().snapshot();
  for (const auto& m : metrics) {
    const std::string name = sanitize_name(m.name);
    if (is_shadowed(name)) continue;
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        append_type(out, name, "counter");
        out += name;
        out += ' ';
        append_number(out, m.count);
        out += '\n';
        break;
      case MetricSnapshot::Kind::kGauge:
        append_gauge(out, name, m.value);
        break;
      case MetricSnapshot::Kind::kHistogram: {
        append_type(out, name, "histogram");
        // The registry's buckets are disjoint; Prometheus buckets are
        // cumulative ("samples <= le"), so accumulate while emitting.
        std::uint64_t cumulative = 0;
        for (const auto& [bound, count] : m.buckets) {
          cumulative += count;
          out += name;
          out += "_bucket{le=\"";
          if (bound == ~std::uint64_t{0}) {
            out += "+Inf";
          } else {
            append_number(out, bound);
          }
          out += "\"} ";
          append_number(out, cumulative);
          out += '\n';
        }
        out += name;
        out += "_sum ";
        append_number(out, m.sum);
        out += '\n';
        out += name;
        out += "_count ";
        append_number(out, m.count);
        out += '\n';
        break;
      }
    }
  }
  // Windowed views: rates for counters, rate + quantiles for histograms.
  double window_s = 0.0;
  for (const auto& [raw_name, w] : series_.window()) {
    if (!w.valid) continue;
    window_s = std::max(window_s, w.window_s);
    const std::string name = sanitize_name(raw_name);
    if (is_shadowed(name)) continue;
    switch (w.kind) {
      case MetricSnapshot::Kind::kCounter:
        append_gauge(out, name + "_window_rate", w.rate_per_s);
        break;
      case MetricSnapshot::Kind::kGauge:
        break;  // a gauge's window view is its current value, already exported
      case MetricSnapshot::Kind::kHistogram:
        append_gauge(out, name + "_window_rate", w.rate_per_s);
        append_gauge(out, name + "_window_p50", w.p50);
        append_gauge(out, name + "_window_p95", w.p95);
        append_gauge(out, name + "_window_p99", w.p99);
        break;
    }
  }
  append_gauge(out, "ecl_exporter_window_seconds", window_s);
  append_type(out, "ecl_exporter_scrapes_total", "counter");
  out += "ecl_exporter_scrapes_total ";
  append_number(out, scrapes_.load(std::memory_order_relaxed));
  out += '\n';
  out += extra;
  return out;
}

}  // namespace ecl::obs
