// ecl::obs request log — structured slow-request logging as JSON lines.
//
// The per-op latency histograms say *that* the tail got worse; this log says
// *which requests* sat in it and where their time went. The server front end
// fills one RequestLogRecord per served request (request id straight off the
// wire, per-phase latency breakdown) and hands it to log(), which drops it
// unless total_us meets the configured threshold and otherwise appends one
// self-contained JSON object per line:
//
//   {"ts_ms":1723111845123,"request_id":17,"op":"ingest","status":"ok",
//    "queue_depth":3,"total_us":5210,
//    "decode_us":12,"queue_us":0,"execute_us":5100,"encode_us":2,
//    "write_us":96}
//
// ts_ms is wall-clock Unix milliseconds (stamped at log time); request_id is
// the client-chosen id echoed in the response, so a client that saw a slow
// call can grep its id here and read the server-side breakdown. Lines are
// written under one mutex and flushed individually — a crash loses at most
// the line being written, and `tail -f` sees requests as they happen.
// queue_us is reserved for a queued front end (the server's event loops
// dispatch each request inline on the I/O thread that decoded it, so it
// logs 0).
//
// JSON-lines (one object per line, no enclosing array) so the file can be
// consumed incrementally by jq, Python, or a log shipper without parsing the
// whole thing.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace ecl::obs {

/// One served request's identity and latency breakdown.
struct RequestLogRecord {
  std::uint64_t request_id = 0;
  const char* op = "";      // protocol op name ("ping", "ingest", ...)
  const char* status = "";  // response status name ("ok", "shed", ...)
  std::uint64_t queue_depth = 0;  // ingest queue depth when served
  std::uint64_t total_us = 0;
  std::uint64_t decode_us = 0;
  std::uint64_t queue_us = 0;
  std::uint64_t execute_us = 0;
  std::uint64_t encode_us = 0;
  std::uint64_t write_us = 0;
};

/// Threshold-gated JSON-lines sink. Thread-safe; enabled() is one relaxed
/// load, so a disabled log costs record sites almost nothing.
class RequestLog {
 public:
  RequestLog() = default;
  ~RequestLog();

  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  /// Opens (appending) the sink. Requests with total_us >= threshold_us are
  /// logged; 0 logs every request. False if the file cannot be opened.
  [[nodiscard]] bool open(const std::string& path, std::uint64_t threshold_us);

  /// Flushes and closes; further log() calls are dropped.
  void close();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t threshold_us() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  void set_threshold_us(std::uint64_t t) {
    threshold_us_.store(t, std::memory_order_relaxed);
  }

  /// Writes one line if the sink is open and rec.total_us meets the
  /// threshold. Returns true if a line was written.
  bool log(const RequestLogRecord& rec);

  /// Lines written since open().
  [[nodiscard]] std::uint64_t lines() const {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> threshold_us_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::mutex mu_;
  std::FILE* file_ = nullptr;
};

}  // namespace ecl::obs
